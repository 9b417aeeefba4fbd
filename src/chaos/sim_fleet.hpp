#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chaos/executor.hpp"
#include "harness/sim_cluster.hpp"
#include "lb/ports.hpp"
#include "lb/rebalancer.hpp"
#include "net/rpc.hpp"

namespace dat::chaos {

/// Knobs of the kRebalance event: the SLO it drives towards and the skewed
/// workload it is exercised under.
struct RebalanceOptions {
  /// Branching SLO: max fresh children of any tracked tree on any node.
  std::size_t slo_max_branching = 4;
  /// Epoch budget to reach the SLO after the rebalancer activates.
  unsigned slo_max_epochs = 20;
  /// Extra hot replica trees registered alongside the base replicas, pushed
  /// ten times faster than the base epoch. With 2 hot trees next to 2 base
  /// trees, ~91% of update volume lands on the hot keys — the 90/10 skew of
  /// the headline campaign. 0 keeps the base replicas only.
  unsigned hot_aggregates = 0;
};

struct SimFleetOptions {
  /// Replica trees of the fleet's COUNT aggregate: replica i uses the key
  /// H("cpu-usage#" i) — the same layout as core::ReplicatedAggregate, so a
  /// reader keeps the widest-coverage answer across the replica roots.
  unsigned replicas = 3;
  /// Settle window run before each verification.
  std::uint64_t quiesce_us = 2'000'000;
  /// Recovery SLO: coverage must reach the reachable live population
  /// within this many push epochs after the settle.
  unsigned max_recovery_epochs = 10;
  /// Rebalancer SLO and workload skew, used by kRebalance events.
  RebalanceOptions rebalance{};
  /// Self-monitoring SLO: the probe node's coverage alert must be FIRING
  /// while the reachable population is below the configured fleet size and
  /// CLEAR once it is back, within selfmon_max_epochs telemetry epochs of
  /// the settle. Requires a cluster built with ClusterOptions::with_selfmon.
  bool check_selfmon = false;
  unsigned selfmon_max_epochs = 12;
};

/// A SimCluster as a chaos fleet. Faults act on the simulated fabric and
/// nodes in virtual time (a sigabrt is a crash; a leave drains the node's
/// subtrees upstream first, as datd does on SIGTERM), and one SLO poll
/// reads the sim state: local invariants, ring convergence while nothing
/// is partitioned, replica-root coverage and, when asked, the probe node's
/// coverage alert. All randomness is the cluster's own seeded Rng streams,
/// so the event log is a pure function of (cluster seed, plan).
class SimFleet final : public Fleet {
 public:
  /// The cluster must have its DAT layer enabled; the fleet registers its
  /// replica aggregates cluster-wide here, so restarted slots rejoin the
  /// trees automatically.
  SimFleet(harness::SimCluster& cluster, SimFleetOptions options);

  [[nodiscard]] std::size_t slots() const override;
  [[nodiscard]] bool live(std::size_t slot) const override;
  [[nodiscard]] std::uint64_t now_us() override;
  void advance(std::uint64_t us) override;
  bool apply(const FaultEvent& event, Executor& executor) override;
  [[nodiscard]] std::uint64_t settle_us() const override {
    return options_.quiesce_us;
  }
  [[nodiscard]] std::uint64_t poll_us() const override { return epoch_us_; }
  [[nodiscard]] Poll poll() override;

  /// What the rebalancer did, if the plan had a kRebalance event.
  struct LbSummary {
    bool ran = false;
    bool converged = false;  ///< branching SLO met within the epoch budget
    unsigned epochs = 0;
    std::size_t initial_max_branching = 0;
    std::size_t final_max_branching = 0;
    std::size_t migrations = 0;
    std::size_t sheds = 0;
  };
  [[nodiscard]] const LbSummary& lb_summary() const noexcept { return lb_; }

  /// Cumulative RPC counters summed over the live nodes.
  [[nodiscard]] net::RpcStats rpc_stats() const;

 private:
  void rebalance(const FaultEvent& event, Executor& executor);
  /// Max fresh child count over live slots x tracked keys (the branching
  /// the SLO bounds).
  [[nodiscard]] std::size_t measured_max_branching();
  /// Lowest live, unpartitioned slot; slots() when there is none.
  [[nodiscard]] std::size_t probe_slot() const;
  /// Lifts a partition on `slot`; false when it had none.
  bool heal(std::size_t slot);

  harness::SimCluster& cluster_;
  SimFleetOptions options_;
  std::uint64_t epoch_us_ = 0;
  std::vector<Id> keys_;
  /// keys_ plus the hot skewed trees — the set the rebalancer tracks.
  std::vector<Id> all_keys_;
  std::unique_ptr<lb::SimClusterPort> lb_port_;
  std::unique_ptr<lb::Rebalancer> rebalancer_;
  LbSummary lb_;
  /// Slot -> endpoint for currently partitioned slots (the endpoint is
  /// needed to heal after the chord::Node object is unreachable).
  std::unordered_map<std::size_t, net::Endpoint> partitioned_;
};

}  // namespace dat::chaos
