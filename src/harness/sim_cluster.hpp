#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chord/node.hpp"
#include "chord/ring_view.hpp"
#include "dat/dat_node.hpp"
#include "maan/maan_node.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/selfmon.hpp"
#include "sim/engine.hpp"

namespace dat::harness {

struct ClusterOptions {
  unsigned bits = 32;
  std::uint64_t seed = 42;
  chord::NodeOptions node{};
  core::DatOptions dat{};
  maan::MaanOptions maan{};
  bool with_dat = true;
  bool with_maan = false;
  /// Virtual time allowed for each sequential join to settle.
  std::uint64_t join_settle_us = 400'000;
  /// Give every node the exact d0 = 2^b / n hint (the deployments in the
  /// paper know n; set false to exercise the successor-list estimator).
  bool inject_d0_hint = true;
  /// Attach an obs::SelfMonitor to every node: the cluster monitors itself
  /// through selfmon meta-trees, and each node evaluates the SLO ruleset.
  bool with_selfmon = false;
  /// Selfmon knobs; fleet_size 0 is auto-filled with the bootstrap size n.
  obs::SelfMonitorOptions selfmon{};
  std::unique_ptr<sim::LatencyModel> latency;  ///< default LAN if null
};

/// Test/bench/example harness: a whole simulated DAT deployment in one
/// object — engine, network fabric, n Chord nodes bootstrapped with probing
/// joins, and optional DAT/MAAN layers per node. Provides churn operations
/// and convergence barriers. Mirrors the paper's simulator-based setup
/// (Sec. 5.1) at up to thousands of nodes.
class SimCluster {
 public:
  SimCluster(std::size_t n, ClusterOptions options);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] net::SimNetwork& network() noexcept { return *network_; }
  [[nodiscard]] const IdSpace& space() const noexcept { return space_; }
  [[nodiscard]] maan::Schema& schema() noexcept { return schema_; }

  /// Number of currently live nodes.
  [[nodiscard]] std::size_t live_count() const;
  /// Total slots ever created (dead ones keep their index).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] bool is_live(std::size_t slot) const;

  [[nodiscard]] chord::Node& node(std::size_t slot);
  [[nodiscard]] core::DatNode& dat(std::size_t slot);
  [[nodiscard]] maan::MaanNode& maan(std::size_t slot);
  /// Null when with_selfmon is off or the slot is dead.
  [[nodiscard]] obs::SelfMonitor* selfmon(std::size_t slot);

  /// Converged global view of the live membership.
  [[nodiscard]] chord::RingView ring_view() const;

  /// Runs virtual time forward.
  /// Runs the simulation for `us` of virtual time. The clock always advances
  /// by exactly `us`, even across stretches with no scheduled events, so
  /// fixed-step pump loops make progress regardless of timer density.
  void run_for(std::uint64_t us) { engine_->advance_until(engine_->now() + us); }

  /// True when every live node's tables match the converged RingView (in
  /// DAT_CHECK_INVARIANTS builds it then also asserts the converged
  /// invariants, which throw std::logic_error on violation).
  [[nodiscard]] bool converged() const;
  /// Runs until every live node's tables match the converged RingView, or
  /// until `max_us` virtual time passes. Returns true on convergence.
  bool wait_converged(std::uint64_t max_us);

  /// Joins one new node through slot 0 (or the lowest live slot). Returns
  /// the new slot index, or nullopt if the join failed.
  std::optional<std::size_t> add_node();

  /// Departs a node: graceful leave() or abrupt crash.
  void remove_node(std::size_t slot, bool graceful);

  /// Restarts a crashed/departed slot: a fresh transport and chord::Node
  /// rejoin the ring through identifier probing via the lowest live slot,
  /// the DAT/MAAN layers are re-attached, and every cluster-registered
  /// aggregate (see start_aggregate_everywhere) is re-registered so the
  /// node is absorbed back into the trees. Returns true once the rejoin
  /// completed; the slot keeps its index.
  bool restart_node(std::size_t slot);

  /// Identifier migration (the rebalancer's heavyweight action): the node
  /// leaves gracefully, then a fresh instance rejoins through the lowest
  /// live slot with `new_id` forced (skipping the probing handshake — the
  /// id was computed from a global measurement instead). The slot keeps its
  /// index and re-registers every cluster aggregate. Returns true once the
  /// rejoin completed; on failure the slot is left dead (restart_node can
  /// revive it).
  bool migrate_node(std::size_t slot, Id new_id);

  /// Per-slot local-value factory for cluster-wide aggregates; called with
  /// the slot index, may return nullptr for relay-only slots.
  using LocalValueFactory =
      std::function<core::DatNode::LocalValueFn(std::size_t slot)>;

  /// Registers the named aggregate on every live node and remembers the
  /// spec: nodes joining via add_node() or rejoining via restart_node()
  /// register it automatically, so churn never silently shrinks the
  /// contributor set. `epoch_us` overrides the per-key push period (0 keeps
  /// DatOptions::epoch_us) — the knob skewed workloads are built from.
  /// Returns the rendezvous key.
  Id start_aggregate_everywhere(std::string_view name, core::AggregateKind kind,
                                chord::RoutingScheme scheme,
                                LocalValueFactory local_for,
                                std::uint64_t epoch_us = 0);

  /// Refreshes the d0 hints after churn (call when inject_d0_hint is set
  /// and the live population changed).
  void refresh_d0_hints();

  /// Sum of chord-layer maintenance RPCs across live nodes.
  [[nodiscard]] std::uint64_t total_maintenance_rpcs() const;

  /// Cluster-wide metrics roll-up: every live node's registry snapshot
  /// stamped with its slot (node=<i>) and merged into one snapshot. Feed
  /// the result to obs::to_prometheus / obs::to_json, or call
  /// .rollup("node") to collapse per-node series into cluster totals.
  [[nodiscard]] obs::MetricsSnapshot telemetry_snapshot() const;

  /// Always-true structural invariants over every live node (valid even
  /// mid-churn); throws std::logic_error listing violations. Runs
  /// automatically at protocol step boundaries in DAT_CHECK_INVARIANTS
  /// builds (the asan-ubsan preset turns it on).
  void assert_local_invariants() const;

  /// Ground-truth invariants after convergence: per-node tables against the
  /// converged RingView plus DAT-tree structure for sampled rendezvous
  /// keys under both routing schemes. Throws std::logic_error on violation.
  void assert_converged_invariants() const;

 private:
  struct Slot {
    net::SimTransport* transport = nullptr;  // owned by the network
    std::unique_ptr<chord::Node> node;
    std::unique_ptr<core::DatNode> dat;
    std::unique_ptr<maan::MaanNode> maan;
    /// Declared after dat: destroyed first, so its leaf closures and
    /// in-flight query callbacks never outlive the DAT layer.
    std::unique_ptr<obs::SelfMonitor> selfmon;
    bool live = false;
  };

  struct AggregateSpec {
    std::string name;
    core::AggregateKind kind;
    chord::RoutingScheme scheme;
    LocalValueFactory local_for;
    std::uint64_t epoch_us = 0;  ///< per-key push period; 0 = DatOptions
  };

  void attach_layers(Slot& slot);
  void register_cluster_aggregates(Slot& slot, std::size_t slot_idx);
  /// Boots a node on a fresh transport and joins it via the lowest live
  /// slot; fills `slot` on success (live, layers attached, aggregates
  /// registered). With `forced_id` the join skips identifier probing and
  /// takes exactly that id (rebalancing migrations).
  bool boot_into_slot(Slot& slot, std::size_t slot_idx,
                      std::optional<Id> forced_id = std::nullopt);
  std::optional<std::size_t> try_add_node();
  [[nodiscard]] std::size_t lowest_live_slot() const;

  ClusterOptions options_;
  IdSpace space_;
  maan::Schema schema_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::SimNetwork> network_;
  std::vector<Slot> slots_;
  std::vector<AggregateSpec> cluster_aggregates_;
  std::uint64_t next_seed_;
};

/// Registers the default Grid attribute schema used across examples and
/// tests: cpu-usage [0,100] %, cpu-speed [0, 10e9] Hz, memory-size
/// [0, 64e9] B, plus string attrs os and arch.
void install_default_schema(maan::Schema& schema);

}  // namespace dat::harness
