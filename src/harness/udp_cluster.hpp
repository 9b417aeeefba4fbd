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
#include "netio/netio_network.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace dat::harness {

struct UdpClusterOptions {
  unsigned bits = 32;
  std::uint64_t seed = 1;
  chord::NodeOptions node{};
  core::DatOptions dat{};
  bool with_dat = true;
  /// Wall-clock budget for each join to complete.
  std::uint64_t join_timeout_us = 5'000'000;
  /// Wall-clock budget for full finger-table convergence.
  std::uint64_t converge_timeout_us = 60'000'000;
  /// Periodic telemetry dump: while the cluster pumps (run_for/run_until/
  /// wait_converged), the full cluster snapshot is written to this path
  /// (overwritten in place) every `metrics_dump_period_us`. Empty disables.
  std::string metrics_dump_path;
  std::uint64_t metrics_dump_period_us = 1'000'000;
  obs::ExportFormat metrics_dump_format = obs::ExportFormat::kJson;
};

/// Real-socket sibling of SimCluster: hosts n live Chord(+DAT) nodes on
/// loopback UDP in one process — the paper's testbed mode (64 instances per
/// machine over UDP RPC) — all on one netio::NetioNetwork pumped inline by
/// the caller. All time is wall-clock; keep n modest in tests.
class UdpCluster {
 public:
  UdpCluster(std::size_t n, UdpClusterOptions options);
  ~UdpCluster();

  UdpCluster(const UdpCluster&) = delete;
  UdpCluster& operator=(const UdpCluster&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] netio::NetioNetwork& network() noexcept { return network_; }
  [[nodiscard]] const IdSpace& space() const noexcept { return space_; }
  [[nodiscard]] chord::Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] core::DatNode& dat(std::size_t i) { return *dats_.at(i); }
  [[nodiscard]] bool is_live(std::size_t i) const {
    return i < nodes_.size() && nodes_[i] && nodes_[i]->alive();
  }

  /// Crashes node i: its socket is closed and the instance destroyed with
  /// no departure notice, like a killed process. The slot stays allocated
  /// for restart().
  void crash(std::size_t i);

  /// Restarts a crashed slot: binds a fresh socket, rejoins through any
  /// live node (identifier probing), re-attaches the DAT layer and
  /// re-registers every cluster-registered aggregate. Returns true once
  /// the rejoin completed within the configured join timeout.
  bool restart(std::size_t i);

  /// Identifier migration: node i departs gracefully, then a fresh instance
  /// rejoins on a new socket with `new_id` forced (no probing handshake —
  /// the id was computed from a measurement). The slot keeps its index and
  /// re-registers every cluster aggregate. Returns true once the rejoin
  /// completed; on failure the slot is left dead (restart() can revive it).
  bool migrate(std::size_t i, Id new_id);

  /// Per-slot local-value factory for cluster-wide aggregates.
  using LocalValueFactory =
      std::function<core::DatNode::LocalValueFn(std::size_t slot)>;

  /// Registers the named aggregate on every live node and remembers the
  /// spec so restarted nodes re-register it. `epoch_us` overrides the
  /// per-key push period (0 keeps DatOptions::epoch_us). Returns the
  /// rendezvous key.
  Id start_aggregate_everywhere(std::string_view name, core::AggregateKind kind,
                                chord::RoutingScheme scheme,
                                LocalValueFactory local_for,
                                std::uint64_t epoch_us = 0);

  [[nodiscard]] chord::RingView ring_view() const;

  /// Pumps wall-clock I/O until all nodes' tables match the converged ring
  /// or the configured timeout passes. Returns true on convergence.
  bool wait_converged();

  /// Pumps for the given wall-clock duration.
  void run_for(std::uint64_t us) {
    network_.run_for(us);
    maybe_dump_metrics();
  }

  /// Pumps until the predicate returns true (or `max_us`); true on success.
  bool run_until(const std::function<bool()>& condition, std::uint64_t max_us);

  /// Registry for infrastructure shared by all nodes (the netio reactor's
  /// counters land here).
  [[nodiscard]] obs::MetricsRegistry& cluster_metrics() noexcept {
    return cluster_metrics_;
  }

  /// Cluster-wide roll-up: each live node's registry stamped node=<i>,
  /// merged with the shared infrastructure registry (node="cluster").
  [[nodiscard]] obs::MetricsSnapshot telemetry_snapshot() const;

  /// Writes the current telemetry snapshot to `path` in `format`.
  void dump_metrics(const std::string& path, obs::ExportFormat format) const;

  /// Gives every node the exact d0 hint for balanced routing.
  void inject_d0_hints();

  /// Gracefully departs every node (also run by the destructor).
  void shutdown();

  /// Structural invariants over every live node; throws std::logic_error on
  /// violation. Runs automatically at step boundaries in
  /// DAT_CHECK_INVARIANTS builds.
  void assert_local_invariants() const;

  /// Ground-truth invariants against the converged ring view (called after
  /// wait_converged succeeds in DAT_CHECK_INVARIANTS builds).
  void assert_converged_invariants() const;

 private:
  struct AggregateSpec {
    std::string name;
    core::AggregateKind kind;
    chord::RoutingScheme scheme;
    LocalValueFactory local_for;
    std::uint64_t epoch_us = 0;  ///< per-key push period; 0 = DatOptions
  };

  void register_cluster_aggregates(std::size_t i);
  /// Boots a fresh node into dead slot i (fresh socket, join via the lowest
  /// live slot, DAT re-attach + aggregate re-registration). `forced_id`
  /// skips identifier probing (migrations).
  bool boot_slot(std::size_t i, std::optional<Id> forced_id);
  [[nodiscard]] std::size_t lowest_live_slot() const;
  void maybe_dump_metrics();

  UdpClusterOptions options_;
  IdSpace space_;
  // Declared before network_: the netio reactor holds a collector in this
  // registry and unregisters it on destruction.
  obs::MetricsRegistry cluster_metrics_;
  netio::NetioNetwork network_;
  std::vector<std::unique_ptr<chord::Node>> nodes_;
  std::vector<std::unique_ptr<core::DatNode>> dats_;
  std::vector<AggregateSpec> cluster_aggregates_;
  std::uint64_t next_seed_ = 0;
  bool shut_down_ = false;
  std::uint64_t last_dump_us_ = 0;
};

}  // namespace dat::harness
