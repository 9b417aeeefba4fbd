#include "chaos/sim_fleet.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "lb/drain.hpp"

namespace dat::chaos {

namespace {

/// Budget of one replica-root query while probing coverage.
constexpr std::uint64_t kProbeTimeoutUs = 2'000'000;
/// Window for ring convergence after the settle.
constexpr std::uint64_t kConvergeWindowUs = 30'000'000;

}  // namespace

SimFleet::SimFleet(harness::SimCluster& cluster, SimFleetOptions options)
    : cluster_(cluster), options_(options) {
  if (options_.replicas == 0) {
    throw std::invalid_argument("SimFleet: replicas == 0");
  }
  const std::size_t probe = probe_slot();
  if (probe == slots()) throw std::invalid_argument("SimFleet: no live slot");
  epoch_us_ = cluster_.dat(probe).options().epoch_us;
  // Slot i samples the value i; the COUNT aggregate reads the coverage.
  const harness::SimCluster::LocalValueFactory local =
      [](std::size_t slot) -> core::DatNode::LocalValueFn {
    return [slot] { return static_cast<double>(slot); };
  };
  // Same key layout as core::ReplicatedAggregate: replica i rendezvouses at
  // H(name "#" i). Registering through the cluster keeps restarted slots
  // contributing without fleet-side bookkeeping.
  keys_.reserve(options_.replicas);
  for (unsigned i = 0; i < options_.replicas; ++i) {
    keys_.push_back(cluster_.start_aggregate_everywhere(
        "cpu-usage#" + std::to_string(i), core::AggregateKind::kCount,
        chord::RoutingScheme::kBalanced, local));
  }
  all_keys_ = keys_;
  // The skewed workload: hot trees push at a tenth of the base period,
  // concentrating update volume on a few keys.
  for (unsigned i = 0; i < options_.rebalance.hot_aggregates; ++i) {
    all_keys_.push_back(cluster_.start_aggregate_everywhere(
        "cpu-usage-hot#" + std::to_string(i), core::AggregateKind::kCount,
        chord::RoutingScheme::kBalanced, local, epoch_us_ / 10));
  }
}

std::size_t SimFleet::slots() const { return cluster_.slot_count(); }

bool SimFleet::live(std::size_t slot) const { return cluster_.is_live(slot); }

std::uint64_t SimFleet::now_us() { return cluster_.engine().now(); }

void SimFleet::advance(std::uint64_t us) { cluster_.run_for(us); }

std::size_t SimFleet::probe_slot() const {
  for (std::size_t i = 0; i < cluster_.slot_count(); ++i) {
    if (cluster_.is_live(i) && !partitioned_.contains(i)) return i;
  }
  return cluster_.slot_count();
}

net::RpcStats SimFleet::rpc_stats() const {
  net::RpcStats total;
  for (std::size_t i = 0; i < cluster_.slot_count(); ++i) {
    if (!cluster_.is_live(i)) continue;
    total += cluster_.node(i).rpc().stats();
  }
  return total;
}

bool SimFleet::heal(std::size_t slot) {
  const auto it = partitioned_.find(slot);
  if (it == partitioned_.end()) return false;
  cluster_.network().set_partitioned(it->second, false);
  partitioned_.erase(it);
  return true;
}

bool SimFleet::apply(const FaultEvent& event, Executor& executor) {
  switch (event.kind) {
    case FaultKind::kCrash:
    case FaultKind::kSigabrt:
    case FaultKind::kLeave: {
      // A destroyed endpoint must not linger in the fabric's partition set.
      heal(event.slot);
      const bool graceful = event.kind == FaultKind::kLeave;
      if (graceful) {
        // What datd does on SIGTERM: re-parent every subtree upstream and
        // retract its records, then leave the ring cleanly.
        const auto drained = lb::drain_node(cluster_.dat(event.slot));
        executor.note("t=" + std::to_string(event.at_us / 1000) +
                      "ms drain slot=" + std::to_string(event.slot) +
                      " keys=" + std::to_string(drained.keys) +
                      " moved=" + std::to_string(drained.children_moved) +
                      " retracts=" + std::to_string(drained.retracts_sent));
      }
      cluster_.remove_node(event.slot, graceful);
      cluster_.refresh_d0_hints();
      return true;
    }
    case FaultKind::kRestart:
      if (!cluster_.restart_node(event.slot)) {
        executor.violation("restart failed for slot " +
                           std::to_string(event.slot));
      }
      return true;
    case FaultKind::kLossBurst:
      cluster_.network().loss_burst(event.magnitude, event.duration_us);
      return true;
    case FaultKind::kLatencyBurst:
      cluster_.network().latency_burst(event.magnitude, event.duration_us);
      return true;
    case FaultKind::kPartition: {
      const net::Endpoint ep = cluster_.node(event.slot).self().endpoint;
      cluster_.network().set_partitioned(ep, true);
      partitioned_[event.slot] = ep;
      return true;
    }
    case FaultKind::kHeal:
      if (!heal(event.slot)) {
        executor.violation(event.describe() + ": slot " +
                           std::to_string(event.slot) + " is not partitioned");
      }
      return true;
    case FaultKind::kRebalance:
      rebalance(event, executor);
      return true;
    case FaultKind::kVerify:
      break;
  }
  return false;
}

std::size_t SimFleet::measured_max_branching() {
  std::size_t max_children = 0;
  for (std::size_t i = 0; i < cluster_.slot_count(); ++i) {
    if (!cluster_.is_live(i)) continue;
    for (const Id key : all_keys_) {
      max_children = std::max(max_children, cluster_.dat(i).child_count(key));
    }
  }
  return max_children;
}

void SimFleet::rebalance(const FaultEvent& event, Executor& executor) {
  if (!rebalancer_) {
    lb_port_ = std::make_unique<lb::SimClusterPort>(cluster_);
    lb::RebalancerOptions lb_options;
    lb_options.epoch_us = epoch_us_;
    rebalancer_ = std::make_unique<lb::Rebalancer>(
        *lb_port_, all_keys_, lb_options, &executor.metrics());
  }
  const std::string at = "t=" + std::to_string(event.at_us / 1000) + "ms ";
  const std::size_t slo = options_.rebalance.slo_max_branching;
  lb_.ran = true;
  lb_.epochs = 0;
  lb_.initial_max_branching = measured_max_branching();
  lb_.final_max_branching = lb_.initial_max_branching;
  lb_.converged = lb_.initial_max_branching <= slo;
  executor.note(at + "rebalance start branching=" +
                std::to_string(lb_.initial_max_branching) +
                " slo=" + std::to_string(slo));
  // One measured round per epoch: measure -> decide -> apply, then run the
  // cluster one push period so handoffs re-home and soft state expires
  // before the next measurement.
  while (!lb_.converged && lb_.epochs < options_.rebalance.slo_max_epochs) {
    const lb::RoundReport round = rebalancer_->run_round();
    lb_.migrations += round.migrations;
    lb_.sheds += round.sheds;
    cluster_.run_for(epoch_us_);
    ++lb_.epochs;
    lb_.final_max_branching = measured_max_branching();
    lb_.converged = lb_.final_max_branching <= slo;
    executor.note(at + "rebalance epoch=" + std::to_string(lb_.epochs) + " " +
                  round.to_string() + " -> branching=" +
                  std::to_string(lb_.final_max_branching));
  }
  executor.note(at + "rebalance " +
                (lb_.converged ? "converged" : "FAILED to converge") +
                " epochs=" + std::to_string(lb_.epochs) +
                " branching=" + std::to_string(lb_.final_max_branching));
  if (!lb_.converged) {
    executor.violation("rebalancer missed the branching SLO (" +
                       std::to_string(lb_.final_max_branching) + " > " +
                       std::to_string(slo) + " after " +
                       std::to_string(lb_.epochs) + " epochs)");
  }
}

Poll SimFleet::poll() {
  Poll p;
  p.live = cluster_.live_count();
  p.expected = p.live - partitioned_.size();
  const auto fail = [&p](std::string what, std::uint64_t window_us) {
    p.failing = std::move(what);
    p.window_us = window_us;
    return p;
  };
  // Structural invariants hold at any instant, partitions included.
  try {
    cluster_.assert_local_invariants();
  } catch (const std::logic_error& err) {
    return fail(std::string("invariants: ") + err.what(), 0);
  }
  const std::size_t probe_at = probe_slot();
  if (probe_at == slots()) return fail("no reachable live slot to probe", 0);
  // Ring convergence (and, in invariant-checking builds, the converged-tree
  // checks) is only a meaningful target when every live node is reachable.
  if (partitioned_.empty()) {
    try {
      if (!cluster_.converged()) return fail("ring: not converged",
                                             kConvergeWindowUs);
    } catch (const std::logic_error& err) {
      return fail(std::string("converged invariants: ") + err.what(), 0);
    }
  }

  // Recovery SLO: the widest fresh replica coverage must reach the
  // reachable population. A healed or re-parented ex-root can hold a stale
  // global with an inflated count; only values pushed within the last two
  // epochs count.
  core::DatNode& probe = cluster_.dat(probe_at);
  const std::uint64_t freshness = 2 * epoch_us_ + 100'000;
  unsigned roots = 0;
  for (const Id key : keys_) {
    // The callback must own its landing pad: a query towards a partitioned
    // root can outlive this probe's patience (retries keep the RPC pending),
    // and the late response would otherwise write to a dead stack frame.
    struct Pending {
      bool done = false;
      net::RpcStatus status = net::RpcStatus::kTimeout;
      std::optional<core::GlobalValue> value;
    };
    auto pending = std::make_shared<Pending>();
    probe.query_global(key, [pending](net::RpcStatus s,
                                      std::optional<core::GlobalValue> v) {
      pending->done = true;
      pending->status = s;
      pending->value = std::move(v);
    });
    const std::uint64_t deadline = cluster_.engine().now() + kProbeTimeoutUs;
    while (!pending->done && cluster_.engine().now() < deadline) {
      cluster_.run_for(10'000);
    }
    if (!pending->done || pending->status != net::RpcStatus::kOk ||
        !pending->value.has_value()) {
      continue;
    }
    ++roots;
    if (pending->value->updated_at_us + freshness >= cluster_.engine().now()) {
      p.observed = std::max(
          p.observed, static_cast<std::size_t>(pending->value->state.count));
    }
  }
  p.detail = " roots=" + std::to_string(roots);
  if (lb_.ran) {
    p.detail += " lb_epochs=" + std::to_string(lb_.epochs) +
                " lb_branching=" + std::to_string(lb_.final_max_branching);
  }
  const std::uint64_t recovery_window_us =
      options_.max_recovery_epochs * epoch_us_;
  if (roots == 0) {
    return fail("query: no replica root answered", recovery_window_us);
  }
  if (p.observed < p.expected) {
    return fail("coverage: widest fresh root counts " +
                    std::to_string(p.observed) + " of " +
                    std::to_string(p.expected),
                recovery_window_us);
  }

  // Self-monitoring SLO: the probe node's own coverage alert must agree
  // with ground truth — firing while the reachable population is short of
  // the configured fleet, clear once it is whole again.
  if (options_.check_selfmon) {
    const obs::SelfMonitor* monitor = cluster_.selfmon(probe_at);
    if (monitor == nullptr) {
      return fail("alerts: the probe slot has no SelfMonitor", 0);
    }
    const bool expect_firing = p.expected < monitor->options().fleet_size;
    p.alert_firing = monitor->alert_firing("coverage");
    if (*p.alert_firing != expect_firing) {
      return fail(std::string("alerts: coverage alert ") +
                      (expect_firing ? "clear, expected firing"
                                     : "firing, expected clear"),
                  options_.selfmon_max_epochs * monitor->options().epoch_us);
    }
  }
  return p;
}

}  // namespace dat::chaos
