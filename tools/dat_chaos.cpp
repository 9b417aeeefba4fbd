// dat_chaos: deterministic chaos campaigns against a simulated DAT cluster.
//
// Runs a scripted fault timeline (crash, drain-and-leave, restart/rejoin,
// loss bursts, latency spikes, partition/heal, rebalance) against a
// SimCluster through the same chaos::Executor that dat_supervisor runs
// against real daemons, and verifies recovery after every settle window:
// structural invariants, ring convergence, coverage within a bounded number
// of epochs, replica query availability and, for the selfmon campaign, the
// coverage alert. Everything is seeded, so two runs with the same seed
// produce bit-identical event logs — which the CI soak job asserts.
//
//   dat_chaos --nodes 16 --seed 7 --print-events
//   dat_chaos --plan myplan.txt --replicas 3
//   dat_chaos --campaign rebalance-skew --nodes 24 --seed 7

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "chaos/executor.hpp"
#include "chaos/plan.hpp"
#include "chaos/sim_fleet.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "datd/signals.hpp"
#include "obs/export.hpp"

namespace {

int run_campaign(const dat::CliFlags& flags) {
  using namespace dat;

  const std::string plan_path = flags.get_string("plan");
  const std::string campaign_name = flags.get_string("campaign");
  const chaos::ChaosPlan plan = chaos::ChaosPlan::load(
      plan_path, campaign_name,
      static_cast<std::uint64_t>(flags.get_int("seed")),
      static_cast<std::size_t>(flags.get_int("nodes")), /*processes=*/false);

  harness::ClusterOptions cluster_options;
  cluster_options.seed = plan.seed;
  cluster_options.with_dat = true;
  // Plans can demand an unbalanced deployment (random ids instead of
  // identifier probing) — the shape the rebalance event then repairs.
  cluster_options.node.probing_join = !plan.random_ids;
  // The selfmon campaign asserts the self-monitoring SLO: every node hosts
  // a SelfMonitor, and each verify phase also polls the probe node's
  // coverage alert until it reaches the state the ground truth implies.
  const bool selfmon_campaign =
      plan_path.empty() && campaign_name == "selfmon";
  cluster_options.with_selfmon = selfmon_campaign;
  harness::SimCluster cluster(plan.nodes, std::move(cluster_options));

  chaos::SimFleetOptions options;
  options.replicas = static_cast<unsigned>(flags.get_int("replicas"));
  options.quiesce_us =
      static_cast<std::uint64_t>(flags.get_int("quiesce-ms")) * 1000;
  options.max_recovery_epochs =
      static_cast<unsigned>(flags.get_int("max-epochs"));
  // The skewed workload only matters to plans that actually rebalance;
  // keeping it off elsewhere leaves the canonical soak untouched.
  const bool has_rebalance = std::any_of(
      plan.events.begin(), plan.events.end(), [](const chaos::FaultEvent& e) {
        return e.kind == chaos::FaultKind::kRebalance;
      });
  if (has_rebalance) {
    options.rebalance.hot_aggregates =
        static_cast<unsigned>(flags.get_int("hot-keys"));
  }
  options.rebalance.slo_max_branching =
      static_cast<std::size_t>(flags.get_int("slo-branching"));
  options.rebalance.slo_max_epochs =
      static_cast<unsigned>(flags.get_int("slo-epochs"));
  options.check_selfmon = selfmon_campaign;
  chaos::SimFleet fleet(cluster, options);

  // ^C abandons the plan between events; the metrics flush and the summary
  // below still run on whatever completed, and the exit code becomes 130.
  chaos::ExecutorOptions executor_options;
  executor_options.interrupted = [] { return datd::pending_signal() != 0; };
  chaos::Executor executor(fleet, plan, executor_options);
  const chaos::Report report = executor.run();

  const std::string metrics_path = flags.get_string("metrics-out");
  if (!metrics_path.empty()) {
    // Executor-level recovery metrics (phase timings, fault counts) merged
    // with the cluster-wide per-node roll-up, as one JSON document.
    obs::MetricsSnapshot snap =
        executor.metrics().snapshot().with_label("node", "campaign");
    snap.merge(cluster.telemetry_snapshot());
    std::ofstream out(metrics_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "dat_chaos: cannot open %s\n", metrics_path.c_str());
      return 2;
    }
    out << obs::to_json(snap);
  }

  if (flags.get_bool("print-events")) {
    for (const std::string& line : report.event_log) {
      std::printf("%s\n", line.c_str());
    }
  } else {
    for (const chaos::PhaseReport& p : report.phases) {
      std::printf("%s\n", p.describe().c_str());
    }
  }

  const chaos::SimFleet::LbSummary& lb = fleet.lb_summary();
  if (lb.ran) {
    std::printf("\nrebalancer: %s in %u epochs, branching %zu -> %zu, "
                "%zu migrations, %zu sheds\n",
                lb.converged ? "converged" : "did NOT converge", lb.epochs,
                lb.initial_max_branching, lb.final_max_branching,
                lb.migrations, lb.sheds);
  }

  const net::RpcStats rpc = fleet.rpc_stats();
  std::printf("\nrpc totals (live nodes): calls=%llu attempts=%llu "
              "retransmits=%llu timeouts=%llu backoff=%llums\n",
              static_cast<unsigned long long>(rpc.calls),
              static_cast<unsigned long long>(rpc.attempts),
              static_cast<unsigned long long>(rpc.retransmits),
              static_cast<unsigned long long>(rpc.timeouts),
              static_cast<unsigned long long>(rpc.backoff_wait_us / 1000));

  for (const std::string& violation : report.violations) {
    std::fprintf(stderr, "violation: %s\n", violation.c_str());
  }
  const auto phases_ok = std::count_if(
      report.phases.begin(), report.phases.end(),
      [](const chaos::PhaseReport& p) { return p.ok(); });
  std::printf("\ncampaign %s: %zu/%zu phases ok\n",
              report.interrupted ? "INTERRUPTED"
                                 : (report.ok() ? "PASSED" : "FAILED"),
              static_cast<std::size_t>(phases_ok), report.phases.size());
  return report.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  dat::CliFlags flags;
  flags.flag("nodes", std::int64_t{16}, "cluster size for the canonical plan")
      .flag("seed", std::int64_t{7}, "campaign seed (canonical plan)")
      .flag("plan", std::string{},
            "path to a text plan spec (overrides --nodes/--seed)")
      .flag("campaign", std::string{"canonical"},
            "built-in campaign: canonical | rebalance-skew | selfmon")
      .flag("hot-keys", std::int64_t{2},
            "extra hot trees pushed 10x faster (workload skew)")
      .flag("slo-branching", std::int64_t{4},
            "rebalance SLO: max branching to re-converge to")
      .flag("slo-epochs", std::int64_t{20},
            "rebalance SLO: epoch budget after activation")
      .flag("replicas", std::int64_t{3}, "replica trees for the aggregate")
      .flag("quiesce-ms", std::int64_t{2000},
            "settle window before each verification")
      .flag("max-epochs", std::int64_t{10},
            "recovery SLO: epochs allowed until coverage re-converges")
      .flag("print-events", false, "print the deterministic event log")
      .flag("metrics-out", std::string{},
            "write campaign + cluster telemetry JSON to this path")
      .flag("verbose", false, "chaos events to stderr as they happen");

  if (!flags.parse(argc - 1, argv + 1)) {
    std::fprintf(stderr, "dat_chaos: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.get_bool("verbose")) {
    dat::Logger::instance().set_level(dat::LogLevel::kInfo);
  }
  dat::datd::install_signal_guard();
  try {
    return run_campaign(flags);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "dat_chaos: %s\n", err.what());
    return 2;
  }
}
