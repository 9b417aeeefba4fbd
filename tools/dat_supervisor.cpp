// dat_supervisor — process-level chaos against a fleet of real datd
// daemons on loopback.
//
//   dat_supervisor --nodes 64 --seed 7                canonical kill plan
//   dat_supervisor --plan kills.txt --datd ./datd     scripted plan
//   dat_supervisor --nodes 16 --print-plan            show the timeline
//
// Forks one datd per slot (slot 0 bootstraps the ring, every other slot
// joins through it with retry + backoff), then runs the plan through the
// same chaos::Executor that dat_chaos runs against the simulator: crash =
// SIGKILL, leave = SIGTERM and a graceful drain (the exit code is asserted
// 0), sigabrt = SIGABRT plus an archived postmortem, restart = respawn with
// a bumped incarnation. At every verify point the executor polls the
// fleet's telemetry wire until ring re-convergence, replica coverage and
// exact aggregate conservation hold — or the SLO window expires.
//
// Exit codes: 0 all SLOs met, 1 violations, 2 bad usage, 130 interrupted.

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "chaos/executor.hpp"
#include "chaos/plan.hpp"
#include "common/cli.hpp"
#include "datd/process_fleet.hpp"
#include "datd/signals.hpp"

namespace {

/// Default datd path: next to this binary, the layout the build tree and
/// an installed tools/ directory both produce.
std::string sibling_datd(const char* argv0) {
  std::string self(argv0);
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return "./datd";
  return self.substr(0, slash + 1) + "datd";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dat;

  CliFlags flags;
  flags.flag("nodes", std::int64_t{64}, "fleet size (>= 8)")
      .flag("seed", std::int64_t{7}, "kill-plan seed")
      .flag("plan", std::string{},
            "path to a text plan spec (overrides --nodes/--seed)")
      .flag("campaign", std::string{"canonical"},
            "built-in plan: canonical | selfmon | rebalance-skew")
      .flag("base-port", std::int64_t{9400}, "slot i binds 127.0.0.1:port+i")
      .flag("datd", std::string{}, "datd binary (default: next to this one)")
      .flag("aggregate", std::string{"cpu-usage"}, "aggregate name")
      .flag("replicas", std::int64_t{2}, "replica trees per aggregate")
      .flag("epoch-ms", std::int64_t{150}, "daemon push period")
      .flag("drain-deadline-ms", std::int64_t{5000},
            "daemon SIGTERM hard deadline")
      .flag("boot-timeout-ms", std::int64_t{60000}, "fleet-up SLO")
      .flag("verify-window-ms", std::int64_t{15000},
            "per-verify recovery SLO window")
      .flag("poll-ms", std::int64_t{250}, "SLO poll period")
      .flag("report", std::string{}, "also write the report to this file")
      .flag("selfmon", true, "children run the telemetry self-monitor")
      .flag("selfmon-epoch-ms", std::int64_t{500},
            "children's self-monitoring epoch")
      .flag("check-alerts", false,
            "verify SLO: probe coverage alert firing iff slots are down "
            "(the selfmon campaign turns this on)")
      .flag("postmortem-dir", std::string{},
            "children dump crash postmortems here; the supervisor archives "
            "them after reaping a signalled child")
      .flag("print-plan", false, "print the timeline spec and exit")
      .flag("quiet", false, "suppress per-event report lines on stdout")
      .flag("help", false, "print flags and exit");
  if (!flags.parse(argc - 1, argv + 1)) {
    std::fprintf(stderr, "dat_supervisor: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.get_bool("help")) {
    std::fprintf(stderr, "dat_supervisor flags:\n%s", flags.usage().c_str());
    return 0;
  }

  try {
    const std::string campaign = flags.get_string("campaign");
    const chaos::ChaosPlan plan = chaos::ChaosPlan::load(
        flags.get_string("plan"), campaign,
        static_cast<std::uint64_t>(flags.get_int("seed")),
        static_cast<std::size_t>(flags.get_int("nodes")), /*processes=*/true);
    if (flags.get_bool("print-plan")) {
      std::fputs(plan.to_spec().c_str(), stdout);
      return 0;
    }

    datd::ProcessFleetOptions options;
    options.nodes = plan.nodes;
    options.base_port =
        static_cast<std::uint16_t>(flags.get_int("base-port"));
    options.datd_path = flags.get_string("datd");
    if (options.datd_path.empty()) options.datd_path = sibling_datd(argv[0]);
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    options.aggregate = flags.get_string("aggregate");
    options.replicas = static_cast<unsigned>(flags.get_int("replicas"));
    options.epoch_ms = static_cast<std::uint64_t>(flags.get_int("epoch-ms"));
    options.drain_deadline_ms =
        static_cast<std::uint64_t>(flags.get_int("drain-deadline-ms"));
    options.boot_timeout_ms =
        static_cast<std::uint64_t>(flags.get_int("boot-timeout-ms"));
    options.verify_window_ms =
        static_cast<std::uint64_t>(flags.get_int("verify-window-ms"));
    options.verify_poll_ms =
        static_cast<std::uint64_t>(flags.get_int("poll-ms"));
    options.selfmon = flags.get_bool("selfmon");
    options.selfmon_epoch_ms =
        static_cast<std::uint64_t>(flags.get_int("selfmon-epoch-ms"));
    options.check_alerts =
        flags.get_bool("check-alerts") || campaign == "selfmon";
    options.postmortem_dir = flags.get_string("postmortem-dir");

    datd::install_signal_guard();
    datd::ProcessFleet fleet(options);
    chaos::ExecutorOptions executor_options;
    executor_options.interrupted = [] { return datd::pending_signal() != 0; };
    executor_options.verbose = !flags.get_bool("quiet");
    chaos::Executor executor(fleet, plan, executor_options);
    const chaos::Report report = executor.run();

    const std::string report_path = flags.get_string("report");
    if (!report_path.empty()) {
      std::ofstream out(report_path, std::ios::trunc);
      for (const std::string& line : report.event_log) out << line << "\n";
    }
    return report.exit_code();
  } catch (const std::exception& err) {
    std::fprintf(stderr, "dat_supervisor: %s\n", err.what());
    return 2;
  }
}
