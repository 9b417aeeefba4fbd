// Alerting + fault tolerance, the "system diagnostics" consumer the paper's
// introduction motivates: a 64-node Grid aggregates its load through THREE
// replicated balanced-DAT trees; every node's self-monitor also publishes
// its load gauge into an average meta-tree, and an SLO rule on node 0
// raises an alert when a load storm pushes the Grid-wide average over 85 %
// (two bad epochs to fire, two good ones to clear). The replicated query
// keeps answering through a root crash.
//
// Run: ./build/examples/alerting

#include <cstdio>
#include <memory>
#include <vector>

#include "dat/replicated.hpp"
#include "harness/sim_cluster.hpp"
#include "obs/selfmon.hpp"

int main() {
  using namespace dat;
  constexpr std::size_t kNodes = 64;

  harness::ClusterOptions options;
  options.seed = 99;
  options.dat.epoch_us = 500'000;
  options.with_selfmon = true;
  options.selfmon.epoch_us = 1'000'000;
  options.selfmon.series = {{"load", "app_load_pct", core::AggregateKind::kAvg}};
  options.selfmon.rules =
      obs::SloRuleset::parse("load-high load avg < 85 fire 2 clear 2");
  std::printf("bootstrapping %zu-node overlay...\n", kNodes);
  harness::SimCluster cluster(kNodes, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }

  // Shared, controllable load signal (a real deployment reads /proc); each
  // node also exports it as a gauge its self-monitor publishes.
  double base_load = 40.0;
  const auto set_load = [&](double load) {
    base_load = load;
    for (std::size_t i = 0; i < kNodes; ++i) {
      cluster.node(i).telemetry().registry.gauge("app_load_pct").set(
          static_cast<std::int64_t>(load));
    }
  };
  set_load(base_load);
  std::vector<std::unique_ptr<core::ReplicatedAggregate>> replicas;
  for (std::size_t i = 0; i < kNodes; ++i) {
    replicas.push_back(std::make_unique<core::ReplicatedAggregate>(
        cluster.dat(i), "cpu-usage", /*replicas=*/3,
        core::AggregateKind::kAvg, chord::RoutingScheme::kBalanced));
    const double jitter = static_cast<double>(i % 7) - 3.0;
    replicas.back()->start([&base_load, jitter]() {
      return base_load + jitter;
    });
  }
  cluster.run_for(8'000'000);

  // Node 0 watches its own rule once per telemetry epoch and reports each
  // clear -> firing transition: one alert per excursion.
  const obs::SelfMonitor& monitor = *cluster.selfmon(0);
  unsigned alerts_fired = 0;
  bool was_firing = false;
  const auto watch = [&](int seconds) {
    for (int s = 0; s < seconds; ++s) {
      cluster.run_for(1'000'000);
      const obs::Alert alert = monitor.alerts().front();
      if (alert.firing && !was_firing) {
        ++alerts_fired;
        std::printf("[t=%6.1fs]  ALERT: grid avg load %.1f%%\n",
                    cluster.engine().now() / 1e6, alert.value);
      }
      was_firing = alert.firing;
    }
  };

  std::printf("\nphase 1: normal load (%.0f%%), no alerts expected\n",
              base_load);
  watch(10);

  std::printf("phase 2: load storm begins\n");
  set_load(95.0);
  watch(10);

  std::printf("phase 3: storm eases to 80%% (under the level: alert clears)\n");
  set_load(80.0);
  watch(10);

  std::printf("phase 4: recovery to 50%%\n");
  set_load(50.0);
  watch(10);

  std::printf("phase 5: second storm\n");
  set_load(92.0);
  watch(10);
  std::printf("alerts fired: %u (expected 2: one per storm)\n\n",
              alerts_fired);

  // Fault tolerance: crash the root of replica tree 0, query immediately.
  const Id victim_root =
      cluster.ring_view().successor(replicas[0]->keys()[0]);
  std::size_t victim_slot = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (cluster.node(i).id() == victim_root) victim_slot = i;
  }
  std::printf("crashing the root of replica tree 0 (node %llu)...\n",
              static_cast<unsigned long long>(victim_root));
  replicas[victim_slot].reset();
  cluster.remove_node(victim_slot, /*graceful=*/false);
  cluster.refresh_d0_hints();

  const std::size_t reader = victim_slot == 0 ? 1 : 0;
  bool done = false;
  replicas[reader]->query([&](core::ReplicatedAggregate::Result result) {
    done = true;
    if (!result.best) {
      std::printf("replicated query found no root!\n");
      return;
    }
    std::printf("replicated query: %u/3 roots answered; best coverage %llu "
                "hosts, avg %.1f%%\n",
                result.roots_answered,
                static_cast<unsigned long long>(result.best->state.count),
                result.best->state.result(core::AggregateKind::kAvg));
  });
  const auto deadline = cluster.engine().now() + 30'000'000;
  while (!done && cluster.engine().now() < deadline) {
    cluster.engine().run_steps(256);
  }
  replicas.clear();
  return 0;
}
