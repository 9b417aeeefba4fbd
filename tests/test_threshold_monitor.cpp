// The P-GMA threshold monitor (the "system diagnostics" consumer of the
// paper's Sec. 2.1: alert when the Grid-wide average load crosses a level)
// expressed as an SLO rule over a SelfMonitor series: every node publishes
// its load gauge into a kAvg meta-tree, and the probe node's rule fires and
// clears with epoch-counted hysteresis.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/sim_cluster.hpp"
#include "obs/selfmon.hpp"

namespace {

using namespace dat;

class ThresholdMonitorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 12;
  static constexpr std::uint64_t kEpochUs = 300'000;

  ThresholdMonitorTest() {
    harness::ClusterOptions options;
    options.seed = 7007;
    options.dat.epoch_us = 200'000;
    cluster_ = std::make_unique<harness::SimCluster>(kNodes, std::move(options));
    converged_ = cluster_->wait_converged(300'000'000);
    set_load(50);
  }

  /// Every node reports the same controllable load sample.
  void set_load(std::int64_t load) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      cluster_->node(i).telemetry().registry.gauge("app_load_pct").set(load);
    }
  }

  [[nodiscard]] obs::SelfMonitorOptions monitor_options() const {
    obs::SelfMonitorOptions options;
    options.epoch_us = kEpochUs;
    options.series = {{"load", "app_load_pct", core::AggregateKind::kAvg}};
    options.rules = obs::SloRuleset::parse(rule_);
    return options;
  }

  /// The diagnostics consumer on every node: one series, one rule.
  void start_monitors(std::string rule) {
    rule_ = std::move(rule);
    for (std::size_t i = 0; i < kNodes; ++i) {
      monitors_.push_back(
          std::make_unique<obs::SelfMonitor>(cluster_->dat(i), monitor_options()));
    }
  }

  /// Runs `us` one telemetry epoch at a time and counts the probe's
  /// clear -> firing transitions: one per excursion.
  void run_counting(std::uint64_t us) {
    for (std::uint64_t t = 0; t < us; t += kEpochUs) {
      cluster_->run_for(kEpochUs);
      const bool firing = alert().firing;
      if (firing && !was_firing_) ++fires_;
      was_firing_ = firing;
    }
  }

  [[nodiscard]] obs::Alert alert() const {
    return monitors_[probe_]->alerts().front();
  }

  std::unique_ptr<harness::SimCluster> cluster_;
  /// Declared after the cluster: destroyed first, while their nodes live.
  std::vector<std::unique_ptr<obs::SelfMonitor>> monitors_;
  std::string rule_;
  std::size_t probe_ = 2;
  unsigned fires_ = 0;
  bool was_firing_ = false;
  bool converged_ = false;
};

TEST_F(ThresholdMonitorTest, FiresOncePerExcursionWithHysteresis) {
  ASSERT_TRUE(converged_);
  start_monitors("load-high load avg < 90 fire 2 clear 3");
  run_counting(3'000'000);
  EXPECT_EQ(fires_, 0u);  // load 50 < 90
  EXPECT_DOUBLE_EQ(alert().value, 50.0);

  set_load(95);  // spike
  run_counting(6'000'000);
  EXPECT_EQ(fires_, 1u);
  EXPECT_TRUE(alert().firing);
  EXPECT_DOUBLE_EQ(alert().value, 95.0);

  // One noisy telemetry epoch back under the threshold must not flap the
  // alert: clearing takes three good epochs in a row.
  set_load(85);
  run_counting(kEpochUs);
  set_load(95);
  run_counting(3'000'000);
  EXPECT_EQ(fires_, 1u);
  EXPECT_TRUE(alert().firing);

  // Full recovery clears it; the next spike fires again.
  set_load(60);
  run_counting(6'000'000);
  EXPECT_FALSE(alert().firing);
  set_load(99);
  run_counting(6'000'000);
  EXPECT_EQ(fires_, 2u);
  EXPECT_TRUE(alert().firing);
}

TEST_F(ThresholdMonitorTest, BelowDirection) {
  ASSERT_TRUE(converged_);
  start_monitors("load-low load avg > 20 fire 2 clear 2");
  run_counting(3'000'000);
  EXPECT_EQ(fires_, 0u);
  set_load(10);  // dip below
  run_counting(6'000'000);
  EXPECT_EQ(fires_, 1u);
  EXPECT_DOUBLE_EQ(alert().value, 10.0);
}

TEST_F(ThresholdMonitorTest, StopHaltsPolling) {
  ASSERT_TRUE(converged_);
  start_monitors("load-high load avg < 90 fire 2 clear 2");
  probe_ = 1;
  run_counting(2'000'000);
  const auto ticks = [this] {
    return cluster_->node(probe_).telemetry().registry.snapshot().value_or_zero(
        "dat_selfmon_ticks_total");
  };
  // Destroying the probe's monitor cancels its timer: no more root polls.
  monitors_[probe_].reset();
  const double stopped_at = ticks();
  set_load(100);
  cluster_->run_for(6'000'000);
  EXPECT_EQ(ticks(), stopped_at);
  // A new monitor on the same node picks the excursion up.
  monitors_[probe_] =
      std::make_unique<obs::SelfMonitor>(cluster_->dat(probe_), monitor_options());
  run_counting(4'000'000);
  EXPECT_GT(ticks(), stopped_at);
  EXPECT_EQ(fires_, 1u);
}

TEST_F(ThresholdMonitorTest, Validation) {
  const auto parse = [](const std::string& text) {
    return obs::SloRuleset::parse(text);
  };
  EXPECT_THROW(parse("load-high load avg < 90 fire 0"), std::invalid_argument);
  EXPECT_THROW(parse("load-high load avg < 90 clear 0"),
               std::invalid_argument);
  EXPECT_THROW(parse("load-high load avg < 90 linger 2"),
               std::invalid_argument);
  EXPECT_THROW(parse("load-high load mean < 90"), std::invalid_argument);
  EXPECT_THROW(parse("load-high load avg << 90"), std::invalid_argument);
  EXPECT_THROW(parse("load-high load avg < ninety"), std::invalid_argument);
  EXPECT_THROW(parse("load-high load avg"), std::invalid_argument);
  const obs::SloRuleset ok = parse("load-high load avg < 90 fire 2 clear 3");
  ASSERT_EQ(ok.rules.size(), 1u);
  EXPECT_EQ(ok.rules[0].fire_epochs, 2u);
  EXPECT_EQ(ok.rules[0].clear_epochs, 3u);
}

}  // namespace
