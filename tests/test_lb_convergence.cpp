// The headline rebalancing SLO: a cluster deployed with random identifiers
// (unbalanced trees) under a seeded 90/10-skewed workload must re-converge
// to max DAT branching <= 4 within 20 epochs of the rebalancer activating —
// asserted on both the virtual-time SimCluster (through the rebalance-skew
// chaos campaign on a SimFleet) and the real-socket UdpCluster (driving the Rebalancer
// directly).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chaos/executor.hpp"
#include "chaos/plan.hpp"
#include "chaos/sim_fleet.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/udp_cluster.hpp"
#include "lb/ports.hpp"
#include "lb/rebalancer.hpp"

namespace {

using namespace dat;

TEST(RebalanceSkewCampaignTest, SimClusterMeetsTheBranchingSlo) {
  const chaos::ChaosPlan plan = chaos::ChaosPlan::rebalance_skew(7, 24);
  ASSERT_TRUE(plan.random_ids);

  harness::ClusterOptions cluster_options;
  cluster_options.seed = plan.seed;
  cluster_options.dat.epoch_us = 200'000;
  cluster_options.node.probing_join = !plan.random_ids;
  harness::SimCluster cluster(plan.nodes, std::move(cluster_options));

  chaos::SimFleetOptions options;
  options.quiesce_us = 1'500'000;
  options.rebalance.hot_aggregates = 2;  // 2 hot + 3 cold trees: ~90/10 skew
  options.rebalance.slo_max_branching = 4;
  options.rebalance.slo_max_epochs = 20;
  chaos::SimFleet fleet(cluster, options);
  chaos::Executor executor(fleet, plan);
  const chaos::Report report = executor.run();

  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << "violation: " << violation;
  }
  ASSERT_EQ(report.phases.size(), 2u);
  // Phase 1 (before the rebalancer): the skewed deployment still meets the
  // ordinary recovery SLOs. Phase 2 follows the rebalance event: the
  // repaired deployment meets them too, and the rebalancer met the
  // branching SLO (a miss would be a recorded violation).
  EXPECT_TRUE(report.phases[0].ok());
  EXPECT_TRUE(report.phases[1].ok());
  EXPECT_TRUE(report.ok());

  const chaos::SimFleet::LbSummary& lb = fleet.lb_summary();
  ASSERT_TRUE(lb.ran);
  EXPECT_TRUE(lb.converged);
  EXPECT_LE(lb.epochs, 20u);
  // Random ids at n=24 must have deployed genuinely unbalanced trees, or
  // the campaign proved nothing.
  EXPECT_GT(lb.initial_max_branching, 4u);
  EXPECT_LE(lb.final_max_branching, 4u);
  EXPECT_GT(lb.migrations + lb.sheds, 0u);

  // The executor registry carries the dat_lb_* series.
  const obs::MetricsSnapshot snap = executor.metrics().snapshot();
  EXPECT_GT(snap.value_or_zero("dat_lb_rounds_total"), 0.0);
}

TEST(RebalanceSkewCampaignTest, SameSeedProducesIdenticalEventLogs) {
  const auto run_once = [] {
    const chaos::ChaosPlan plan = chaos::ChaosPlan::rebalance_skew(7, 16);
    harness::ClusterOptions cluster_options;
    cluster_options.seed = plan.seed;
    cluster_options.dat.epoch_us = 200'000;
    cluster_options.node.probing_join = !plan.random_ids;
    harness::SimCluster cluster(plan.nodes, std::move(cluster_options));
    chaos::SimFleetOptions options;
    options.quiesce_us = 1'500'000;
    options.rebalance.hot_aggregates = 2;
    chaos::SimFleet fleet(cluster, options);
    return chaos::Executor(fleet, plan).run();
  };
  const chaos::Report first = run_once();
  const chaos::Report second = run_once();
  ASSERT_EQ(first.event_log.size(), second.event_log.size());
  for (std::size_t i = 0; i < first.event_log.size(); ++i) {
    EXPECT_EQ(first.event_log[i], second.event_log[i]) << "line " << i;
  }
}

TEST(RebalanceSkewCampaignTest, UdpClusterMeetsTheBranchingSlo) {
  constexpr std::size_t kNodes = 10;
  constexpr std::uint64_t kEpochUs = 200'000;

  harness::UdpClusterOptions options;
  options.seed = 7;
  options.dat.epoch_us = kEpochUs;
  options.node.probing_join = false;  // deploy unbalanced on purpose
  harness::UdpCluster cluster(kNodes, options);
  ASSERT_TRUE(cluster.wait_converged());

  // 90/10 skew: two hot trees pushing 10x faster than the two cold ones.
  std::vector<Id> keys;
  const auto local = [](std::size_t slot) -> core::DatNode::LocalValueFn {
    return [slot] { return static_cast<double>(slot + 1); };
  };
  for (int i = 0; i < 2; ++i) {
    keys.push_back(cluster.start_aggregate_everywhere(
        "cpu#" + std::to_string(i), core::AggregateKind::kSum,
        chord::RoutingScheme::kBalanced, local));
  }
  for (int i = 0; i < 2; ++i) {
    keys.push_back(cluster.start_aggregate_everywhere(
        "cpu-hot#" + std::to_string(i), core::AggregateKind::kSum,
        chord::RoutingScheme::kBalanced, local, kEpochUs / 10));
  }
  cluster.run_for(4 * kEpochUs);  // let the trees form

  lb::UdpClusterPort port(cluster);
  lb::RebalancerOptions lb_options;
  lb_options.epoch_us = kEpochUs;
  lb::Rebalancer rebalancer(port, keys, lb_options);

  std::size_t branching = ~std::size_t{0};
  const auto measure = [&] {
    std::size_t max_children = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (!cluster.is_live(i)) continue;
      for (const Id key : keys) {
        max_children = std::max(max_children, cluster.dat(i).child_count(key));
      }
    }
    return max_children;
  };

  for (unsigned epoch = 0; epoch < 20; ++epoch) {
    rebalancer.run_round();
    cluster.run_for(kEpochUs);
    branching = measure();
    if (branching <= 4) break;
  }
  EXPECT_LE(branching, 4u)
      << "UDP cluster missed the branching SLO within 20 epochs";
  EXPECT_FALSE(rebalancer.history().empty());
}

}  // namespace
