// Chaos campaigns: scripted fault timelines, plan parsing, and the shared
// executor run deterministically against a simulated fleet.

#include "chaos/executor.hpp"
#include "chaos/plan.hpp"
#include "chaos/sim_fleet.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/sim_cluster.hpp"

namespace {

using namespace dat;
using namespace dat::chaos;

TEST(ChaosPlanTest, BuildersAndPhaseCount) {
  ChaosPlan plan;
  plan.crash(2'000'000, 3)
      .verify(4'000'000)
      .restart(5'000'000, 3)
      .verify(7'000'000)
      .loss_burst(1'000'000, 0.2, 500'000);
  EXPECT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.phases(), 2u);
  plan.sort_events();
  EXPECT_EQ(plan.events.front().kind, FaultKind::kLossBurst);
  EXPECT_EQ(plan.events.back().kind, FaultKind::kVerify);
}

TEST(ChaosPlanTest, SpecRoundTrip) {
  const ChaosPlan plan = ChaosPlan::canonical(7, 16);
  const ChaosPlan reparsed = ChaosPlan::parse(plan.to_spec());
  EXPECT_EQ(reparsed.seed, plan.seed);
  EXPECT_EQ(reparsed.nodes, plan.nodes);
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].at_us, plan.events[i].at_us);
    EXPECT_EQ(reparsed.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(reparsed.events[i].slot, plan.events[i].slot);
    EXPECT_DOUBLE_EQ(reparsed.events[i].magnitude, plan.events[i].magnitude);
    EXPECT_EQ(reparsed.events[i].duration_us, plan.events[i].duration_us);
  }
}

TEST(ChaosPlanTest, ParseAcceptsCommentsAndHeaders) {
  const ChaosPlan plan = ChaosPlan::parse(
      "# a commented plan\n"
      "seed 99\n"
      "nodes 8\n"
      "\n"
      "1000 crash 2\n"
      "2000 loss 0.25 500\n"
      "3000 latency 4.0 250\n"
      "4000 verify\n");
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_EQ(plan.nodes, 8u);
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].at_us, 1'000'000u);
  EXPECT_EQ(plan.events[1].magnitude, 0.25);
  EXPECT_EQ(plan.events[1].duration_us, 500'000u);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kVerify);
}

TEST(ChaosPlanTest, ParseRejectsGarbage) {
  EXPECT_THROW(ChaosPlan::parse("frobnicate 3"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 crash"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 sabotage 2"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 loss 0.5"), std::invalid_argument);
  // One verb per behaviour on every fleet: sigkill and sigterm are not
  // verbs (crash and leave are), and a plan names no fleet mode.
  EXPECT_THROW(ChaosPlan::parse("1000 sigkill 2"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 sigterm 2"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("mode process\n"), std::invalid_argument);
}

TEST(ChaosPlanTest, ParseRejectsTimesThatOverflowOrCarryASign) {
  // 18446744073709552 ms is just past UINT64_MAX microseconds: it used to
  // wrap to t=0.
  EXPECT_THROW(ChaosPlan::parse("18446744073709552 verify\n"),
               std::invalid_argument);
  EXPECT_EQ(ChaosPlan::parse("18446744073709551 verify\n").events.at(0).at_us,
            18'446'744'073'709'551'000u);
  EXPECT_THROW(ChaosPlan::parse("1000 loss 0.1 18446744073709552\n"),
               std::invalid_argument);
  // Signs and trailing junk in unsigned fields.
  EXPECT_THROW(ChaosPlan::parse("-5 verify\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("+5 verify\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000ms verify\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 crash -1\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 loss 0.1 -500\n"),
               std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("seed -3\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes -8\n"), std::invalid_argument);
}

TEST(ChaosPlanTest, ParseRejectsBurstMagnitudesTheFabricWouldRefuse) {
  // Loss is a probability in [0, 1).
  EXPECT_THROW(ChaosPlan::parse("1000 loss 1.5 500\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 loss 1 500\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 loss -0.1 500\n"),
               std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 loss nan 500\n"), std::invalid_argument);
  // The latency multiplier is finite and not negative.
  EXPECT_THROW(ChaosPlan::parse("1000 latency -2 500\n"),
               std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 latency inf 500\n"),
               std::invalid_argument);
  // The edges that are allowed.
  const ChaosPlan plan =
      ChaosPlan::parse("1000 loss 0 500\n2000 latency 0 500\n");
  EXPECT_EQ(plan.events.size(), 2u);
}

TEST(ChaosPlanTest, LoadReadsAFileOrABuiltInCampaign) {
  EXPECT_EQ(ChaosPlan::load("", "canonical", 7, 16, false).to_spec(),
            ChaosPlan::canonical(7, 16).to_spec());
  EXPECT_EQ(ChaosPlan::load("", "canonical", 7, 16, true).to_spec(),
            ChaosPlan::process_canonical(7, 16).to_spec());
  EXPECT_EQ(ChaosPlan::load("", "selfmon", 7, 16, true).to_spec(),
            ChaosPlan::process_selfmon(7, 16).to_spec());
  EXPECT_TRUE(ChaosPlan::load("", "rebalance-skew", 7, 16, false).random_ids);
  EXPECT_THROW((void)ChaosPlan::load("", "voodoo", 7, 16, false),
               std::invalid_argument);
  EXPECT_THROW((void)ChaosPlan::load("/nonexistent/plan.txt", "canonical", 7,
                                     16, false),
               std::invalid_argument);
}

TEST(ChaosPlanTest, ParseRejectsMalformedPhaseLines) {
  // Header lines with missing or non-numeric operands.
  EXPECT_THROW(ChaosPlan::parse("seed banana\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("seed\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes eight\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes 0\n"), std::invalid_argument);
  // Event lines with bad timestamps, verbs, or magnitudes.
  EXPECT_THROW(ChaosPlan::parse("soon crash 1\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 loss lots 500\n"),
               std::invalid_argument);
  // Assignment mode must be one of the two known spellings.
  EXPECT_THROW(ChaosPlan::parse("assign\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("assign chaotic\n"), std::invalid_argument);
}

TEST(ChaosPlanTest, ParseRejectsDuplicateHeaderLines) {
  EXPECT_THROW(ChaosPlan::parse("seed 1\nseed 2\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes 8\nnodes 9\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("assign random\nassign probed\n"),
               std::invalid_argument);
  // One of each is fine, in any order relative to events.
  const ChaosPlan plan =
      ChaosPlan::parse("assign random\nseed 3\nnodes 8\n1000 verify\n");
  EXPECT_TRUE(plan.random_ids);
  EXPECT_EQ(plan.seed, 3u);
}

TEST(ChaosPlanTest, ParseRejectsOutOfRangeVictims) {
  // Slot == node count is one past the last valid victim.
  EXPECT_THROW(ChaosPlan::parse("nodes 8\n1000 crash 8\n"),
               std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes 8\n1000 leave 12\n"),
               std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes 8\n1000 partition 9 500\n"),
               std::invalid_argument);
  // The check runs after the whole spec is read, so a late nodes line
  // still bounds earlier events.
  EXPECT_THROW(ChaosPlan::parse("1000 crash 8\nnodes 8\n"),
               std::invalid_argument);
  // The last valid slot is accepted.
  const ChaosPlan plan = ChaosPlan::parse("nodes 8\n1000 crash 7\n");
  EXPECT_EQ(plan.events.at(0).slot, 7u);
}

TEST(ChaosPlanTest, RebalanceSkewRoundTripsAndValidates) {
  const ChaosPlan plan = ChaosPlan::rebalance_skew(7, 24);
  EXPECT_TRUE(plan.random_ids);
  EXPECT_EQ(plan.phases(), 2u);
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kRebalance);

  // The spec round-trips byte-identically, including the assign line.
  const std::string spec = plan.to_spec();
  const ChaosPlan reparsed = ChaosPlan::parse(spec);
  EXPECT_EQ(reparsed.to_spec(), spec);
  EXPECT_TRUE(reparsed.random_ids);

  // Legacy plans without an assign line keep round-tripping without one.
  const std::string legacy = ChaosPlan::canonical(7, 16).to_spec();
  EXPECT_EQ(legacy.find("assign"), std::string::npos);
  EXPECT_EQ(ChaosPlan::parse(legacy).to_spec(), legacy);

  // Too small to host the skewed workload.
  EXPECT_THROW(ChaosPlan::rebalance_skew(1, 4), std::invalid_argument);
}

TEST(ChaosPlanTest, CanonicalIsAPureFunctionOfSeed) {
  const ChaosPlan a = ChaosPlan::canonical(7, 16);
  const ChaosPlan b = ChaosPlan::canonical(7, 16);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].describe(), b.events[i].describe());
  }
  EXPECT_GE(a.phases(), 5u);  // crash, leave, loss, partition+heal, latency
  EXPECT_THROW(ChaosPlan::canonical(1, 2), std::invalid_argument);
}

harness::ClusterOptions small_cluster(std::uint64_t seed) {
  harness::ClusterOptions options;
  options.seed = seed;
  options.dat.epoch_us = 200'000;
  return options;
}

SimFleetOptions quick_fleet() {
  SimFleetOptions options;
  options.quiesce_us = 1'500'000;
  return options;
}

Report run_canonical_campaign(std::uint64_t seed, std::size_t nodes,
                              net::RpcStats* rpc = nullptr) {
  harness::SimCluster cluster(nodes, small_cluster(seed));
  SimFleet fleet(cluster, quick_fleet());
  Report report = Executor(fleet, ChaosPlan::canonical(seed, nodes)).run();
  if (rpc != nullptr) *rpc = fleet.rpc_stats();
  return report;
}

TEST(ChaosCampaignTest, CanonicalPlanMeetsRecoverySlos) {
  net::RpcStats rpc;
  const Report report = run_canonical_campaign(7, 10, &rpc);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << "violation: " << violation;
  }
  ASSERT_EQ(report.phases.size(), ChaosPlan::canonical(7, 10).phases());
  for (const PhaseReport& phase : report.phases) {
    EXPECT_TRUE(phase.ok()) << phase.describe() << ": " << phase.last.failing;
    EXPECT_GE(phase.last.observed, phase.last.expected);
    EXPECT_GE(phase.polls, 1u);
  }
  EXPECT_EQ(report.exit_code(), 0);
  // The RPC layer was actually exercised, including retries.
  EXPECT_GT(rpc.calls, 0u);
}

TEST(ChaosCampaignTest, SameSeedProducesIdenticalEventLogs) {
  const Report first = run_canonical_campaign(7, 10);
  const Report second = run_canonical_campaign(7, 10);
  ASSERT_EQ(first.event_log.size(), second.event_log.size());
  for (std::size_t i = 0; i < first.event_log.size(); ++i) {
    EXPECT_EQ(first.event_log[i], second.event_log[i]) << "line " << i;
  }
}

TEST(ChaosCampaignTest, ScriptedPlanRunsCrashRestartCycle) {
  harness::SimCluster cluster(8, small_cluster(5));
  const ChaosPlan plan = ChaosPlan::parse(
      "seed 5\n"
      "nodes 8\n"
      "1000 crash 4\n"
      "3000 verify\n"
      "4000 restart 4\n"
      "6000 verify\n");
  SimFleet fleet(cluster, quick_fleet());
  Executor executor(fleet, plan);
  const Report report = executor.run();
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.phases[0].last.expected, 7u);
  EXPECT_EQ(report.phases[1].last.expected, 8u);
  // Coverage is a lower-bound SLO: soft-state re-parenting can transiently
  // double-count a subtree until the stale child entry ages out of its TTL.
  EXPECT_GE(report.phases[1].last.observed, 8u);
  EXPECT_TRUE(cluster.is_live(4));

  // An executor runs once.
  EXPECT_THROW(executor.run(), std::logic_error);
}

TEST(ChaosCampaignTest, RejectsZeroReplicas) {
  harness::SimCluster cluster(4, small_cluster(5));
  SimFleetOptions options;
  options.replicas = 0;
  EXPECT_THROW(SimFleet(cluster, options), std::invalid_argument);
}

TEST(ChaosCampaignTest, PlanMustMatchTheFleetSize) {
  harness::SimCluster cluster(4, small_cluster(5));
  SimFleet fleet(cluster, quick_fleet());
  EXPECT_THROW(Executor(fleet, ChaosPlan::canonical(5, 8)),
               std::invalid_argument);
}

// The same rule for impossible targets on every fleet: a verify with no
// live slot and a fault aimed at a dead slot are recorded violations, not
// crashes or silent no-ops.
TEST(ChaosCampaignTest, ImpossibleTargetsAreRecordedViolations) {
  harness::SimCluster cluster(4, small_cluster(9));
  const ChaosPlan plan = ChaosPlan::parse(
      "seed 9\n"
      "nodes 4\n"
      "1000 crash 0\n"
      "1000 crash 1\n"
      "1000 crash 2\n"
      "1000 crash 3\n"
      "2000 verify\n"
      "3000 crash 2\n"
      "3000 partition 1\n");
  SimFleet fleet(cluster, quick_fleet());
  const Report report = Executor(fleet, plan).run();
  EXPECT_EQ(cluster.live_count(), 0u);
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_FALSE(report.phases[0].ok());
  EXPECT_EQ(report.phases[0].polls, 0u);
  ASSERT_EQ(report.violations.size(), 3u);
  EXPECT_NE(report.violations[0].find("no live slot"), std::string::npos);
  EXPECT_NE(report.violations[1].find("crash slot=2"), std::string::npos);
  EXPECT_NE(report.violations[1].find("is not live"), std::string::npos);
  EXPECT_NE(report.violations[2].find("partition slot=1"), std::string::npos);
  EXPECT_EQ(report.exit_code(), 1);
}

TEST(ChaosCampaignTest, RestartOfALiveSlotIsAViolation) {
  harness::SimCluster cluster(4, small_cluster(9));
  const ChaosPlan plan = ChaosPlan::parse("nodes 4\n1000 restart 2\n");
  SimFleet fleet(cluster, quick_fleet());
  const Report report = Executor(fleet, plan).run();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("is already live"), std::string::npos);
  EXPECT_TRUE(cluster.is_live(2));
}

TEST(ChaosCampaignTest, InterruptStopsBeforeTheNextEvent) {
  harness::SimCluster cluster(4, small_cluster(9));
  SimFleet fleet(cluster, quick_fleet());
  ExecutorOptions options;
  options.interrupted = [] { return true; };
  const Report report =
      Executor(fleet, ChaosPlan::canonical(9, 4), options).run();
  EXPECT_TRUE(report.interrupted);
  EXPECT_TRUE(report.phases.empty());
  EXPECT_EQ(report.exit_code(), 130);
  EXPECT_EQ(cluster.live_count(), 4u);
}

}  // namespace
