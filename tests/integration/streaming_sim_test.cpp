// Integration tests of the full streaming pipeline (paper Figures 8 and 9).
// These runs use reduced populations and windows so the suite stays fast,
// but exercise every moving part: assignment, senders, WAN caps, the
// adaptation loop and the deadline scheduler.
#include "systems/streaming_sim.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace cloudfog::systems {
namespace {

const Scenario& shared_scenario() {
  static const Scenario scenario = [] {
    ScenarioParams p = ScenarioParams::simulation_defaults(1);
    p.num_players = 1'500;
    p.num_supernodes = 100;
    // Scale datacenter provisioning to the reduced population so the cloud
    // is under the same per-player strain as the full-size experiments.
    p.dc_uplink_kbps = 1'250'000.0 * 1'500.0 / 10'000.0;
    return Scenario::build(p);
  }();
  return scenario;
}

StreamingOptions quick_options(std::size_t players = 600) {
  StreamingOptions o;
  o.num_players = players;
  o.warmup_ms = 1'500.0;
  o.duration_ms = 5'000.0;
  o.drain_ms = 1'000.0;
  return o;
}

TEST(StreamingSim, ResultsAreSane) {
  const auto r = run_streaming(SystemKind::kCloud, shared_scenario(),
                               quick_options());
  EXPECT_GT(r.segments_generated, 1'000u);
  EXPECT_GT(r.mean_response_latency_ms, 10.0);
  EXPECT_LT(r.mean_response_latency_ms, 5'000.0);
  EXPECT_GE(r.mean_continuity, 0.0);
  EXPECT_LE(r.mean_continuity, 1.0);
  EXPECT_GE(r.satisfied_fraction, 0.0);
  EXPECT_LE(r.satisfied_fraction, 1.0);
  EXPECT_GT(r.cloud_uplink_mbps, 0.0);
  EXPECT_EQ(r.packets_dropped, 0u);  // Cloud never schedules drops
  EXPECT_EQ(r.supernode_supported, 0u);
}

TEST(StreamingSim, P95AboveMean) {
  const auto r = run_streaming(SystemKind::kCloud, shared_scenario(),
                               quick_options());
  EXPECT_GE(r.p95_response_latency_ms, r.mean_response_latency_ms);
}

TEST(StreamingSim, CloudFogOffloadsCloudTraffic) {
  const auto cloud = run_streaming(SystemKind::kCloud, shared_scenario(),
                                   quick_options());
  const auto fog = run_streaming(SystemKind::kCloudFogB, shared_scenario(),
                                 quick_options());
  EXPECT_GT(fog.supernode_supported, 100u);
  EXPECT_LT(fog.cloud_uplink_mbps, cloud.cloud_uplink_mbps * 0.7);
}

TEST(StreamingSim, EdgeCloudUsesEdges) {
  const auto r = run_streaming(SystemKind::kEdgeCloud, shared_scenario(),
                               quick_options());
  EXPECT_GT(r.edge_supported, 0u);
  EXPECT_EQ(r.packets_dropped, 0u);
}

TEST(StreamingSim, QoeOrderingUnderLoad) {
  // The paper's headline result at a loaded operating point: CloudFog/B
  // beats Cloud on both latency and continuity.
  const auto options = quick_options(1'200);
  const auto cloud =
      run_streaming(SystemKind::kCloud, shared_scenario(), options);
  const auto fog =
      run_streaming(SystemKind::kCloudFogB, shared_scenario(), options);
  EXPECT_LT(fog.mean_response_latency_ms, cloud.mean_response_latency_ms);
  EXPECT_GT(fog.mean_continuity, cloud.mean_continuity);
}

TEST(StreamingSim, AdaptationLowersQualityUnderStrain) {
  const auto options = quick_options(1'200);
  const auto b =
      run_streaming(SystemKind::kCloudFogB, shared_scenario(), options);
  const auto adapt =
      run_streaming(SystemKind::kCloudFogAdapt, shared_scenario(), options);
  EXPECT_LT(adapt.mean_quality_level, b.mean_quality_level);
}

TEST(StreamingSim, SchedulingVariantDrivesDeadlineScheduler) {
  const auto r = run_streaming(SystemKind::kCloudFogSchedule, shared_scenario(),
                               quick_options(1'200));
  EXPECT_GT(r.supernode_supported, 0u);
  // Scheduler active: segments flow through the packet-level path; drops
  // may or may not trigger depending on load, but the run must complete
  // with sane metrics.
  EXPECT_GT(r.mean_continuity, 0.0);
}

TEST(StreamingSim, CloudFogAImprovesOnB) {
  const auto options = quick_options(1'200);
  const auto b =
      run_streaming(SystemKind::kCloudFogB, shared_scenario(), options);
  const auto a =
      run_streaming(SystemKind::kCloudFogA, shared_scenario(), options);
  EXPECT_LE(a.mean_response_latency_ms, b.mean_response_latency_ms * 1.05);
  EXPECT_GE(a.mean_continuity, b.mean_continuity * 0.95);
}

TEST(StreamingSim, DeterministicForSameOptions) {
  const auto r1 = run_streaming(SystemKind::kCloudFogB, shared_scenario(),
                                quick_options());
  const auto r2 = run_streaming(SystemKind::kCloudFogB, shared_scenario(),
                                quick_options());
  EXPECT_DOUBLE_EQ(r1.mean_response_latency_ms, r2.mean_response_latency_ms);
  EXPECT_DOUBLE_EQ(r1.mean_continuity, r2.mean_continuity);
  EXPECT_EQ(r1.segments_generated, r2.segments_generated);
}

TEST(StreamingSim, SeedSaltChangesOutcome) {
  auto o1 = quick_options();
  auto o2 = quick_options();
  o2.seed_salt = 99;
  const auto r1 = run_streaming(SystemKind::kCloud, shared_scenario(), o1);
  const auto r2 = run_streaming(SystemKind::kCloud, shared_scenario(), o2);
  EXPECT_NE(r1.mean_response_latency_ms, r2.mean_response_latency_ms);
}

TEST(StreamingSim, SegmentTicksAreMostlyNotEvents) {
  // Event budget of CloudFog/B at the default pipeline timing, with the
  // end-to-end benchmark's warm-up, window and drain. Each generated
  // segment costs its pipeline completion; a segment tick runs inside the
  // player's last action before it, so the only tick events left are each
  // player's first and the few a still-pending completion forces. Counted
  // over the whole run per window segment, completions alone read
  // (2 + 3) / 3 = 1.67; a tick event per segment as well would read 3.67.
  StreamingOptions o = quick_options();
  o.warmup_ms = 2'000.0;
  o.duration_ms = 3'000.0;
  o.drain_ms = 1'000.0;
  obs::MetricsRegistry registry;
  StreamingResult r;
  {
    const obs::ScopedRegistry install(registry);
    r = run_streaming(SystemKind::kCloudFogB, shared_scenario(), o);
  }
  ASSERT_GT(r.segments_generated, 20'000u);
  const obs::Counter* executed = registry.find_counter("sim.events.executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_LE(static_cast<double>(executed->value()),
            2.2 * static_cast<double>(r.segments_generated));
}

TEST(StreamingSim, SenderTrainsAreMostlyNotEvents) {
  // Event budget of CloudFog/A with the end-to-end benchmark's warm-up,
  // window and drain. A packet sender's burst train stops only before the
  // earliest input of its own (a tick, completion or churn of its
  // players), not at every other player's event, and a submit on an idle
  // uplink starts the train at once. Stopping at any engine event instead
  // reads about 6 events per window segment. At K = 2 each shard keeps its
  // senders' input blocks, under two workers.
  StreamingOptions o = quick_options();
  o.warmup_ms = 2'000.0;
  o.duration_ms = 3'000.0;
  o.drain_ms = 1'000.0;
  for (std::size_t shards : {1u, 2u}) {
    ScenarioParams p = shared_scenario().params();
    p.sim_shards = shards;
    const Scenario scenario = Scenario::build(p);
    o.shard_workers = shards;
    obs::MetricsRegistry registry;
    StreamingResult r;
    {
      const obs::ScopedRegistry install(registry);
      r = run_streaming(SystemKind::kCloudFogA, scenario, o);
    }
    ASSERT_GT(r.segments_generated, 20'000u);
    const obs::Counter* executed =
        registry.find_counter("sim.events.executed");
    ASSERT_NE(executed, nullptr);
    EXPECT_LE(static_cast<double>(executed->value()),
              2.7 * static_cast<double>(r.segments_generated))
        << "K = " << shards << ": " << executed->value() << " events for "
        << r.segments_generated << " segments";
  }
}

TEST(StreamingSim, RejectsBadOptions) {
  StreamingOptions o;
  o.num_players = 0;
  EXPECT_THROW(run_streaming(SystemKind::kCloud, shared_scenario(), o),
               std::logic_error);
  StreamingOptions o2;
  o2.num_players = 1'000'000;  // more than the population
  EXPECT_THROW(run_streaming(SystemKind::kCloud, shared_scenario(), o2),
               std::logic_error);
  // A repeated population index would get two player slots — possibly on
  // different shards — for one player.
  StreamingOptions o3 = quick_options(3);
  o3.explicit_players = {4, 17, 4};
  EXPECT_THROW(run_streaming(SystemKind::kCloudFogB, shared_scenario(), o3),
               std::logic_error);
}

}  // namespace
}  // namespace cloudfog::systems
