// Segment-cache streaming integration — DESIGN.md §11 acceptance tests.
//
// Three contracts, all over the real end-to-end streaming pipeline:
//   1. Determinism: cache-on runs are a pure function of (scenario,
//      options, seed) — repeat runs and --jobs=1 vs --jobs=8 batches
//      produce bit-identical QoE digests.
//   2. The ablation headline: at ample capacity the cache cuts cloud
//      egress by >= 30% versus the capacity-0 fetch-everything baseline,
//      with QoE (continuity, latency) within 1% of that baseline.
//   3. Wiring: fleet counters add up, and both the packet (CloudFog/A)
//      and fluid (CloudFog/B) supernode paths route through the cache.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "exec/run_executor.h"
#include "systems/streaming_sim.h"

namespace cloudfog::systems {
namespace {

ScenarioParams cache_params(double kbit_per_slot, std::uint64_t seed = 7) {
  ScenarioParams p = ScenarioParams::simulation_defaults(seed);
  p.num_players = 400;
  p.num_supernodes = 40;
  p.dc_uplink_kbps = 1'250'000.0 * 400.0 / 10'000.0;
  p.use_segment_cache = true;
  p.cache_kbit_per_slot = kbit_per_slot;
  return p;
}

StreamingOptions quick_options() {
  StreamingOptions o;
  o.num_players = 200;
  o.warmup_ms = 1'000.0;
  o.duration_ms = 3'000.0;
  o.drain_ms = 500.0;
  return o;
}

/// FNV-1a over the bit patterns of the QoE metrics plus the cache
/// counters — two runs agree iff everything observable is bit-identical.
std::uint64_t qoe_digest(const StreamingResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_double = [&mix](double d) {
    mix(std::bit_cast<std::uint64_t>(d));
  };
  mix_double(r.mean_response_latency_ms);
  mix_double(r.p95_response_latency_ms);
  mix_double(r.mean_continuity);
  mix_double(r.satisfied_fraction);
  mix_double(r.cloud_uplink_mbps);
  mix(r.segments_generated);
  mix(r.packets_dropped);
  mix(r.cache.hits);
  mix(r.cache.misses);
  mix(r.cache.transcodes);
  mix(r.cache.evictions);
  mix_double(r.cache.bytes_cloud_kbit);
  mix_double(r.cache.bytes_edge_kbit);
  return h;
}

TEST(CacheStreamingTest, CacheOnRunsAreDeterministic) {
  const ScenarioParams params = cache_params(1'000.0);
  const Scenario scenario = Scenario::build(params);
  const auto first =
      run_streaming(SystemKind::kCloudFogA, scenario, quick_options());
  const auto second =
      run_streaming(SystemKind::kCloudFogA, scenario, quick_options());
  EXPECT_EQ(qoe_digest(first), qoe_digest(second))
      << "cache-on run is not a pure function of its inputs";
  EXPECT_EQ(first.cache.hits, second.cache.hits);
  EXPECT_EQ(first.cache.evictions, second.cache.evictions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.cache.bytes_cloud_kbit),
            std::bit_cast<std::uint64_t>(second.cache.bytes_cloud_kbit));
}

TEST(CacheStreamingTest, JobsOneAndJobsEightAgreeWithCacheOn) {
  std::vector<StreamingRunSpec> specs;
  for (double capacity : {0.0, 500.0, 2'000.0}) {
    for (SystemKind kind : {SystemKind::kCloudFogA, SystemKind::kCloudFogB}) {
      StreamingRunSpec spec;
      spec.kind = kind;
      spec.scenario = cache_params(capacity);
      spec.options = quick_options();
      specs.push_back(spec);
    }
  }
  exec::RunExecutor sequential(1);
  const auto seq = run_streaming_batch(specs, sequential);
  exec::RunExecutor parallel(8);
  const auto par = run_streaming_batch(specs, parallel);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(qoe_digest(seq[i]), qoe_digest(par[i]))
        << "cache-on run " << i << " diverged between --jobs=1 and --jobs=8";
  }
}

TEST(CacheStreamingTest, AmpleCapacityCutsEgressWithoutHurtingQoE) {
  const StreamingOptions options = quick_options();
  const Scenario baseline_scenario = Scenario::build(cache_params(0.0));
  const Scenario cached_scenario = Scenario::build(cache_params(4'000.0));
  const auto baseline =
      run_streaming(SystemKind::kCloudFogA, baseline_scenario, options);
  const auto cached =
      run_streaming(SystemKind::kCloudFogA, cached_scenario, options);

  // Capacity 0 = fetch everything: it is the egress ceiling.
  ASSERT_GT(baseline.cache.bytes_cloud_kbit, 0.0);
  ASSERT_EQ(baseline.cache.hits, 0u);

  // The acceptance bar: >= 30% cloud-egress reduction at ample capacity...
  EXPECT_LE(cached.cache.bytes_cloud_kbit,
            0.70 * baseline.cache.bytes_cloud_kbit)
      << "cache cut egress by less than 30%";
  // ...with QoE within 1% of the no-cache baseline.
  EXPECT_GE(cached.mean_continuity, baseline.mean_continuity - 0.01);
  EXPECT_LE(cached.mean_response_latency_ms,
            baseline.mean_response_latency_ms * 1.01);
}

TEST(CacheStreamingTest, FleetCountersAddUp) {
  const Scenario scenario = Scenario::build(cache_params(1'000.0));
  const auto r =
      run_streaming(SystemKind::kCloudFogA, scenario, quick_options());
  EXPECT_GT(r.cache.hits, 0u);
  EXPECT_GT(r.cache.misses, 0u);
  EXPECT_GE(r.cache.misses, r.cache.transcodes);
  EXPECT_GT(r.cache.bytes_cloud_kbit, 0.0);
  EXPECT_GT(r.cache.bytes_edge_kbit, 0.0);
  // Every supernode-served request was either a hit or a miss; nothing is
  // double counted (fetches is derived as misses - transcodes).
  EXPECT_EQ(r.cache.fetches() + r.cache.transcodes, r.cache.misses);
}

TEST(CacheStreamingTest, FluidPathAlsoRoutesThroughTheCache) {
  // CloudFog/B supernodes use the fluid QueuedSender: the harness (not the
  // packet sender) must route those submissions through the cache.
  const Scenario scenario = Scenario::build(cache_params(1'000.0));
  const auto r =
      run_streaming(SystemKind::kCloudFogB, scenario, quick_options());
  EXPECT_GT(r.cache.hits + r.cache.misses, 0u)
      << "fluid supernode path bypassed the cache";
}

TEST(CacheStreamingTest, CoopLookupsRunAtDefaultShardCount) {
  // Cooperative lookups need no shard opt-in: with the default shard count
  // a local miss probes the nearest peer supernodes before the cloud.
  ScenarioParams p = cache_params(1'000.0);
  p.cache_coop_neighbors = 3;
  const Scenario scenario = Scenario::build(p);
  const auto r =
      run_streaming(SystemKind::kCloudFogAdapt, scenario, quick_options());
  EXPECT_GT(r.cache.coop_probes, 0u);
}

// Pinned digests of the two coop edge cases below, equal at K = 1 and 4.
constexpr std::uint64_t kLoneSupernodeDigest = 0xbc4ba27a7631c443ull;
constexpr std::uint64_t kCoopBeyondFleetDigest = 0x3d47e702df0c2cbcull;

// A lone active supernode has no peer to probe: coop on must run as coop
// off, on one shard with no cross-shard edge and so one window, at any
// requested shard count.
TEST(CacheStreamingTest, CoopWithOneActiveSupernodeProbesNothing) {
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    ScenarioParams p = cache_params(1'000.0);
    p.num_supernodes = 1;
    p.sim_shards = shards;
    p.cache_coop_neighbors = 3;
    const auto coop = run_streaming(SystemKind::kCloudFogAdapt,
                                    Scenario::build(p), quick_options());
    p.cache_coop_neighbors = 0;
    const auto alone = run_streaming(SystemKind::kCloudFogAdapt,
                                     Scenario::build(p), quick_options());
    EXPECT_GT(coop.supernode_supported, 0u);
    EXPECT_EQ(coop.cache.coop_probes, 0u);
    EXPECT_EQ(coop.cache.coop_hits, 0u);
    EXPECT_EQ(qoe_digest(coop), qoe_digest(alone));
    EXPECT_EQ(qoe_digest(coop), kLoneSupernodeDigest);
  }
}

// More cooperative neighbours than peers: every row holds every other
// active supernode (at most 39 of them here), as with exactly 40.
TEST(CacheStreamingTest, CoopNeighborsBeyondTheFleetRankEveryPeer) {
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    ScenarioParams p = cache_params(1'000.0);
    p.sim_shards = shards;
    p.cache_coop_neighbors = 1'000;
    const auto beyond = run_streaming(SystemKind::kCloudFogAdapt,
                                      Scenario::build(p), quick_options());
    p.cache_coop_neighbors = 40;
    const auto every = run_streaming(SystemKind::kCloudFogAdapt,
                                     Scenario::build(p), quick_options());
    EXPECT_GT(beyond.cache.coop_probes, 0u);
    EXPECT_EQ(qoe_digest(beyond), qoe_digest(every));
    EXPECT_EQ(qoe_digest(beyond), kCoopBeyondFleetDigest);
  }
}

TEST(CacheStreamingTest, CacheOffReportsZeroCacheActivity) {
  ScenarioParams p = cache_params(1'000.0);
  p.use_segment_cache = false;
  const Scenario scenario = Scenario::build(p);
  const auto r =
      run_streaming(SystemKind::kCloudFogA, scenario, quick_options());
  EXPECT_EQ(r.cache.hits, 0u);
  EXPECT_EQ(r.cache.misses, 0u);
  EXPECT_DOUBLE_EQ(r.cache.bytes_cloud_kbit, 0.0);
}

}  // namespace
}  // namespace cloudfog::systems
