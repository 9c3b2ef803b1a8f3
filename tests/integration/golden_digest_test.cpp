// Golden streaming digests: small run_streaming configurations whose QoE
// digests are pinned to constants. Every other digest contract compares two
// runs of the same build (repeat, jobs, shards, obs on/off), so a change
// that moves every run the same way — a performance rewrite that reorders a
// floating-point sum, an extra RNG draw — passes them all. This test does
// not: a refactor that claims to be behaviour-preserving must reproduce
// these exact values. A deliberate behaviour change re-records them and
// says so.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "systems/streaming_sim.h"
#include "qoe_digest.h"

namespace cloudfog::systems {
namespace {

ScenarioParams golden_params(std::size_t shards) {
  ScenarioParams p = ScenarioParams::simulation_defaults(7);
  p.num_players = 400;
  p.num_supernodes = 40;
  p.num_edge_servers = 8;
  p.dc_uplink_kbps = 1'250'000.0 * 400.0 / 10'000.0;
  p.sim_shards = shards;
  return p;
}

StreamingOptions golden_options() {
  StreamingOptions o;
  o.num_players = 200;
  o.warmup_ms = 500.0;
  o.duration_ms = 2'000.0;
  o.drain_ms = 500.0;
  return o;
}

StreamingResult run_kind(SystemKind kind, std::size_t shards) {
  const Scenario scenario = Scenario::build(golden_params(shards));
  return run_streaming(kind, scenario, golden_options());
}

/// CloudFog-adapt with the segment cache, three cooperative neighbours per
/// supernode and every supernode leaving mid-window and returning before
/// the drain: cache serve paths, cross-shard probes, failover queues and
/// rate adaptation in one run.
StreamingResult run_cache_coop_churn(std::size_t shards) {
  ScenarioParams p = golden_params(shards);
  p.use_segment_cache = true;
  p.cache_coop_neighbors = 3;
  const Scenario scenario = Scenario::build(p);
  StreamingOptions o = golden_options();
  for (std::size_t sn : scenario.supernode_players()) {
    o.supernode_churn.push_back({900.0, sn, true});
    o.supernode_churn.push_back({1'800.0, sn, false});
  }
  return run_streaming(SystemKind::kCloudFogAdapt, scenario, o);
}

/// CloudFog/A under the same churn script: a leave drains the departed
/// packet sender's backlog into the players' failover queues.
StreamingResult run_scheduled_churn(std::size_t shards) {
  const Scenario scenario = Scenario::build(golden_params(shards));
  StreamingOptions o = golden_options();
  for (std::size_t sn : scenario.supernode_players()) {
    o.supernode_churn.push_back({900.0, sn, true});
    o.supernode_churn.push_back({1'800.0, sn, false});
  }
  return run_streaming(SystemKind::kCloudFogA, scenario, o);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenCase {
  const char* name;
  SystemKind kind;
  std::uint64_t digest;
};

// Recorded at K = 1; the shard-count invariance contract makes them the
// K = 2 values too.
constexpr GoldenCase kGolden[] = {
    {"Cloud", SystemKind::kCloud, 0xf8428b3e3c3ce607ull},
    {"EdgeCloud", SystemKind::kEdgeCloud, 0x8b8aa0a627acca55ull},
    {"CloudFogB", SystemKind::kCloudFogB, 0x699d2f4ba88b7c74ull},
    {"CloudFogA", SystemKind::kCloudFogA, 0xac922a9560730a7cull},
};
constexpr std::uint64_t kCacheCoopChurnDigest = 0xbd6839b10185be8dull;
constexpr std::uint64_t kScheduledChurnDigest = 0xb01addecdb881393ull;

TEST(GoldenDigest, SystemKindsMatchPinnedValues) {
  for (const GoldenCase& c : kGolden) {
    for (std::size_t shards : {1u, 2u}) {
      const StreamingResult r = run_kind(c.kind, shards);
      EXPECT_GT(r.segments_generated, 1'000u) << c.name;
      const std::uint64_t got = qoe_digest(r);
      EXPECT_EQ(got, c.digest)
          << c.name << " at K = " << shards << ": digest " << hex(got);
    }
  }
}

TEST(GoldenDigest, ConfigurationsExerciseTheirSubsystems) {
  // Guards against a vacuous pin: each configuration really serves through
  // the path it is named after.
  EXPECT_GT(run_kind(SystemKind::kEdgeCloud, 1).edge_supported, 0u);
  EXPECT_GT(run_kind(SystemKind::kCloudFogB, 1).supernode_supported, 0u);
  const StreamingResult r = run_cache_coop_churn(1);
  EXPECT_GT(r.cache.hits, 0u);
  EXPECT_GT(r.cache.coop_probes, 0u);
}

TEST(GoldenDigest, CacheCoopChurnMatchesPinnedValue) {
  for (std::size_t shards : {1u, 2u}) {
    const std::uint64_t got = qoe_digest(run_cache_coop_churn(shards));
    EXPECT_EQ(got, kCacheCoopChurnDigest)
        << "K = " << shards << ": digest " << hex(got);
  }
}

TEST(GoldenDigest, ScheduledChurnMatchesPinnedValue) {
  for (std::size_t shards : {1u, 2u}) {
    const std::uint64_t got = qoe_digest(run_scheduled_churn(shards));
    EXPECT_EQ(got, kScheduledChurnDigest)
        << "K = " << shards << ": digest " << hex(got);
  }
}

}  // namespace
}  // namespace cloudfog::systems
