// Golden digests: small run_streaming and packet-level experiment
// configurations whose result digests are pinned to constants. Every other
// digest contract compares two runs of the same build (repeat, jobs,
// shards, obs on/off), so a change that moves every run the same way — a
// performance rewrite that reorders a floating-point sum, an extra RNG
// draw — passes them all. This test does not: a refactor that claims to
// be behaviour-preserving must reproduce these exact values. A deliberate
// behaviour change re-records them and says so.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "systems/streaming_sim.h"
#include "systems/supernode_experiment.h"
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

/// A run's digest and its receive buffers' stall episodes, read from a
/// metrics registry installed for the run alone.
struct ObservedRun {
  std::uint64_t digest = 0;
  std::uint64_t stalls = 0;
};

template <typename Run>
ObservedRun run_observed(Run run) {
  obs::MetricsRegistry registry;
  ObservedRun out;
  {
    const obs::ScopedRegistry install(registry);
    out.digest = qoe_digest(run());
  }
  const obs::Counter* stalls = registry.find_counter("stream.buffer.stalls");
  out.stalls = stalls != nullptr ? stalls->value() : 0;
  return out;
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
// Stall episodes summed over every receive buffer of the run. The digest
// does not fold them in, yet they move with any change to the order in
// which the buffers see arrivals and playback-rate switches.
constexpr std::uint64_t kCacheCoopChurnStalls = 1640;
constexpr std::uint64_t kScheduledChurnStalls = 2070;

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
    const ObservedRun got =
        run_observed([shards] { return run_cache_coop_churn(shards); });
    EXPECT_EQ(got.digest, kCacheCoopChurnDigest)
        << "K = " << shards << ": digest " << hex(got.digest);
    EXPECT_EQ(got.stalls, kCacheCoopChurnStalls) << "K = " << shards;
  }
}

TEST(GoldenDigest, ScheduledChurnMatchesPinnedValue) {
  for (std::size_t shards : {1u, 2u}) {
    const ObservedRun got =
        run_observed([shards] { return run_scheduled_churn(shards); });
    EXPECT_EQ(got.digest, kScheduledChurnDigest)
        << "K = " << shards << ": digest " << hex(got.digest);
    EXPECT_EQ(got.stalls, kScheduledChurnStalls) << "K = " << shards;
  }
}

/// Pipelines longer than the default: with compute_ms = 40 an action's
/// uplink, compute and render stages span about 0.7 segment periods, with
/// 160 about 2.5, so several segments of one player are in flight at once.
/// Every other supernode leaves mid-window and returns before the drain, so
/// players at risk of failover and players that are not share each run,
/// and with the cache on, both kinds are served through it.
struct LongPipelineCase {
  const char* name;
  SystemKind kind;
  bool cache;  // segment cache with three cooperative neighbours
  bool churn;
  TimeMs compute_ms;
  std::uint64_t digest;
  std::uint64_t stalls;
};

StreamingResult run_long_pipeline(const LongPipelineCase& c,
                                  std::size_t shards) {
  ScenarioParams p = golden_params(shards);
  p.compute_ms = c.compute_ms;
  if (c.cache) {
    p.use_segment_cache = true;
    p.cache_coop_neighbors = 3;
  }
  const Scenario scenario = Scenario::build(p);
  StreamingOptions o = golden_options();
  if (c.churn) {
    const std::vector<std::size_t>& sns = scenario.supernode_players();
    for (std::size_t i = 0; i < sns.size(); i += 2) {
      o.supernode_churn.push_back({900.0, sns[i], true});
      o.supernode_churn.push_back({1'800.0, sns[i], false});
    }
  }
  return run_streaming(c.kind, scenario, o);
}

// Recorded before the engine folded segment ticks into earlier actions.
constexpr LongPipelineCase kLongPipelines[] = {
    {"CloudFogB/40", SystemKind::kCloudFogB, false, false, 40.0,
     0x1e72301c553fb975ull, 0},
    {"CloudFogB/160", SystemKind::kCloudFogB, false, false, 160.0,
     0x9ade0a8301d2ee61ull, 0},
    {"CloudFogA+churn/40", SystemKind::kCloudFogA, false, true, 40.0,
     0xe01cf82c0121ea6eull, 2725},
    {"CloudFogA+churn/160", SystemKind::kCloudFogA, false, true, 160.0,
     0xaf9a4b6410ea82a7ull, 2775},
    {"Adapt+cache+coop+churn/40", SystemKind::kCloudFogAdapt, true, true, 40.0,
     0x586d35fd68ef6ee4ull, 1492},
    {"Adapt+cache+coop+churn/160", SystemKind::kCloudFogAdapt, true, true,
     160.0, 0xc2ab538fa26d30caull, 1502},
};

TEST(GoldenDigest, LongPipelinesMatchPinnedValues) {
  for (const LongPipelineCase& c : kLongPipelines) {
    for (std::size_t shards : {1u, 2u}) {
      const ObservedRun got =
          run_observed([&c, shards] { return run_long_pipeline(c, shards); });
      EXPECT_EQ(got.digest, c.digest)
          << c.name << " at K = " << shards << ": digest " << hex(got.digest);
      EXPECT_EQ(got.stalls, c.stalls)
          << c.name << " at K = " << shards << ": stalls " << got.stalls;
    }
  }
}

/// A supernode uplink a tenth of the default: every packet sender carries
/// a deep backlog, so one burst train outlasts a whole action pipeline
/// (uplink, compute, feed and render). A train that ran past any input of
/// its sender (a segment tick and the submit its completion makes, an
/// adaptation tick, another player's completion) would reorder packets
/// here.
struct DeepBacklogCase {
  const char* name;
  SystemKind kind;
  std::uint64_t digest;
  std::uint64_t stalls;
};

StreamingResult run_deep_backlog(SystemKind kind, std::size_t shards) {
  ScenarioParams p = golden_params(shards);
  p.supernode_kbps_per_slot /= 10.0;
  return run_streaming(kind, Scenario::build(p), golden_options());
}

// Recorded before packet senders stopped their trains at their own inputs.
constexpr DeepBacklogCase kDeepBacklogs[] = {
    {"CloudFogA", SystemKind::kCloudFogA, 0x3cb8a8f61f10000bull, 5066},
    {"CloudFogSchedule", SystemKind::kCloudFogSchedule, 0x7b8be408aedbd5baull,
     0},
};

TEST(GoldenDigest, DeepSenderBacklogsMatchPinnedValues) {
  for (const DeepBacklogCase& c : kDeepBacklogs) {
    for (std::size_t shards : {1u, 2u}) {
      StreamingResult r;
      const ObservedRun got = run_observed([&] {
        r = run_deep_backlog(c.kind, shards);
        return r;
      });
      // Not a vacuous pin: the backlog is deep enough that the deadline
      // scheduler drops packets.
      EXPECT_GT(r.packets_dropped, 1'000u) << c.name;
      EXPECT_EQ(got.digest, c.digest)
          << c.name << " at K = " << shards << ": digest " << hex(got.digest);
      EXPECT_EQ(got.stalls, c.stalls)
          << c.name << " at K = " << shards << ": stalls " << got.stalls;
    }
  }
}


// The packet-level experiment (Fig 10/11 and, with two supernodes, the X4
// cooperation extension) builds its own simulator, so the streaming
// digests above do not cover it. Each case below folds every result field
// the experiment reported when the constants were recorded.

struct ExperimentCase {
  const char* name;
  SupernodeExperimentConfig config;
  std::uint64_t digest;
};

SupernodeExperimentConfig fig_config(bool adaptation, bool scheduling) {
  SupernodeExperimentConfig c;
  c.num_players = 25;
  c.warmup_ms = 4'000.0;
  c.duration_ms = 8'000.0;
  c.adaptation = adaptation;
  c.scheduling = scheduling;
  return c;
}

std::uint64_t experiment_digest(const SupernodeExperimentResult& r) {
  Fnv1a h;
  h.mix_double(r.satisfied_fraction);
  h.mix_double(r.mean_continuity);
  h.mix_double(r.mean_response_latency_ms);
  h.mix_double(r.mean_quality_level);
  h.mix(r.packets_submitted);
  h.mix(r.packets_on_time);
  h.mix(r.packets_dropped);
  h.mix_double(r.offered_kbps);
  h.mix_double(r.uplink_kbps);
  return h.value;
}

std::vector<ExperimentCase> fig_cases() {
  std::vector<ExperimentCase> cases{
      {"B", fig_config(false, false), 0xcb600941bddce1e8ull},
      {"adapt", fig_config(true, false), 0xbb2e5afaa63776b7ull},
      {"schedule", fig_config(false, true), 0xda66e4c033c2c247ull},
      {"A", fig_config(true, true), 0xf6f009c4a7e7c417ull},
      {"schedule+loss", fig_config(false, true), 0xcd8f1d4600ce6775ull},
      {"adapt+render", fig_config(true, false), 0xc978426388fbe7acull},
      {"adapt+gop", fig_config(true, false), 0x543843b7529a13d1ull},
  };
  cases[4].config.network_loss_rate = 0.02;
  cases[5].config.num_players = 20;
  cases[5].config.render_capacity_mpx_per_s = 250.0;
  cases[6].config.use_gop_encoder = true;
  return cases;
}

TEST(GoldenDigest, SupernodeExperimentsMatchPinnedValues) {
  for (const ExperimentCase& c : fig_cases()) {
    const SupernodeExperimentResult r = run_supernode_experiment(c.config);
    EXPECT_GT(r.packets_submitted, 10'000u) << c.name;
    // Not a vacuous pin: without adaptation the deadline scheduler really
    // drops packets at this load.
    if (c.config.scheduling && !c.config.adaptation) {
      EXPECT_GT(r.packets_dropped, 0u) << c.name;
    }
    const std::uint64_t got = experiment_digest(r);
    EXPECT_EQ(got, c.digest) << c.name << ": digest " << hex(got);
  }
}

TEST(GoldenDigest, CooperationExperimentsMatchPinnedValues) {
  struct CoopCase {
    double skew;
    bool striping;
    std::uint64_t digest;
  };
  constexpr CoopCase kCases[] = {
      {0.5, false, 0x18a9344658714d00ull},
      {0.5, true, 0xfa9afc12d3eab406ull},
      {0.95, false, 0x666653ac3c482ccfull},
      {0.95, true, 0xd85df85f3c9ead09ull},
  };
  for (const CoopCase& c : kCases) {
    SupernodeExperimentConfig config;
    config.supernodes = 2;
    config.num_players = 24;
    config.uplink_kbps = 16'000.0;
    config.primary_skew = c.skew;
    config.enable_striping = c.striping;
    config.warmup_ms = 3'000.0;
    config.duration_ms = 8'000.0;
    const SupernodeExperimentResult r = run_supernode_experiment(config);
    Fnv1a h;
    h.mix_double(r.satisfied_fraction);
    h.mix_double(r.mean_continuity);
    h.mix_double(r.mean_response_latency_ms);
    h.mix_double(r.supernode_load[0]);
    h.mix_double(r.supernode_load[1]);
    EXPECT_EQ(h.value, c.digest)
        << "skew " << c.skew << " striping " << c.striping << ": digest "
        << hex(h.value);
  }
}

}  // namespace
}  // namespace cloudfog::systems
