// Every latency the streaming engine samples while its event loop runs is a
// path resolved at setup (DESIGN.md §13), so no shard evaluates a latency
// pair during the run. Observable contract: the number of pairs the latency
// model evaluates (net.latency.pair_queries) is a function of the setup
// alone — two runs that differ only in the length of the measurement
// window evaluate exactly as many. Covered per run-time sampler: packet-level
// senders and the drained-backlog failover (CloudFog/A), fluid failover
// streaming (CloudFog-adapt with the cooperative cache), each at one and at
// two shards.
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.h"
#include "systems/streaming_sim.h"

namespace cloudfog::systems {
namespace {

ScenarioParams churn_params(std::size_t shards, bool cache) {
  ScenarioParams p = ScenarioParams::simulation_defaults(4);
  p.num_players = 500;
  p.num_supernodes = 60;
  p.dc_uplink_kbps = 1'250'000.0 * 500.0 / 10'000.0;
  p.sim_shards = shards;
  if (cache) {
    p.use_segment_cache = true;
    p.cache_coop_neighbors = 2;
  }
  return p;
}

struct CountedRun {
  std::uint64_t lookups = 0;
  std::uint64_t segments = 0;
};

/// One run on a fresh scenario. Every other supernode leaves at 2.5 s and
/// never returns: past the horizon of a 1 s window, inside a 3 s one. Only
/// the longer run drains packet backlogs and streams over the failover
/// paths, which setup resolves for both.
CountedRun run_counting(SystemKind kind, const ScenarioParams& params,
                     double duration_ms) {
  const Scenario scenario = Scenario::build(params);
  StreamingOptions o;
  o.num_players = 250;
  o.warmup_ms = 500.0;
  o.duration_ms = duration_ms;
  o.drain_ms = 500.0;
  o.shard_workers = 1;
  const std::vector<std::size_t>& sns = scenario.supernode_players();
  for (std::size_t i = 0; i < sns.size(); i += 2)
    o.supernode_churn.push_back({2'500.0, sns[i], true});

  obs::MetricsRegistry registry;
  CountedRun run;
  {
    obs::ScopedRegistry install(registry);
    run.segments = run_streaming(kind, scenario, o).segments_generated;
  }
  if (const obs::Counter* c = registry.find_counter("net.latency.pair_queries"))
    run.lookups = c->value();
  return run;
}

void expect_lookups_independent_of_duration(SystemKind kind, bool cache) {
  for (std::size_t shards : {1u, 2u}) {
    const ScenarioParams params = churn_params(shards, cache);
    const CountedRun short_run = run_counting(kind, params, 1'000.0);
    const CountedRun long_run = run_counting(kind, params, 3'000.0);
    EXPECT_GT(long_run.segments, short_run.segments) << "shards " << shards;
    EXPECT_GT(short_run.lookups, 0u) << "shards " << shards;
    EXPECT_EQ(long_run.lookups, short_run.lookups) << "shards " << shards;
  }
}

TEST(RunTimeLatency, PacketSendersAndBacklogFailoverUseNoMemo) {
  expect_lookups_independent_of_duration(SystemKind::kCloudFogA, false);
}

TEST(RunTimeLatency, FluidFailoverUsesNoMemo) {
  expect_lookups_independent_of_duration(SystemKind::kCloudFogAdapt, true);
}

}  // namespace
}  // namespace cloudfog::systems
