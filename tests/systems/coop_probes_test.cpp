// The cooperative probe protocol (systems/coop_probes.h).
//
// Round pool: a round's slot is recycled only after its last response, so
// responses of ranks after the winner, a requester that leaves while its
// probes fly and back-to-back rounds all see their own round. The pool's
// size is its high-water mark and must equal the peak number of rounds in
// flight.
//
// Rank order: rank_coop_neighbors must return exactly the rows of the
// all-pairs scan it replaced, kept below as the oracle, while evaluating
// only a fraction of the pairs.
#include "systems/coop_probes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "cache/edge_cache_service.h"
#include "net/trace.h"
#include "obs/metrics.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "stream/video.h"
#include "systems/scenario.h"

namespace cloudfog::systems {
namespace {

using cache::CacheSlot;
using cache::EdgeCacheService;
using cache::ServeSource;

constexpr TimeMs kDuration = 100.0;

// Content index `index` at ladder level 3: an 80 kbit nominal variant.
stream::VideoSegment segment(std::uint64_t index) {
  stream::VideoSegment seg;
  seg.game = 0;
  seg.quality_level = 3;
  seg.duration_ms = kDuration;
  seg.size_kbit = 80.0;
  seg.action_time_ms = kDuration * static_cast<double>(index);
  seg.deadline_ms = seg.action_time_ms + 70.0;
  return seg;
}

cache::EdgeCacheServiceConfig config() {
  cache::EdgeCacheServiceConfig cfg;
  cfg.kbit_per_slot = 10'000.0;
  cfg.content_loop_segments = 0;  // every index is distinct content
  return cfg;
}

/// A cluster, one cache service per shard and the protocol over them.
struct World {
  World(std::size_t shards, std::size_t workers)
      : cluster(shards, workers), probes(shards, /*coop_kbps=*/0.0) {
    for (std::size_t s = 0; s < shards; ++s) {
      caches.push_back(
          std::make_unique<EdgeCacheService>(cluster.sim(s), config()));
      probes.attach(cluster, s, *caches[s]);
    }
  }
  EdgeCacheService& cache(std::size_t s) { return *caches[s]; }
  TimeMs fetch_delay() const {
    return caches[0]->policy().fetch_delay_ms(80.0);
  }

  shard::ShardCluster cluster;
  std::vector<std::unique_ptr<EdgeCacheService>> caches;
  CoopProbes probes;
};

/// The most [start, start + life] intervals that overlap at any instant.
std::size_t peak_overlap(std::vector<TimeMs> starts, TimeMs life) {
  std::sort(starts.begin(), starts.end());
  std::size_t peak = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    std::size_t live = 0;
    for (std::size_t j = 0; j <= i; ++j) {
      if (starts[j] + life > starts[i]) ++live;
    }
    peak = std::max(peak, live);
  }
  return peak;
}

TEST(CoopProbeRounds, LateResponsesAfterTheWinnerKeepTheirRound) {
  World w(1, 1);
  EdgeCacheService& cache = w.cache(0);
  const CacheSlot a = cache.add_supernode(1, 1);
  const CacheSlot b = cache.add_supernode(2, 1);
  const CacheSlot c = cache.add_supernode(3, 1);
  w.probes.set_neighbors(0, a, {{b, 0, 1.0}, {c, 0, 10.0}});
  sim::Simulator& sim = w.cluster.sim(0);
  // B holds content 7 (it has no neighbours, so this is a plain fetch).
  sim.schedule_at(0.0, [&] { cache.request(b, segment(7), [] {}); });

  std::vector<TimeMs> delivered(2, -1.0);
  std::vector<ServeSource> sources;
  cache.set_serve_observer(
      [&](CacheSlot node, const stream::VideoSegment&,
          const EdgeCacheService::ServeOutcome& outcome) {
        if (node == a) sources.push_back(outcome.source);
      });
  // Round 1 resolves at 102 on B's hit (rank 0); C's miss is back at 120.
  sim.schedule_at(100.0, [&] {
    cache.request(a, segment(7), [&] { delivered[0] = sim.now(); });
  });
  // Round 2 starts while round 1 waits for C: it must not get its slot.
  // Both peers miss; rank 1 answers at 125, and the cloud fetch starts.
  sim.schedule_at(105.0, [&] {
    cache.request(a, segment(8), [&] { delivered[1] = sim.now(); });
  });
  w.cluster.run(1'000.0, 1.0);

  EXPECT_DOUBLE_EQ(delivered[0], 102.0);
  EXPECT_DOUBLE_EQ(delivered[1], 125.0 + w.fetch_delay());
  EXPECT_EQ(sources, (std::vector<ServeSource>{
                         ServeSource::kPeerProbe, ServeSource::kPeerHit,
                         ServeSource::kPeerProbe, ServeSource::kCloudFetch}));
  EXPECT_EQ(cache.totals().coop_probes, 2u);
  EXPECT_EQ(cache.totals().coop_hits, 1u);
  EXPECT_EQ(w.probes.rounds_in_flight(0), 0u);
  EXPECT_EQ(w.probes.round_pool_size(0), 2u);
}

TEST(CoopProbeRounds, RequesterLeavingWhileProbesFlyGetsNothing) {
  World w(1, 1);
  EdgeCacheService& cache = w.cache(0);
  const CacheSlot a = cache.add_supernode(1, 1);
  const CacheSlot b = cache.add_supernode(2, 1);
  const CacheSlot c = cache.add_supernode(3, 1);
  w.probes.set_neighbors(0, a, {{b, 0, 1.0}, {c, 0, 10.0}});
  sim::Simulator& sim = w.cluster.sim(0);
  sim.schedule_at(0.0, [&] { cache.request(b, segment(7), [] {}); });

  int delivered_while_away = 0;
  TimeMs delivered_after_rejoin = -1.0;
  // A peer hit (content 7 at B) and an all-miss round (content 8) start;
  // A leaves before either resolves.
  sim.schedule_at(100.0, [&] {
    cache.request(a, segment(7), [&] { ++delivered_while_away; });
  });
  sim.schedule_at(101.0, [&] {
    cache.request(a, segment(8), [&] { ++delivered_while_away; });
  });
  sim.schedule_at(101.5, [&] { cache.remove_supernode(1); });
  std::size_t in_flight_away = 0;
  sim.schedule_at(121.5,
                  [&] { in_flight_away = w.probes.rounds_in_flight(0); });
  // Back with the same slot; a new round reuses a pooled one.
  sim.schedule_at(150.0, [&] {
    EXPECT_EQ(cache.add_supernode(1, 1), a);
  });
  sim.schedule_at(160.0, [&] {
    cache.request(a, segment(8),
                  [&] { delivered_after_rejoin = sim.now(); });
  });
  w.cluster.run(1'000.0, 1.0);

  EXPECT_EQ(delivered_while_away, 0);
  EXPECT_EQ(in_flight_away, 0u);  // both rounds drained their responses
  EXPECT_EQ(cache.totals().coop_hits, 0u);
  EXPECT_DOUBLE_EQ(delivered_after_rejoin, 180.0 + w.fetch_delay());
  EXPECT_EQ(w.probes.rounds_in_flight(0), 0u);
  EXPECT_EQ(w.probes.round_pool_size(0), 2u);
}

TEST(CoopProbeRounds, PoolHighWaterIsThePeakInFlightAcrossShards) {
  // Requester A alone on shard 0; peers B and C on shard 1, B holding every
  // even content. Every round lives 2 × 7 ms (C's answer), winners or not.
  World w(2, 2);
  EdgeCacheService& near = w.cache(0);
  EdgeCacheService& far = w.cache(1);
  const CacheSlot a = near.add_supernode(1, 1);
  const CacheSlot b = far.add_supernode(2, 1);
  const CacheSlot c = far.add_supernode(3, 1);
  w.probes.set_neighbors(0, a, {{b, 1, 3.0}, {c, 1, 7.0}});
  constexpr std::uint64_t kRounds = 40;
  for (std::uint64_t k = 0; k < kRounds; k += 2) {
    w.cluster.sim(1).schedule_at(0.0, [&far, b, k] {
      far.request(b, segment(k), [] {});
    });
  }
  std::vector<TimeMs> starts;
  std::vector<TimeMs> delivered(kRounds, -1.0);
  std::vector<int> deliveries(kRounds, 0);
  sim::Simulator& sim = w.cluster.sim(0);
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    // Uneven spacing: bursts of overlapping rounds between quiet gaps.
    const TimeMs t = 50.0 + 4.5 * static_cast<double>(k) +
                     (k >= 20 ? 60.0 : 0.0) - (k % 7 == 3 ? 2.25 : 0.0);
    starts.push_back(t);
    sim.schedule_at(t, [&, k] {
      near.request(a, segment(k), [&, k] {
        delivered[k] = sim.now();
        ++deliveries[k];
      });
    });
  }
  w.cluster.run(2'000.0, 3.0);

  for (std::uint64_t k = 0; k < kRounds; ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(deliveries[k], 1);
    const TimeMs expected = k % 2 == 0 ? starts[k] + 6.0
                                       : starts[k] + 14.0 + w.fetch_delay();
    EXPECT_DOUBLE_EQ(delivered[k], expected);
  }
  EXPECT_EQ(near.totals().coop_probes, kRounds);
  EXPECT_EQ(near.totals().coop_hits, kRounds / 2);
  EXPECT_EQ(w.probes.rounds_in_flight(0), 0u);
  EXPECT_EQ(w.probes.round_pool_size(0), peak_overlap(starts, 14.0));
  EXPECT_GE(w.probes.round_pool_size(0), 3u);
  EXPECT_EQ(w.probes.round_pool_size(1), 0u);  // shard 1 never asked
}

using Rows = std::vector<std::vector<std::pair<TimeMs, NodeId>>>;

/// The all-pairs scan the streaming engine's set-up ran before
/// rank_coop_neighbors, verbatim but for its inputs: every ordered pair
/// evaluated, the m best selected and sorted.
Rows all_pairs_scan(const net::Topology& topology,
                    const std::vector<NodeId>& supernodes,
                    std::size_t coop_neighbors) {
  Rows nearest;
  nearest.reserve(supernodes.size());
  std::vector<std::pair<TimeMs, NodeId>> ranked;
  for (const NodeId a : supernodes) {
    ranked.clear();
    ranked.reserve(supernodes.size() - 1);
    for (const NodeId b : supernodes) {
      if (b == a) continue;
      ranked.emplace_back(topology.expected_server_one_way_ms(a, b), b);
    }
    // (latency, NodeId) pairs are totally ordered, so selecting the m
    // best and sorting only those yields the full sort's first m.
    const std::size_t m = std::min(coop_neighbors, ranked.size());
    const auto mth = ranked.begin() + static_cast<std::ptrdiff_t>(m);
    std::nth_element(ranked.begin(), mth, ranked.end());
    std::sort(ranked.begin(), mth);
    nearest.emplace_back(ranked.begin(), mth);
  }
  return nearest;
}

/// `n` player hosts of `topology`, evenly spaced over all of them, in
/// ascending NodeId order.
std::vector<NodeId> spread_players(const net::Topology& topology,
                                   std::size_t n) {
  const std::vector<NodeId> players =
      topology.hosts_with_role(net::HostRole::kPlayer);
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(players[i * players.size() / n]);
  return out;
}

/// Every m the differential cases use for `n` supernodes: 1, 3, n - 1 and
/// n + 2 (so 0 for one supernode and more than there are peers).
std::vector<std::size_t> widths_for(std::size_t n) {
  std::vector<std::size_t> widths{1, 3, n + 2};
  if (n > 0) widths.push_back(n - 1);
  return widths;
}

void expect_matches_scan(const net::Topology& topology,
                         const std::vector<NodeId>& supernodes) {
  for (const std::size_t m : widths_for(supernodes.size())) {
    SCOPED_TRACE(::testing::Message() << "N = " << supernodes.size()
                                      << ", m = " << m);
    const Rows got = rank_coop_neighbors(topology, supernodes, m);
    const Rows want = all_pairs_scan(topology, supernodes, m);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << "row of supernode " << supernodes[i];
  }
}

TEST(CoopNeighborRanking, MatchesAllPairsScan) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Scenario simulation =
        Scenario::build(ScenarioParams::simulation_defaults(seed));
    const Scenario planetlab =
        Scenario::build(ScenarioParams::planetlab_defaults(seed));
    for (const std::size_t n : {0u, 1u, 2u, 3u, 60u, 600u}) {
      {
        SCOPED_TRACE("simulation");
        expect_matches_scan(simulation.topology(),
                            spread_players(simulation.topology(), n));
      }
      {
        SCOPED_TRACE("PlanetLab");
        expect_matches_scan(planetlab.topology(),
                            spread_players(planetlab.topology(), n));
      }
    }
  }
}

TEST(CoopNeighborRanking, MatchesAllPairsScanOnBoundTies) {
  // No route floor: a coincident pair's latency is exactly its last-mile
  // bound. Last miles repeat exactly, or differ by one ulp that the sum
  // with the server side rounds away, so equal bounds arise from unequal
  // keys: NodeId 0 sorts after NodeIds 1 and 2 by key but ties them on
  // latency and must still win. Every fifth host sits elsewhere.
  net::LatencyParams params = net::LatencyParams::simulation_profile(3);
  params.hops_base = 0.0;
  net::Topology topology{net::LatencyModel{params}};
  const net::GeoPoint new_york{40.7, -74.0};
  const net::GeoPoint chicago{41.9, -87.6};
  const TimeMs one_ulp_up = std::nextafter(1.0, 2.0);
  for (int i = 0; i < 30; ++i) {
    const TimeMs last_mile = i % 3 == 0 ? one_ulp_up : 1.0;
    const TimeMs server_last_mile = i % 2 == 0 ? 3.0 : 1.0;
    topology.add_host(net::HostRole::kPlayer, i % 5 == 4 ? chicago : new_york,
                      last_mile, {}, server_last_mile);
  }
  std::vector<NodeId> all(30);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);
  expect_matches_scan(topology, all);
}

TEST(CoopNeighborRanking, MatchesAllPairsScanWithATrace) {
  // A trace ignores last miles: one constant latency over the first 400
  // hosts makes every traced pair tie, decided by NodeId alone, while the
  // pairs beyond the trace keep the model.
  net::LatencyTrace trace(400);
  for (NodeId a = 0; a < 400; ++a) {
    for (NodeId b = a + 1; b < 400; ++b) trace.set_one_way_ms(a, b, 1.5);
  }
  net::Topology topology = net::build_planetlab_topology(750, 4);
  topology.attach_trace(&trace);
  for (const std::size_t n : {3u, 60u, 600u})
    expect_matches_scan(topology, spread_players(topology, n));
}

TEST(CoopNeighborRanking, EvaluatesAFractionOfThePairs) {
  // Guards against a silent return to the full scan.
  const Scenario scenario =
      Scenario::build(ScenarioParams::simulation_defaults(1));
  std::vector<NodeId> supernodes;
  for (const std::size_t p : scenario.supernode_players())
    supernodes.push_back(scenario.player_host(p));
  std::sort(supernodes.begin(), supernodes.end());
  ASSERT_EQ(supernodes.size(), 600u);

  obs::MetricsRegistry registry;
  Rows rows;
  {
    obs::ScopedRegistry install(registry);
    rows = rank_coop_neighbors(scenario.topology(), supernodes, 3);
  }
  const obs::Counter* pairs = registry.find_counter("net.latency.pair_queries");
  ASSERT_NE(pairs, nullptr);
  const double all_pairs = 600.0 * 599.0;
  EXPECT_GT(pairs->value(), 0u);
  EXPECT_LE(static_cast<double>(pairs->value()), 0.30 * all_pairs)
      << pairs->value() << " of " << all_pairs << " pairs evaluated";
  EXPECT_EQ(rows, all_pairs_scan(scenario.topology(), supernodes, 3));
}

}  // namespace
}  // namespace cloudfog::systems
