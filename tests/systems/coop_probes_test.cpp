// The cooperative probe protocol's round pool (systems/coop_probes.h): a
// round's slot is recycled only after its last response, so responses of
// ranks after the winner, a requester that leaves while its probes fly and
// back-to-back rounds all see their own round. The pool's size is its
// high-water mark and must equal the peak number of rounds in flight.
#include "systems/coop_probes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "cache/edge_cache_service.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "stream/video.h"

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

}  // namespace
}  // namespace cloudfog::systems
