// Zero-allocation proof for the cache serve path (DESIGN.md §11, §14): a
// global operator-new interposer counts every heap allocation in the
// process, and the steady-state window of a sustained cached run — cache
// hits, down-ladder transcodes, cloud fetches, cooperative probe rounds with
// their peer hits and cloud fallbacks, same-shard and across a 2-shard
// ShardCluster — must perform none.
//
// This file replaces ::operator new/delete for its whole binary, so it gets
// a test binary of its own (cache_alloc_tests), as packet_alloc_test.cpp
// does.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "cache/edge_cache_service.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "stream/video.h"
#include "systems/coop_probes.h"

namespace {

// Plain (non-atomic) state: the cluster runs its shards inline (one
// worker), and the counter must itself stay allocation- and lock-free.
bool g_counting = false;
std::uint64_t g_allocs = 0;

void note_alloc() {
  if (g_counting) ++g_allocs;
}

}  // namespace

void* operator new(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cloudfog::systems {
namespace {

using cache::CacheSlot;
using cache::CacheTotals;
using cache::EdgeCacheService;

constexpr TimeMs kTickMs = 10.0;
constexpr TimeMs kWarmupMs = 4'000.0;
constexpr TimeMs kMeasureMs = 4'000.0;

stream::VideoSegment segment(int level, TimeMs action_ms) {
  stream::VideoSegment seg;
  seg.game = 1;
  seg.quality_level = level;
  seg.duration_ms = 100.0;
  seg.size_kbit = 100.0;
  seg.action_time_ms = action_ms;
  seg.deadline_ms = action_ms + 70.0;
  return seg;
}

CacheTotals minus(const CacheTotals& a, const CacheTotals& b) {
  CacheTotals d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.transcodes = a.transcodes - b.transcodes;
  d.coop_probes = a.coop_probes - b.coop_probes;
  d.coop_hits = a.coop_hits - b.coop_hits;
  return d;
}

/// Requesters A (probing peers B and D) and D (no peers) sit on shard 0;
/// peer B on the last shard. Each tick A and D ask for the current content
/// at level 5 or 3 in a three-tick cycle — fetches, transcodes from a
/// cached level 5, hits — and every other tick B asks for the content half
/// a content period ahead at level 5, so A's probes find some variants and
/// miss others. Small caches on A and D keep evicting: misses never stop.
void run_cached_load(std::size_t shards) {
  shard::ShardCluster cluster(shards, /*workers=*/1);
  cache::EdgeCacheServiceConfig cfg;
  cfg.kbit_per_slot = 300.0;
  cfg.content_loop_segments = 16;
  cfg.admission.egress_cost_ms_per_kbit = 0.05;  // transcode beats fetch
  // In place, not through new: GCC would pair an inlined new-expression
  // with this file's operator delete and flag the malloc/free mix.
  std::array<std::optional<EdgeCacheService>, 2> caches;
  CoopProbes probes(shards, /*coop_kbps=*/20'000.0);
  for (std::size_t s = 0; s < shards; ++s) {
    caches[s].emplace(cluster.sim(s), cfg);
    probes.attach(cluster, s, *caches[s]);
  }
  const std::size_t far = shards - 1;
  EdgeCacheService& near_cache = *caches[0];
  EdgeCacheService& far_cache = *caches[far];
  const CacheSlot a = near_cache.add_supernode(1, 1);
  const CacheSlot d = near_cache.add_supernode(4, 1);
  const CacheSlot b = far_cache.add_supernode(2, 4);
  probes.set_neighbors(0, a, {{b, static_cast<std::uint32_t>(far), 4.0},
                              {d, 0, 6.0}});

  std::uint64_t delivered = 0;
  std::uint64_t tick = 0;
  sim::Simulator& near_sim = cluster.sim(0);
  sim::Simulator& far_sim = cluster.sim(far);
  near_sim.schedule_every(kTickMs, kTickMs, [&] {
    ++tick;
    const TimeMs now = near_sim.now();
    near_cache.request(a, segment(tick % 3 == 0 ? 5 : 3, now),
                       [&] { ++delivered; });
    near_cache.request(d, segment(tick % 3 == 1 ? 5 : 3, now),
                       [&] { ++delivered; });
  });
  far_sim.schedule_every(kTickMs, 2.0 * kTickMs, [&] {
    far_cache.request(b, segment(5, far_sim.now() + 50.0),
                      [&] { ++delivered; });
  });

  // The window opens and closes inside the run, from a periodic event: a
  // one-shot's slot release would itself grow the engine's free list.
  CacheTotals near_before;
  std::uint64_t delivered_before = 0;
  int meter_fires = 0;
  near_sim.schedule_every(kWarmupMs, kMeasureMs, [&] {
    if (++meter_fires == 1) {
      near_before = near_cache.totals();
      delivered_before = delivered;
      g_allocs = 0;
      g_counting = true;
    } else {
      g_counting = false;
    }
  });
  cluster.run(kWarmupMs + kMeasureMs + 100.0, 4.0);
  g_counting = false;

  // The window did every kind of work...
  const CacheTotals got = minus(near_cache.totals(), near_before);
  EXPECT_GT(delivered, delivered_before + 500u);
  EXPECT_GT(got.hits, 0u);
  EXPECT_GT(got.transcodes, 0u);
  EXPECT_GT(got.misses, got.transcodes + got.coop_probes);  // plain fetches
  EXPECT_GT(got.coop_probes, got.coop_hits);                // fallbacks
  EXPECT_GT(got.coop_hits, 0u);
  EXPECT_GT(probes.round_pool_size(0), 0u);
  // ...and none of it touched the heap.
  EXPECT_EQ(g_allocs, 0u);
}

TEST(CacheAllocInterposer, SameShardSteadyStateIsAllocationFree) {
  run_cached_load(1);
}

TEST(CacheAllocInterposer, CrossShardSteadyStateIsAllocationFree) {
  run_cached_load(2);
}

}  // namespace
}  // namespace cloudfog::systems
