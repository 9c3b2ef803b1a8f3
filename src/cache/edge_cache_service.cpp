#include "cache/edge_cache_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "game/quality.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace cloudfog::cache {
namespace {

// Hot-counter byte scale: the codebase accounts in kbit, the exported
// counters in bytes (1 kbit = 125 bytes).
constexpr double kBytesPerKbit = 125.0;

// The ladder-nominal size of a variant: level bitrate × segment duration.
// Cache accounting and delay models use this, NOT the per-player encoded
// size_kbit, so every player requesting the same (game, content, level)
// agrees on what the cached object weighs.
Kbit nominal_kbit(const stream::VideoSegment& segment) {
  const game::QualityLevel& q = game::quality_for_level(segment.quality_level);
  return q.bitrate_kbps * segment.duration_ms / 1000.0;
}

// The first (NodeId, slot) entry of the sorted index not below `node`.
template <typename Index>
auto find_node(Index& index, NodeId node) {
  return std::lower_bound(
      index.begin(), index.end(), node,
      [](const auto& entry, NodeId n) { return entry.first < n; });
}

}  // namespace

EdgeCacheService::EdgeCacheService(sim::Simulator& sim,
                                   EdgeCacheServiceConfig config)
    : config_(config),
      policy_(config.admission),
      transcoder_(sim, config.admission.transcode) {
  CF_CHECK_MSG(config.kbit_per_slot >= 0.0,
               "per-slot cache capacity must be >= 0");
}

CacheSlot EdgeCacheService::reserve_slot(NodeId node) {
  CF_CHECK_MSG(node != kInvalidNode, "cache needs a real supernode id");
  const auto it = find_node(slots_, node);
  if (it != slots_.end() && it->first == node) return it->second;
  const CacheSlot slot{static_cast<std::uint32_t>(caches_.size())};
  CF_CHECK_MSG(slot != kNoSlot, "too many supernodes for one cache service");
  caches_.emplace_back();
  slots_.insert(it, {node, slot});
  return slot;
}

CacheSlot EdgeCacheService::add_supernode(NodeId node, int capacity_slots) {
  CF_CHECK_MSG(capacity_slots >= 0, "capacity slots must be >= 0");
  const CacheSlot slot = reserve_slot(node);
  std::optional<SegmentCache>& cache = caches_[to_index(slot)];
  CF_CHECK_MSG(!cache, "supernode already has a cache");
  cache.emplace(config_.kbit_per_slot * capacity_slots);
  return slot;
}

void EdgeCacheService::remove_supernode(NodeId node) {
  const CacheSlot slot = slot_of(node);
  CF_CHECK_MSG(live(slot) != nullptr, "removing a supernode with no cache");
  totals_.cancelled_jobs += transcoder_.cancel_owner(to_index(slot));
  caches_[to_index(slot)].reset();
  // Churn contract: nothing of the node survives — its cache entries are
  // gone with the SegmentCache, and no job it owned can fire later.
  CF_CHECK_MSG(live(slot) == nullptr &&
                   transcoder_.in_flight(to_index(slot)) == 0,
               "cache state outlived its owning supernode");
}

CacheSlot EdgeCacheService::slot_of(NodeId node) const {
  const auto it = find_node(slots_, node);
  return it != slots_.end() && it->first == node ? it->second : kNoSlot;
}

bool EdgeCacheService::has_supernode(NodeId node) const {
  const CacheSlot slot = slot_of(node);
  return slot != kNoSlot && caches_[to_index(slot)].has_value();
}

const SegmentCache& EdgeCacheService::node_cache(NodeId node) const {
  const CacheSlot slot = slot_of(node);
  CF_CHECK_MSG(slot != kNoSlot && caches_[to_index(slot)].has_value(),
               "no cache registered for this supernode");
  return *caches_[to_index(slot)];
}

std::uint64_t EdgeCacheService::content_index(
    const stream::VideoSegment& segment) const {
  CF_CHECK_MSG(segment.duration_ms > 0.0, "segment needs a positive duration");
  const auto index = static_cast<std::uint64_t>(
      std::floor(segment.action_time_ms / segment.duration_ms));
  if (config_.content_loop_segments == 0) return index;
  return index % config_.content_loop_segments;
}

void EdgeCacheService::admit(SegmentCache& cache, const SegmentKey& key,
                             Kbit out_kbit) {
  const std::uint64_t before = cache.evictions();
  cache.insert(key, out_kbit);
  totals_.evictions += cache.evictions() - before;
}

void EdgeCacheService::schedule_admit(CacheSlot node, TimeMs delay_ms,
                                      SegmentKey key, Kbit out_kbit,
                                      DeliverFn deliver) {
  transcoder_.schedule(
      to_index(node), delay_ms,
      [this, node, key, out_kbit, deliver = std::move(deliver)] {
        SegmentCache* cache = live(node);
        CF_CHECK_MSG(cache != nullptr,
                     "deferred job completed on a removed supernode");
        admit(*cache, key, out_kbit);
        deliver();
      });
}

EdgeCacheService::ServeOutcome EdgeCacheService::request(
    CacheSlot node, const stream::VideoSegment& segment, DeliverFn deliver) {
  CF_CHECK_MSG(static_cast<bool>(deliver), "request needs a delivery");
  SegmentCache* cache_ptr = live(node);
  CF_CHECK_MSG(cache_ptr != nullptr, "request on a supernode with no cache");
  SegmentCache& cache = *cache_ptr;

  const SegmentKey key = key_of(segment);
  const std::uint64_t index = key.content_index;
  const Kbit out_kbit = nominal_kbit(segment);
  // An exact variant always wins (a hit), so finding it refreshes it too.
  const bool cached_exact = cache.touch(key);
  const int ancestor =
      cached_exact ? 0
                   : cache.best_ancestor_level(segment.game, index,
                                               segment.quality_level);
  const JointAdmissionPolicy::Decision decision =
      policy_.decide(cached_exact, ancestor != 0, out_kbit);

  ServeOutcome outcome;
  outcome.source = decision.source;
  outcome.delay_ms = decision.delay_ms;
  outcome.content_kbit = out_kbit;

  switch (decision.source) {
    case ServeSource::kCacheHit: {
      CF_CHECK_MSG(cached_exact, "hit decided on an uncached key");
      totals_.hits += 1;
      totals_.bytes_edge_kbit += out_kbit;
      CF_OBS_COUNT_HOT("cache.hits", 1);
      CF_OBS_COUNT_HOT("cache.bytes_edge",
                       static_cast<std::uint64_t>(out_kbit * kBytesPerKbit));
      deliver();
      break;
    }
    case ServeSource::kTranscode: {
      outcome.transcoded_from = ancestor;
      const SegmentKey src{segment.game, index, ancestor};
      CF_CHECK_MSG(cache.touch(src),
                   "transcode decided without a cached ancestor");
      // The output variant is admitted when the job completes, but the
      // decision/accounting happen now — the simulation stays a pure
      // function of request order either way; admit-on-complete just
      // mirrors when the bytes exist.
      totals_.misses += 1;
      totals_.transcodes += 1;
      totals_.bytes_edge_kbit += out_kbit;
      CF_OBS_COUNT_HOT("cache.misses", 1);
      CF_OBS_COUNT_HOT("cache.transcodes", 1);
      CF_OBS_COUNT_HOT("cache.bytes_edge",
                       static_cast<std::uint64_t>(out_kbit * kBytesPerKbit));
      schedule_admit(node, decision.delay_ms, key, out_kbit,
                     std::move(deliver));
      break;
    }
    case ServeSource::kCloudFetch: {
      // Cooperative path: a peer supernode may hold the variant. The
      // interceptor moves the delivery out only when it takes over, so a
      // false return leaves the plain fetch below fully intact.
      if (interceptor_ && interceptor_(node, segment, out_kbit, deliver)) {
        outcome.source = ServeSource::kPeerProbe;
        outcome.delay_ms = 0.0;  // unknown until the protocol resolves
        totals_.misses += 1;
        totals_.coop_probes += 1;
        CF_OBS_COUNT_HOT("cache.misses", 1);
        CF_OBS_COUNT_HOT("cache.coop_probes", 1);
        break;
      }
      totals_.misses += 1;
      totals_.bytes_cloud_kbit += out_kbit;
      CF_OBS_COUNT_HOT("cache.misses", 1);
      CF_OBS_COUNT_HOT("cache.bytes_cloud",
                       static_cast<std::uint64_t>(out_kbit * kBytesPerKbit));
      schedule_admit(node, decision.delay_ms, key, out_kbit,
                     std::move(deliver));
      break;
    }
    case ServeSource::kPeerProbe:
    case ServeSource::kPeerHit:
      CF_CHECK_MSG(false, "admission policy never decides a peer source");
      break;
  }
  if (observer_) observer_(node, segment, outcome);
  return outcome;
}

bool EdgeCacheService::probe_hit(CacheSlot node, const SegmentKey& key) {
  SegmentCache* cache = live(node);
  if (cache == nullptr) return false;  // probe raced churn: peer is gone
  const bool hit = cache->touch(key);
  CF_OBS_COUNT_HOT("cache.coop_probe_hits", hit ? 1 : 0);
  return hit;
}

void EdgeCacheService::complete_peer_fetch(CacheSlot node,
                                           const stream::VideoSegment& segment,
                                           DeliverFn deliver) {
  CF_CHECK_MSG(static_cast<bool>(deliver), "peer fetch needs a delivery");
  SegmentCache* cache = live(node);
  if (cache == nullptr) return;  // requester left while probes flew
  const Kbit out_kbit = nominal_kbit(segment);
  totals_.coop_hits += 1;
  totals_.bytes_peer_kbit += out_kbit;
  CF_OBS_COUNT_HOT("cache.coop_hits", 1);
  CF_OBS_COUNT_HOT("cache.bytes_peer",
                   static_cast<std::uint64_t>(out_kbit * kBytesPerKbit));
  admit(*cache, key_of(segment), out_kbit);
  ServeOutcome outcome;
  outcome.source = ServeSource::kPeerHit;
  outcome.content_kbit = out_kbit;
  if (observer_) observer_(node, segment, outcome);
  deliver();
}

void EdgeCacheService::cloud_fetch_fallback(CacheSlot node,
                                            const stream::VideoSegment& segment,
                                            DeliverFn deliver) {
  CF_CHECK_MSG(static_cast<bool>(deliver), "fallback fetch needs a delivery");
  if (live(node) == nullptr) return;  // requester left while probes flew
  const Kbit out_kbit = nominal_kbit(segment);
  const TimeMs delay = policy_.fetch_delay_ms(out_kbit);
  // The miss was already counted when the probe round started; only the
  // cloud egress is new information here.
  totals_.bytes_cloud_kbit += out_kbit;
  CF_OBS_COUNT_HOT("cache.bytes_cloud",
                   static_cast<std::uint64_t>(out_kbit * kBytesPerKbit));
  schedule_admit(node, delay, key_of(segment), out_kbit, std::move(deliver));
  ServeOutcome outcome;
  outcome.source = ServeSource::kCloudFetch;
  outcome.delay_ms = delay;
  outcome.content_kbit = out_kbit;
  if (observer_) observer_(node, segment, outcome);
}

}  // namespace cloudfog::cache
