// The supernode-fleet cache/compute service — DESIGN.md §11.
//
// One EdgeCacheService instance per simulation run owns the per-supernode
// SegmentCache set, the Transcoder (deferred-job scheduler) and the
// JointAdmissionPolicy, and makes the hit / transcode / fetch decision for
// every submitted segment:
//
//   request(node, segment, deliver)
//     -> kCacheHit:    deliver() runs inline (no added delay);
//     -> kTranscode:   deliver() fires after the modelled CPU delay,
//                      scheduled on the event engine, owned by `node`;
//     -> kCloudFetch:  deliver() fires after the modelled transfer delay;
//                      the fetched kbits count as cloud egress.
//
// Content addressing: content_index = floor(action_time / duration),
// optionally folded modulo `content_loop_segments` — the content-reuse
// model. A loop of N says the game's visible content (scene library, map
// tiles, spectator feed) revisits an N-segment timeline, which is what an
// edge cache can exploit; 0 means every segment is unique forever and the
// cache can only help across co-located same-game players. DESIGN.md §11
// discusses why this is the honest knob rather than a hidden assumption.
//
// Determinism: decisions are pure functions of (cache state, key, ladder);
// caches and jobs sit in dense per-supernode slots and are never iterated;
// delivery order is event-engine order. A run with the service enabled is
// bit-identical across repeats and --jobs widths (tests/integration pins
// this).
//
// Slots: a supernode's first registration gives it a dense CacheSlot, the
// next free index; it keeps that slot across leave and re-join. The serving
// calls take the slot, so a request indexes its cache directly; only the
// registration calls, which name the NodeId, search the sorted id index.
//
// Churn: remove_supernode cancels the node's in-flight jobs through the
// slab engine's O(1) cancel and releases its cache; a CF_CHECK enforces
// that no cache entry outlives its owning supernode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "cache/admission.h"
#include "cache/segment_cache.h"
#include "cache/transcoder.h"
#include "sim/simulator.h"
#include "stream/video.h"
#include "util/small_function.h"
#include "util/types.h"

namespace cloudfog::cache {

/// A supernode's dense index in one EdgeCacheService (see "Slots" above).
enum class CacheSlot : std::uint32_t {};
inline constexpr CacheSlot kNoSlot{std::numeric_limits<std::uint32_t>::max()};
constexpr std::uint32_t to_index(CacheSlot slot) {
  return static_cast<std::uint32_t>(slot);
}

struct EdgeCacheServiceConfig {
  /// Cache capacity per supernode capacity slot (total = slots × this) —
  /// capacity proportional to node capacity, like the uplink.
  double kbit_per_slot = 4'000.0;
  /// Content-reuse period in segments; 0 = all content unique.
  std::uint64_t content_loop_segments = 32;
  AdmissionConfig admission{};
};

/// Aggregate statistics over the whole fleet (misses = transcodes +
/// fetches: every request not served by an exact cached variant).
struct CacheTotals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t transcodes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t cancelled_jobs = 0;
  std::uint64_t coop_probes = 0;  // misses handed to the peer protocol
  std::uint64_t coop_hits = 0;    // of those, resolved out of a peer cache
  double bytes_edge_kbit = 0.0;   // served without touching the cloud
  double bytes_cloud_kbit = 0.0;  // fetched over the cloud's uplink
  double bytes_peer_kbit = 0.0;   // transferred supernode-to-supernode

  std::uint64_t fetches() const { return misses - transcodes; }
};

class EdgeCacheService {
 public:
  /// How one request was (or is being) served.
  struct ServeOutcome {
    ServeSource source = ServeSource::kCloudFetch;
    TimeMs delay_ms = 0.0;      // added before the sender sees the segment
    Kbit content_kbit = 0.0;    // ladder-nominal variant size
    int transcoded_from = 0;    // ancestor level (kTranscode only)
  };

  /// Observer of every decision, called synchronously at request time —
  /// how the streaming harness attributes egress to measurement windows.
  using ServeObserver =
      util::small_function<void(CacheSlot node,
                                const stream::VideoSegment& segment,
                                const ServeOutcome& outcome)>;
  /// Inline capture budget of a delivery: a sender's (this, segment) or a
  /// streaming player's (this, slot, segment).
  static constexpr std::size_t kDeliverCapacity = 88;
  using DeliverFn = util::small_function<void(), kDeliverCapacity>;

  /// Cooperative-fetch hook: consulted in the kCloudFetch branch of
  /// request() before any cloud accounting happens. Returning true means
  /// the interceptor took over sourcing the variant and moved `deliver` out
  /// (peer probes are in flight; it will eventually call
  /// complete_peer_fetch or cloud_fetch_fallback, which own the delivery);
  /// the request is counted as a miss + coop probe and the observer sees
  /// kPeerProbe. Returning false leaves `deliver` alone and falls through
  /// to the plain cloud fetch, bit-identical to having no interceptor
  /// installed.
  using FetchInterceptor = util::small_function<bool(
      CacheSlot node, const stream::VideoSegment& segment, Kbit content_kbit,
      DeliverFn& deliver)>;

  EdgeCacheService(sim::Simulator& sim, EdgeCacheServiceConfig config);
  // Deferred jobs hold `this`.
  EdgeCacheService(const EdgeCacheService&) = delete;
  EdgeCacheService& operator=(const EdgeCacheService&) = delete;

  /// The slot of `node`: its existing one, or the next free index, without
  /// registering a cache (a node that joins later keeps this slot).
  CacheSlot reserve_slot(NodeId node);

  /// Registers a supernode's cache, sized `capacity_slots × kbit_per_slot`,
  /// and returns its slot.
  CacheSlot add_supernode(NodeId node, int capacity_slots);

  /// Releases a departing supernode: cancels its in-flight jobs (O(1) slab
  /// cancel each) and frees its cache entries. CF_CHECKed: the node must
  /// be registered, and nothing of it survives the call. Its slot stays.
  void remove_supernode(NodeId node);

  /// The slot `node` was given, or kNoSlot.
  CacheSlot slot_of(NodeId node) const;
  bool has_supernode(NodeId node) const;

  /// Decides and serves one segment request on `node`. `deliver` runs
  /// inline for cache hits and after the modelled delay otherwise; it must
  /// stay valid until it fires or the node is removed.
  ServeOutcome request(CacheSlot node, const stream::VideoSegment& segment,
                       DeliverFn deliver);

  /// Installs/clears the decision observer. Optional: null just disables
  /// observation; request() null-guards before invoking.
  void set_serve_observer(ServeObserver observer) {
    observer_ = std::move(observer);
  }

  /// Installs/clears the cooperative-fetch interceptor. With none (the
  /// default) the service behaves exactly as before this hook existed.
  void set_fetch_interceptor(FetchInterceptor interceptor) {
    interceptor_ = std::move(interceptor);
  }

  // ---- cooperative-protocol state operations -----------------------------
  // The messaging (probe propagation delays, response collection, winner
  // choice) lives with the caller — the space-parallel shard runner — so
  // the service stays a single-simulator state machine. These three are the
  // only state transitions the protocol needs.

  /// Peer-side probe: does `node` hold the variant `key` right now? A hit
  /// refreshes the entry's LRU position (the peer is serving real bytes).
  /// A probe on a departed supernode is a miss, not an error — probes race
  /// churn by design.
  bool probe_hit(CacheSlot node, const SegmentKey& key);

  /// Requester-side resolution of a successful peer fetch: admits the
  /// variant into `node`'s cache, accounts the supernode-to-supernode
  /// transfer, notifies the observer (kPeerHit) and runs `deliver`.
  void complete_peer_fetch(CacheSlot node, const stream::VideoSegment& segment,
                           DeliverFn deliver);

  /// Requester-side resolution when every peer missed: the plain cloud
  /// fetch, started now (delay + admission + delivery as in request()'s
  /// kCloudFetch branch; observer sees kCloudFetch).
  void cloud_fetch_fallback(CacheSlot node, const stream::VideoSegment& segment,
                            DeliverFn deliver);

  /// Fleet-wide counters (cumulative; removal of a node keeps its past
  /// contribution).
  const CacheTotals& totals() const { return totals_; }

  const JointAdmissionPolicy& policy() const { return policy_; }
  const Transcoder& transcoder() const { return transcoder_; }
  /// Test/diagnostic inspection of one node's cache.
  const SegmentCache& node_cache(NodeId node) const;

  /// The content timeline index a segment maps to (loop folding applied).
  std::uint64_t content_index(const stream::VideoSegment& segment) const;
  /// The content address of the variant `segment` asks for.
  SegmentKey key_of(const stream::VideoSegment& segment) const {
    return {segment.game, content_index(segment), segment.quality_level};
  }

 private:
  /// The cache of a registered node, or null for a departed or unknown one.
  SegmentCache* live(CacheSlot node) {
    return to_index(node) < caches_.size() && caches_[to_index(node)]
               ? &*caches_[to_index(node)]
               : nullptr;
  }
  /// Admits `key` into `node`'s cache and runs `deliver` after `delay_ms`;
  /// the job is cancelled if the node leaves first.
  void schedule_admit(CacheSlot node, TimeMs delay_ms, SegmentKey key,
                      Kbit out_kbit, DeliverFn deliver);
  /// Admits `key` now and counts the evictions it causes.
  void admit(SegmentCache& cache, const SegmentKey& key, Kbit out_kbit);

  EdgeCacheServiceConfig config_;
  JointAdmissionPolicy policy_;
  Transcoder transcoder_;
  // By slot; empty while the node is away. Never iterated.
  std::vector<std::optional<SegmentCache>> caches_;
  // (NodeId, slot), sorted by NodeId: the registration calls' lookup.
  std::vector<std::pair<NodeId, CacheSlot>> slots_;
  CacheTotals totals_;
  ServeObserver observer_;
  FetchInterceptor interceptor_;
};

}  // namespace cloudfog::cache
