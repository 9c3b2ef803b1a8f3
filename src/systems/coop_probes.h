// The cooperative cache lookup protocol of a streaming run — DESIGN.md §13,
// "Cooperative cache lookups".
//
// With the segment cache on, a supernode whose request would fall through
// to a cloud fetch first probes its m nearest peers, in rank order. A probe
// is an event on the peer's shard (it touches the peer's LRU), its response
// an event back on the requester's; both cross shards through the cluster's
// inboxes when the two supernodes live apart. The requester resolves in rank
// order: the lowest-rank hit wins once every lower rank has answered, and
// all-miss falls back to the cloud fetch — invariant in the order responses
// arrive, and so in the shard count.
//
// Shard-local by construction: a probe message carries everything the peer
// needs (requester shard, round slot, rank, the neighbour's slot and
// latency, the variant's size and content key), and a response carries
// (round slot, rank, hit). No shard ever reads another shard's rounds.
//
// Allocation-free in steady state: each shard keeps its rounds in a pool (a
// vector plus a free list), messages are the engine's inline-storage
// callbacks, and a round's response table keeps its capacity when the round
// is reused. A round's slot is recycled only when its *last* response is
// back, not when it resolves: ranks after the winner still answer into it.
//
// The rank order itself comes from rank_coop_neighbors, once per run at
// set-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cache/edge_cache_service.h"
#include "net/topology.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "stream/video.h"
#include "util/types.h"

namespace cloudfog::systems {

/// One entry of a supernode's probe rank order: one of the m nearest other
/// supernodes by (expected one-way latency, NodeId).
struct CoopNeighbor {
  cache::CacheSlot slot = cache::kNoSlot;  // in its own shard's service
  std::uint32_t shard = 0;
  TimeMs latency_ms = 0.0;  // expected one-way, each direction
};

/// Each supernode's probe rank order, before slots and shards are known:
/// row i holds the min(m, N - 1) other supernodes nearest to
/// `supernodes[i]` by (expected_server_one_way_ms(supernodes[i], b), b),
/// ascending; N rows in all. `supernodes` must be in strictly ascending
/// NodeId order. Bit-identical to ranking every pair, but a row stops at
/// the first peer whose last-mile bound already loses (DESIGN.md §13).
std::vector<std::vector<std::pair<TimeMs, NodeId>>> rank_coop_neighbors(
    const net::Topology& topology, std::span<const NodeId> supernodes,
    std::size_t m);

class CoopProbes {
 public:
  /// A protocol over `shard_count` shards; a hit's response additionally
  /// waits for the variant to cross at `coop_kbps` (0: no transfer time).
  CoopProbes(std::size_t shard_count, Kbps coop_kbps);
  // Pending messages and the installed interceptors hold `this`.
  CoopProbes(const CoopProbes&) = delete;
  CoopProbes& operator=(const CoopProbes&) = delete;

  /// The probe rank order of the supernode at `node` on shard `s`. A node
  /// without one fetches from the cloud.
  void set_neighbors(std::size_t s, cache::CacheSlot node,
                     std::vector<CoopNeighbor> neighbors);

  /// Installs the protocol as shard `s`'s fetch interceptor; its messages
  /// run on `cluster`'s engines. Attach every shard before the run.
  void attach(shard::ShardCluster& cluster, std::size_t s,
              cache::EdgeCacheService& cache);

  /// Rounds of shard `s` whose last response is not back yet.
  std::size_t rounds_in_flight(std::size_t s) const {
    return shards_[s].rounds.size() - shards_[s].free_rounds.size();
  }
  /// Round records shard `s` has allocated: the most ever in flight at once.
  std::size_t round_pool_size(std::size_t s) const {
    return shards_[s].rounds.size();
  }

 private:
  /// One cooperative lookup, owned by the requester's shard.
  struct ProbeRound {
    enum class Resp : std::uint8_t { kPending, kHit, kMiss };
    cache::CacheSlot requester = cache::kNoSlot;
    std::uint32_t outstanding = 0;  // responses not back yet
    bool resolved = false;
    stream::VideoSegment segment;
    cache::EdgeCacheService::DeliverFn deliver;
    std::vector<Resp> responses;  // by neighbour rank
  };
  struct alignas(64) ShardState {
    cache::EdgeCacheService* cache = nullptr;
    std::vector<std::vector<CoopNeighbor>> neighbors;  // by requester slot
    std::vector<ProbeRound> rounds;
    std::vector<std::uint32_t> free_rounds;
  };

  /// The interceptor: starts a round when `node` has neighbours.
  bool start(std::uint32_t s, cache::CacheSlot node,
             const stream::VideoSegment& segment, Kbit kbit,
             cache::EdgeCacheService::DeliverFn& deliver);
  /// Peer side: probes the neighbour's cache and sends the answer back.
  void probe(std::uint32_t requester_shard, std::uint32_t round,
             std::uint32_t rank, const CoopNeighbor& nb, Kbit kbit,
             const cache::SegmentKey& key);
  /// Requester side: records one answer; resolves and recycles the round.
  void on_response(std::uint32_t s, std::uint32_t round, std::uint32_t rank,
                   bool hit);
  /// Same-shard messages are plain engine events (the inbox rejects
  /// src == dst); cross-shard ones go through the cluster.
  void post(std::size_t src, std::size_t dst, TimeMs when,
            sim::Simulator::Callback fn);

  shard::ShardCluster* cluster_ = nullptr;
  Kbps coop_kbps_;
  std::vector<ShardState> shards_;
};

}  // namespace cloudfog::systems
