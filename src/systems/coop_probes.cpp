#include "systems/coop_probes.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/check.h"

namespace cloudfog::systems {

std::vector<std::vector<std::pair<TimeMs, NodeId>>> rank_coop_neighbors(
    const net::Topology& topology, std::span<const NodeId> supernodes,
    std::size_t m) {
  CF_CHECK_MSG(std::adjacent_find(supernodes.begin(), supernodes.end(),
                                  std::greater_equal<>()) == supernodes.end(),
               "supernodes must be in strictly ascending NodeId order");
  using Ranked = std::pair<TimeMs, NodeId>;
  const std::size_t n = supernodes.size();
  const std::size_t width = n == 0 ? 0 : std::min(m, n - 1);
  // A modelled latency is fl(fl(route·bias + server_last_mile(a)) +
  // last_mile(b)) with route·bias >= 0, and rounding is monotone, so it is
  // never below fl(server_last_mile(a) + last_mile(b)): with peers in
  // ascending last-mile order, a row is complete at the first peer whose
  // bound exceeds its m-th best. An equal bound may still win on NodeId. A
  // trace ignores last miles, so every key is 0 and each row runs to the
  // end.
  const bool traced = topology.has_trace();
  std::vector<Ranked> by_last_mile;
  by_last_mile.reserve(n);
  for (const NodeId b : supernodes)
    by_last_mile.emplace_back(traced ? 0.0 : topology.host(b).last_mile_ms, b);
  std::sort(by_last_mile.begin(), by_last_mile.end());

  std::vector<std::vector<Ranked>> rows(n);
  if (width == 0) return rows;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId a = supernodes[i];
    const TimeMs own = traced ? 0.0 : topology.host(a).server_last_mile_ms;
    std::vector<Ranked>& best = rows[i];  // sorted, at most `width`
    best.reserve(width);
    for (const auto& [key, b] : by_last_mile) {
      if (best.size() == width && own + key > best.back().first) break;
      if (b == a) continue;
      const Ranked candidate{topology.expected_server_one_way_ms(a, b), b};
      if (best.size() == width) {
        if (!(candidate < best.back())) continue;
        best.pop_back();
      }
      best.insert(std::upper_bound(best.begin(), best.end(), candidate),
                  candidate);
    }
  }
  return rows;
}

CoopProbes::CoopProbes(std::size_t shard_count, Kbps coop_kbps)
    : coop_kbps_(coop_kbps), shards_(shard_count) {}

void CoopProbes::set_neighbors(std::size_t s, cache::CacheSlot node,
                               std::vector<CoopNeighbor> neighbors) {
  std::vector<std::vector<CoopNeighbor>>& lists = shards_[s].neighbors;
  if (cache::to_index(node) >= lists.size())
    lists.resize(std::size_t{cache::to_index(node)} + 1);
  lists[cache::to_index(node)] = std::move(neighbors);
}

void CoopProbes::attach(shard::ShardCluster& cluster, std::size_t s,
                        cache::EdgeCacheService& cache) {
  CF_CHECK_MSG(cluster_ == nullptr || cluster_ == &cluster,
               "every shard's probes run on one cluster");
  CF_CHECK_MSG(cluster.shard_count() == shards_.size(),
               "cluster and protocol disagree on the shard count");
  cluster_ = &cluster;
  shards_[s].cache = &cache;
  cache.set_fetch_interceptor(
      [this, s = static_cast<std::uint32_t>(s)](
          cache::CacheSlot node, const stream::VideoSegment& segment,
          Kbit kbit, cache::EdgeCacheService::DeliverFn& deliver) {
        return start(s, node, segment, kbit, deliver);
      });
}

bool CoopProbes::start(std::uint32_t s, cache::CacheSlot node,
                       const stream::VideoSegment& segment, Kbit kbit,
                       cache::EdgeCacheService::DeliverFn& deliver) {
  ShardState& sh = shards_[s];
  if (cache::to_index(node) >= sh.neighbors.size()) return false;
  const std::vector<CoopNeighbor>& neighbors =
      sh.neighbors[cache::to_index(node)];
  if (neighbors.empty()) return false;
  std::uint32_t r = 0;
  if (sh.free_rounds.empty()) {
    r = static_cast<std::uint32_t>(sh.rounds.size());
    sh.rounds.emplace_back();
  } else {
    r = sh.free_rounds.back();
    sh.free_rounds.pop_back();
  }
  ProbeRound& round = sh.rounds[r];
  round.requester = node;
  round.outstanding = static_cast<std::uint32_t>(neighbors.size());
  round.resolved = false;
  round.segment = segment;
  round.deliver = std::move(deliver);
  round.responses.assign(neighbors.size(), ProbeRound::Resp::kPending);
  const cache::SegmentKey key = sh.cache->key_of(segment);
  const TimeMs t0 = cluster_->sim(s).now();
  for (std::uint32_t rank = 0; rank < neighbors.size(); ++rank) {
    const CoopNeighbor nb = neighbors[rank];
    post(s, nb.shard, t0 + nb.latency_ms, [this, s, r, rank, nb, kbit, key] {
      probe(s, r, rank, nb, kbit, key);
    });
  }
  return true;
}

void CoopProbes::probe(std::uint32_t requester_shard, std::uint32_t round,
                       std::uint32_t rank, const CoopNeighbor& nb, Kbit kbit,
                       const cache::SegmentKey& key) {
  cache::EdgeCacheService* peer = shards_[nb.shard].cache;
  const bool hit = peer != nullptr && peer->probe_hit(nb.slot, key);
  TimeMs back = cluster_->sim(nb.shard).now() + nb.latency_ms;
  if (hit && coop_kbps_ > 0.0) back += transmission_ms(kbit, coop_kbps_);
  post(nb.shard, requester_shard, back,
       [this, requester_shard, round, rank, hit] {
         on_response(requester_shard, round, rank, hit);
       });
}

void CoopProbes::on_response(std::uint32_t s, std::uint32_t r,
                             std::uint32_t rank, bool hit) {
  using Resp = ProbeRound::Resp;
  ShardState& sh = shards_[s];
  ProbeRound& round = sh.rounds[r];
  round.responses[rank] = hit ? Resp::kHit : Resp::kMiss;
  --round.outstanding;
  // Rank-canonical resolution: the winner is the lowest-rank peer that
  // hit, declared only once every lower rank has answered — K-invariant
  // because it depends on the rank order, never on response arrival order.
  Resp outcome = Resp::kPending;
  if (!round.resolved) {
    outcome = Resp::kMiss;
    for (const Resp resp : round.responses) {
      if (resp != Resp::kMiss) {
        outcome = resp;
        break;
      }
    }
  }
  if (outcome == Resp::kPending) {
    if (round.outstanding == 0) sh.free_rounds.push_back(r);
    return;
  }
  round.resolved = true;
  // Out of the pool before resolving: the delivery may start a round of
  // its own, which may take this slot or grow the pool.
  const cache::CacheSlot requester = round.requester;
  const stream::VideoSegment segment = round.segment;
  cache::EdgeCacheService::DeliverFn deliver = std::move(round.deliver);
  if (round.outstanding == 0) sh.free_rounds.push_back(r);
  if (outcome == Resp::kHit) {
    sh.cache->complete_peer_fetch(requester, segment, std::move(deliver));
  } else {
    sh.cache->cloud_fetch_fallback(requester, segment, std::move(deliver));
  }
}

void CoopProbes::post(std::size_t src, std::size_t dst, TimeMs when,
                      sim::Simulator::Callback fn) {
  if (src == dst) {
    cluster_->sim(src).schedule_at(when, std::move(fn));
  } else {
    cluster_->post(src, dst, when, std::move(fn));
  }
}

}  // namespace cloudfog::systems
