#include "net/latency_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

namespace cloudfog::net {

LatencyParams LatencyParams::simulation_profile(std::uint64_t seed) {
  // Calibrated against the coverage numbers of Choy et al. (the paper's
  // reference measurement): one-way latency to the nearest of a handful of
  // datacenters has a median of tens of ms with a heavy tail, so a 110 ms
  // RTT requirement still leaves a substantial uncovered fraction.
  LatencyParams p;
  p.route_inflation = 2.2;
  p.per_hop_ms = 0.5;
  p.hops_base = 6.0;
  p.hops_per_1000km = 4.0;
  p.pair_bias_sigma = 0.55;
  p.jitter_sigma = 0.10;
  p.seed = seed;
  return p;
}

LatencyParams LatencyParams::planetlab_profile(std::uint64_t seed) {
  LatencyParams p;
  p.base_loss = 0.003;
  p.loss_per_1000km = 0.004;
  p.route_inflation = 2.5;
  p.per_hop_ms = 0.6;
  p.hops_base = 7.0;
  p.hops_per_1000km = 4.0;
  p.pair_bias_sigma = 0.60;
  p.jitter_sigma = 0.20;
  p.seed = seed;
  return p;
}

namespace {

/// The endpoint's precomputed cos(latitude), or the on-the-fly value for
/// hand-built endpoints carrying the sentinel (bit-identical either way —
/// cos_lat() is the exact expression haversine_km uses internally).
double endpoint_cos_lat(const Endpoint& e) {
  return e.cos_lat <= 1.0 ? e.cos_lat : cos_lat(e.position);
}

/// Deterministic cache-line index for an unordered id pair.
std::size_t pair_slot(std::uint64_t lo, std::uint64_t hi, std::size_t mask) {
  std::uint64_t state = (lo << 32) ^ hi;
  return static_cast<std::size_t>(util::splitmix64(state)) & mask;
}

}  // namespace

double LatencyModel::pair_bias_uncached(NodeId a, NodeId b) const {
  // Deterministic lognormal(0, sigma) derived from (seed, unordered pair).
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  std::uint64_t state = params_.seed ^ (lo << 32) ^ hi ^ 0xa5a5a5a5deadbeefull;
  const std::uint64_t r1 = util::splitmix64(state);
  const std::uint64_t r2 = util::splitmix64(state);
  // Box–Muller from two uniform doubles.
  const double u1 =
      (static_cast<double>(r1 >> 11) + 0.5) * 0x1.0p-53;  // (0, 1)
  const double u2 = static_cast<double>(r2 >> 11) * 0x1.0p-53;
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979 * u2);
  return std::exp(params_.pair_bias_sigma * z);
}

void LatencyModel::reserve_endpoints(std::size_t num_endpoints) const {
  std::size_t sets = kPairCacheMinSets;
  while (sets < num_endpoints && sets < kPairCacheMaxSets) sets *= 2;
  if (sets == sets_) return;
  sets_ = sets;
  cache_.assign(sets_ * kPairCacheWays, PairEntry{});
  rr_.assign(sets_, 0);
}

LatencyModel::PairEntry& LatencyModel::find_line(NodeId lo, NodeId hi) const {
  const std::size_t set = pair_slot(lo, hi, sets_ - 1);
  PairEntry* ways = &cache_[set * kPairCacheWays];
  for (std::size_t w = 0; w < kPairCacheWays; ++w) {
    if (ways[w].lo == lo && ways[w].hi == hi) {
      CF_OBS_COUNT_HOT("net.latency.pair_memo.hits", 1);
      return ways[w];
    }
  }
  CF_OBS_COUNT_HOT("net.latency.pair_memo.misses", 1);
  PairEntry& e = ways[rr_[set]];
  rr_[set] = static_cast<std::uint8_t>((rr_[set] + 1) % kPairCacheWays);
  e.lo = lo;
  e.hi = hi;
  e.bias = pair_bias_uncached(lo, hi);
  e.d_km = -1.0;  // distance half belongs to the evicted pair
  return e;
}

double LatencyModel::pair_bias(NodeId a, NodeId b) const {
  return find_line(std::min(a, b), std::max(a, b)).bias;
}

const LatencyModel::PairEntry& LatencyModel::pair_entry(
    const Endpoint& a, const Endpoint& b) const {
  // Normalize to (lo, hi) id order. haversine_km is bit-identically
  // symmetric (the delta terms are squared, the cos product commutes), so
  // the stored distance serves queries in either argument order.
  const bool a_is_lo = a.id <= b.id;
  const Endpoint& lo_ep = a_is_lo ? a : b;
  const Endpoint& hi_ep = a_is_lo ? b : a;
  PairEntry& e = find_line(lo_ep.id, hi_ep.id);
  if (e.d_km < 0.0 || !(e.lo_pos == lo_ep.position) ||
      !(e.hi_pos == hi_ep.position)) {
    e.lo_pos = lo_ep.position;
    e.hi_pos = hi_ep.position;
    e.d_km = haversine_km(lo_ep.position, endpoint_cos_lat(lo_ep),
                          hi_ep.position, endpoint_cos_lat(hi_ep));
  }
  return e;
}

TimeMs LatencyModel::route_from_km(double d_km) const {
  const double fiber = d_km * params_.fiber_ms_per_km * params_.route_inflation;
  const double hops = params_.hops_base + params_.hops_per_1000km * d_km / 1000.0;
  return fiber + hops * params_.per_hop_ms;
}

TimeMs LatencyModel::route_ms(const Endpoint& a, const Endpoint& b) const {
  return route_from_km(pair_entry(a, b).d_km);
}

TimeMs LatencyModel::min_route_ms() const { return route_from_km(0.0); }

TimeMs LatencyModel::expected_one_way_ms(const Endpoint& a,
                                         const Endpoint& b) const {
  if (a.id == b.id) return 0.1;  // loopback-ish floor
  // The per-pair route bias applies to the backbone path only — a host's
  // access (last-mile) delay is a property of the host, not the route, and
  // must not be scaled away by picking a lucky peer.
  const PairEntry& e = pair_entry(a, b);
  return route_from_km(e.d_km) * e.bias + a.last_mile_ms + b.last_mile_ms;
}

TimeMs LatencyModel::expected_one_way_ms(const Endpoint& a, const Endpoint& b,
                                         double d_km) const {
  if (a.id == b.id) return 0.1;
  const bool a_is_lo = a.id <= b.id;
  const Endpoint& lo_ep = a_is_lo ? a : b;
  const Endpoint& hi_ep = a_is_lo ? b : a;
  PairEntry& e = find_line(lo_ep.id, hi_ep.id);
  if (e.d_km < 0.0 || !(e.lo_pos == lo_ep.position) ||
      !(e.hi_pos == hi_ep.position)) {
    e.lo_pos = lo_ep.position;
    e.hi_pos = hi_ep.position;
    e.d_km = d_km;
  }
  // On a fresh hit the caller's distance must agree with the memoized one —
  // both are the exact haversine for these positions.
  CF_DCHECK(e.d_km == d_km);
  return route_from_km(e.d_km) * e.bias + a.last_mile_ms + b.last_mile_ms;
}

double LatencyModel::loss_probability(const Endpoint& a,
                                      const Endpoint& b) const {
  if (a.id == b.id) return 0.0;
  const PairEntry& e = pair_entry(a, b);
  const double rate = (params_.base_loss +
                       params_.loss_per_1000km * e.d_km / 1000.0) *
                      e.bias;
  return std::min(params_.loss_cap, std::max(0.0, rate));
}

LatencyPath LatencyPath::modelled(TimeMs biased_route_ms,
                                  TimeMs last_mile_a_ms,
                                  TimeMs last_mile_b_ms) {
  LatencyPath p;
  p.scale_ms_ = biased_route_ms;
  p.last_mile_a_ms_ = last_mile_a_ms;
  p.last_mile_b_ms_ = last_mile_b_ms;
  p.kind_ = Kind::kModelled;
  return p;
}

LatencyPath LatencyPath::traced(TimeMs traced_ms) {
  LatencyPath p;
  p.scale_ms_ = traced_ms;
  p.kind_ = Kind::kTraced;
  return p;
}

TimeMs LatencyPath::sample(util::Rng& rng, double jitter_sigma) const {
  if (kind_ == Kind::kTraced) return scale_ms_ * rng.lognormal(0.0, jitter_sigma);
  CF_OBS_COUNT_HOT("net.latency.samples", 1);
  if (kind_ == Kind::kLoopback) return 0.1;
  const double route = scale_ms_ * rng.lognormal(0.0, jitter_sigma);
  const TimeMs sample = route + last_mile_a_ms_ + last_mile_b_ms_;
  CF_OBS_HIST_HOT("net.latency.one_way_ms", sample);
  return sample;
}

LatencyPath LatencyModel::path(const Endpoint& a, const Endpoint& b) const {
  if (a.id == b.id) return LatencyPath{};
  const PairEntry& e = pair_entry(a, b);
  return LatencyPath::modelled(route_from_km(e.d_km) * e.bias, a.last_mile_ms,
                               b.last_mile_ms);
}

TimeMs LatencyModel::sample_one_way_ms(const Endpoint& a, const Endpoint& b,
                                       util::Rng& rng) const {
  return path(a, b).sample(rng, params_.jitter_sigma);
}

}  // namespace cloudfog::net
