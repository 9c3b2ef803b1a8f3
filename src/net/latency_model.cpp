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

/// The pair's great-circle distance, evaluated in (lo, hi) id order so
/// that it cannot depend on the order of the arguments.
double pair_distance_km(const Endpoint& a, const Endpoint& b) {
  const bool a_is_lo = a.id <= b.id;
  const Endpoint& lo = a_is_lo ? a : b;
  const Endpoint& hi = a_is_lo ? b : a;
  return haversine_km(lo.position, endpoint_cos_lat(lo), hi.position,
                      endpoint_cos_lat(hi));
}

}  // namespace

double LatencyModel::pair_bias(NodeId a, NodeId b) const {
  CF_OBS_COUNT_HOT("net.latency.pair_queries", 1);
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

TimeMs LatencyModel::route_from_km(double d_km) const {
  const double fiber = d_km * params_.fiber_ms_per_km * params_.route_inflation;
  const double hops = params_.hops_base + params_.hops_per_1000km * d_km / 1000.0;
  return fiber + hops * params_.per_hop_ms;
}

TimeMs LatencyModel::route_ms(const Endpoint& a, const Endpoint& b) const {
  return route_from_km(pair_distance_km(a, b));
}

TimeMs LatencyModel::min_route_ms() const { return route_from_km(0.0); }

TimeMs LatencyModel::expected_one_way_ms(const Endpoint& a,
                                         const Endpoint& b) const {
  return expected_one_way_ms(a, b, pair_distance_km(a, b));
}

TimeMs LatencyModel::expected_one_way_ms(const Endpoint& a, const Endpoint& b,
                                         double d_km) const {
  if (a.id == b.id) return 0.1;  // loopback-ish floor
  CF_DCHECK(d_km == pair_distance_km(a, b));
  // The per-pair route bias applies to the backbone path only — a host's
  // access (last-mile) delay is a property of the host, not the route, and
  // must not be scaled away by picking a lucky peer.
  return route_from_km(d_km) * pair_bias(a.id, b.id) + a.last_mile_ms +
         b.last_mile_ms;
}

double LatencyModel::loss_probability(const Endpoint& a,
                                      const Endpoint& b) const {
  if (a.id == b.id) return 0.0;
  const double d_km = pair_distance_km(a, b);
  const double rate =
      (params_.base_loss + params_.loss_per_1000km * d_km / 1000.0) *
      pair_bias(a.id, b.id);
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
  return LatencyPath::modelled(
      route_from_km(pair_distance_km(a, b)) * pair_bias(a.id, b.id),
      a.last_mile_ms, b.last_mile_ms);
}

TimeMs LatencyModel::sample_one_way_ms(const Endpoint& a, const Endpoint& b,
                                       util::Rng& rng) const {
  return path(a, b).sample(rng, params_.jitter_sigma);
}

}  // namespace cloudfog::net
