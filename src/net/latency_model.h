// Pairwise latency model — the substitute for the PlanetLab latency trace.
//
// A host pair's *expected* one-way latency decomposes as
//
//   fiber propagation (5 us/km over the great-circle distance, stretched by a
//   route-inflation factor) + per-hop router delay (hop count grows with
//   distance) + each endpoint's last-mile access delay + a deterministic
//   per-pair route bias (lognormal; some pairs simply have bad routes).
//
// Individual packets additionally see multiplicative lognormal jitter.
// The per-pair bias is derived from a hash of (seed, min_id, max_id), so the
// same pair always gets the same route quality and the full 10,000-node
// matrix never has to be materialised.
//
// Two parameter profiles mirror the paper's two testbeds: the PeerSim-style
// simulation profile, and a PlanetLab profile with heavier inflation and
// jitter (matching real measured PlanetLab path behaviour).
#pragma once

#include <cstdint>

#include "net/geo.h"
#include "util/rng.h"
#include "util/types.h"

namespace cloudfog::net {

/// Tuning knobs of the latency model.
struct LatencyParams {
  double fiber_ms_per_km = 0.005;   // speed of light in fiber, ~5 us/km
  double route_inflation = 1.8;     // path-stretch over great circle
  double per_hop_ms = 0.35;         // router queuing+processing per hop
  double hops_base = 4.0;           // minimum hop count
  double hops_per_1000km = 3.0;     // extra hops with distance
  double pair_bias_sigma = 0.20;    // lognormal sigma of per-pair route bias
  double jitter_sigma = 0.08;       // lognormal sigma of per-packet jitter
  /// Packet-loss model: per-packet loss probability grows with path length
  /// (more hops, more congestion points), capped at loss_cap.
  double base_loss = 0.001;
  double loss_per_1000km = 0.002;
  double loss_cap = 0.25;
  std::uint64_t seed = 1;           // seeds the per-pair bias

  /// PeerSim-style simulation profile (paper Section IV defaults).
  static LatencyParams simulation_profile(std::uint64_t seed = 1);

  /// PlanetLab profile: heavier route inflation and jitter, low last-mile
  /// (PlanetLab hosts sit on university networks).
  static LatencyParams planetlab_profile(std::uint64_t seed = 1);
};

/// Endpoint description consumed by the model.
struct Endpoint {
  NodeId id = kInvalidNode;
  GeoPoint position;
  TimeMs last_mile_ms = 0.0;  // access-network delay of this host
  /// Precomputed cos(latitude) (see net::cos_lat). Valid values lie in
  /// [-1, 1]; the default sentinel 2.0 makes the model derive it on the
  /// fly, so endpoints built by hand (tests) keep working unchanged.
  double cos_lat = 2.0;
};

/// One host pair's one-way latency with everything but the per-packet
/// jitter resolved: the pair's route x bias factor and both
/// endpoints' last-mile delays. sample() is the one implementation of a
/// jittered sample — LatencyModel::sample_one_way_ms and the Topology
/// sample_* calls resolve a path and sample it — so a caller that samples
/// one pair over and over can resolve it once and skip the per-sample host
/// lookups and pair evaluation, bit for bit. Immutable; default-constructed
/// it is the loopback path.
class LatencyPath {
 public:
  LatencyPath() = default;
  /// (route x bias) x jitter + last_mile_a + last_mile_b.
  static LatencyPath modelled(TimeMs biased_route_ms, TimeMs last_mile_a_ms,
                              TimeMs last_mile_b_ms);
  /// A measured trace latency: traced x jitter, uninstrumented.
  static LatencyPath traced(TimeMs traced_ms);

  /// One packet's one-way latency. `jitter_sigma` is the lognormal sigma of
  /// the model the path was resolved against (LatencyParams::jitter_sigma).
  TimeMs sample(util::Rng& rng, double jitter_sigma) const;

 private:
  enum class Kind : std::uint8_t { kLoopback, kModelled, kTraced };
  TimeMs scale_ms_ = 0.0;  // route x bias, or the traced latency
  TimeMs last_mile_a_ms_ = 0.0;
  TimeMs last_mile_b_ms_ = 0.0;
  Kind kind_ = Kind::kLoopback;
};

/// Latency calculator over endpoint pairs. A pure function: every quantity
/// is computed on each call from (params, endpoints), and the model holds
/// nothing but its parameters, so one const model — and the Topology that
/// holds it — can be read from any number of threads at once (DESIGN.md
/// §8.2). Hot callers resolve a LatencyPath once instead of re-evaluating
/// the pair per sample.
class LatencyModel {
 public:
  explicit LatencyModel(LatencyParams params) : params_(params) {}

  const LatencyParams& params() const { return params_; }

  /// Deterministic expected one-way latency (ms) between two endpoints.
  /// Symmetric: expected(a, b) == expected(b, a).
  TimeMs expected_one_way_ms(const Endpoint& a, const Endpoint& b) const;

  /// As above, with the pair's great-circle distance already in hand (e.g.
  /// from the spatial index's candidate list). `d_km` MUST be the exact
  /// haversine_km double for the endpoints' positions (haversine is
  /// bit-identically symmetric, so argument order does not matter); the
  /// result is then bit-identical to the two-argument overload, minus the
  /// recomputation. CF_DCHECKed against a fresh haversine.
  TimeMs expected_one_way_ms(const Endpoint& a, const Endpoint& b,
                             double d_km) const;

  /// One packet's one-way latency: expected value times lognormal jitter.
  TimeMs sample_one_way_ms(const Endpoint& a, const Endpoint& b,
                           util::Rng& rng) const;

  /// The pair's resolved latency path (one pair evaluation now, none per
  /// sample): path(a, b).sample(rng, params().jitter_sigma) is
  /// sample_one_way_ms(a, b, rng), bit for bit.
  LatencyPath path(const Endpoint& a, const Endpoint& b) const;

  /// Expected round-trip latency (2x one-way; routes modelled symmetric).
  TimeMs expected_rtt_ms(const Endpoint& a, const Endpoint& b) const {
    return 2.0 * expected_one_way_ms(a, b);
  }

  /// The deterministic multiplicative route bias for a pair (exposed for
  /// tests and trace generation). Symmetric in its arguments. Every pair
  /// the model evaluates goes through here once, which counts it in
  /// net.latency.pair_queries.
  double pair_bias(NodeId a, NodeId b) const;

  /// The unbiased backbone component (fiber + routers) of a pair's path.
  TimeMs route_ms(const Endpoint& a, const Endpoint& b) const;

  /// Closed-form lower bound of route_ms over ANY pair: the backbone term
  /// at zero great-circle distance, hops_base × per_hop_ms. Note this
  /// bounds only the UNBIASED backbone — the per-pair path bias is
  /// multiplicative lognormal and can fall below 1, so a real expected
  /// one-way latency may undercut this value. The space-parallel shard
  /// runner (DESIGN.md §13) therefore derives its conservative lookahead
  /// from the actual minimum expected latency over its cross-shard message
  /// edges, not from this floor.
  TimeMs min_route_ms() const;

  /// Per-packet loss probability of the path (deterministic per pair:
  /// base + per-1000km x distance, scaled by the route bias, capped).
  double loss_probability(const Endpoint& a, const Endpoint& b) const;

 private:
  /// Backbone latency for a known great-circle distance.
  TimeMs route_from_km(double d_km) const;

  LatencyParams params_;
};

}  // namespace cloudfog::net
