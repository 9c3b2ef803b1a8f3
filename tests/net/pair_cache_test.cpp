// Exactness tests for the latency model's pair evaluation and the
// precomputed cos(lat) haversine path: precomputation must be invisible —
// every value bit-equal to the model's formula spelled out from scratch,
// in either argument order.
#include <cmath>

#include <gtest/gtest.h>

#include "net/geo.h"
#include "net/latency_model.h"
#include "net/topology.h"
#include "util/rng.h"

namespace cloudfog::net {
namespace {

GeoPoint random_us_point(util::Rng& rng) {
  return GeoPoint{rng.uniform(25.0, 49.0), rng.uniform(-124.0, -67.0)};
}

TEST(PairCacheTest, HaversinePrecomputedOverloadIsBitIdentical) {
  util::Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const GeoPoint a = random_us_point(rng);
    const GeoPoint b = random_us_point(rng);
    const double direct = haversine_km(a, b);
    const double pre = haversine_km(a, cos_lat(a), b, cos_lat(b));
    EXPECT_EQ(direct, pre);
    // The model evaluates the distance in (lo, hi) id order; symmetry must
    // hold bitwise all the same.
    EXPECT_EQ(direct, haversine_km(b, a));
  }
}

TEST(PairCacheTest, ExpectedOneWayMatchesFromScratchFormula) {
  const LatencyParams params = LatencyParams::planetlab_profile(3);
  const LatencyModel model(params);
  util::Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    Endpoint a, b;
    a.id = static_cast<NodeId>(rng.uniform_int(0, 500));
    b.id = static_cast<NodeId>(rng.uniform_int(0, 500));
    if (a.id == b.id) continue;
    a.position = random_us_point(rng);
    b.position = random_us_point(rng);
    a.last_mile_ms = rng.uniform(0.0, 30.0);
    b.last_mile_ms = rng.uniform(0.0, 30.0);

    const double d = haversine_km(a.position, b.position);
    const double fiber = d * params.fiber_ms_per_km * params.route_inflation;
    const double hops = params.hops_base + params.hops_per_1000km * d / 1000.0;
    const double route = fiber + hops * params.per_hop_ms;
    const double bias = model.pair_bias(a.id, b.id);
    const double expect = route * bias + a.last_mile_ms + b.last_mile_ms;
    // Reversed arguments append the last miles in the other order — the
    // route and bias terms are bit-symmetric, the final additions follow
    // argument order (as they always have).
    const double expect_rev = route * bias + b.last_mile_ms + a.last_mile_ms;

    EXPECT_EQ(model.expected_one_way_ms(a, b), expect);
    EXPECT_EQ(model.expected_one_way_ms(a, b), expect);  // warm hit
    EXPECT_EQ(model.expected_one_way_ms(b, a), expect_rev);

    const double loss_rate =
        (params.base_loss + params.loss_per_1000km * d / 1000.0) *
        model.pair_bias(a.id, b.id);
    const double loss =
        std::min(params.loss_cap, std::max(0.0, loss_rate));
    EXPECT_EQ(model.loss_probability(a, b), loss);
  }
}

TEST(PairCacheTest, RebindingAnIdToNewCoordinatesRefreshesTheDistance) {
  const LatencyModel model(LatencyParams::simulation_profile(1));
  Endpoint a{1, {40.0, -74.0}, 5.0};
  Endpoint near_b{2, {41.0, -75.0}, 5.0};
  Endpoint far_b{2, {34.0, -118.0}, 5.0};  // same id, new coordinates

  const double near_ms = model.expected_one_way_ms(a, near_b);
  const double far_ms = model.expected_one_way_ms(a, far_b);
  EXPECT_LT(near_ms, far_ms);
  // Flipping back must re-derive the near distance exactly, not serve the
  // stale far entry.
  EXPECT_EQ(model.expected_one_way_ms(a, near_b), near_ms);
  EXPECT_EQ(model.expected_one_way_ms(a, far_b), far_ms);
}

TEST(PairCacheTest, TopologyEndpointsCarryPrecomputedCosLat) {
  const LatencyParams params = LatencyParams::simulation_profile(5);
  Topology topo{LatencyModel(params)};
  const NodeId x = topo.add_host(HostRole::kPlayer, {40.7, -74.0}, 10.0);
  const NodeId y = topo.add_host(HostRole::kDatacenter, {34.0, -118.2}, 0.5);

  const Endpoint ex = topo.endpoint(x);
  EXPECT_EQ(ex.cos_lat, cos_lat(ex.position));

  // Precomputed endpoints must agree bitwise with sentinel-carrying ones.
  const LatencyModel fresh(params);
  Endpoint hand_x{x, {40.7, -74.0}, 10.0};
  Endpoint hand_y{y, {34.0, -118.2}, 0.5};
  EXPECT_EQ(topo.model().expected_one_way_ms(topo.endpoint(x), topo.endpoint(y)),
            fresh.expected_one_way_ms(hand_x, hand_y));
}

}  // namespace
}  // namespace cloudfog::net
