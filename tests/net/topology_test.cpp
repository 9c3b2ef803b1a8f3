#include "net/topology.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "net/trace.h"
#include "obs/metrics.h"

namespace cloudfog::net {
namespace {

Topology small_world() {
  Topology topo(LatencyModel(LatencyParams::simulation_profile()));
  topo.add_host(HostRole::kDatacenter, {40.0, -75.0}, 0.5, "dc-east");
  topo.add_host(HostRole::kDatacenter, {34.0, -118.0}, 0.5, "dc-west");
  topo.add_host(HostRole::kPlayer, {40.5, -75.2}, 12.0, "player-east", 3.0);
  topo.add_host(HostRole::kPlayer, {34.2, -118.3}, 8.0, "player-west");
  return topo;
}

TEST(Topology, SequentialIds) {
  Topology topo = small_world();
  EXPECT_EQ(topo.size(), 4u);
  for (NodeId i = 0; i < 4; ++i) EXPECT_EQ(topo.host(i).id, i);
}

TEST(Topology, UnknownHostRejected) {
  Topology topo = small_world();
  EXPECT_THROW(topo.host(99), std::logic_error);
}

TEST(Topology, RolesFilter) {
  Topology topo = small_world();
  EXPECT_EQ(topo.hosts_with_role(HostRole::kDatacenter).size(), 2u);
  EXPECT_EQ(topo.hosts_with_role(HostRole::kPlayer).size(), 2u);
  EXPECT_TRUE(topo.hosts_with_role(HostRole::kEdgeServer).empty());
}

TEST(Topology, ServerLastMileDefaultsToClientValue) {
  Topology topo = small_world();
  EXPECT_DOUBLE_EQ(topo.host(3).server_last_mile_ms, 8.0);   // defaulted
  EXPECT_DOUBLE_EQ(topo.host(2).server_last_mile_ms, 3.0);   // explicit
}

TEST(Topology, ServerPathFasterWithWiredInterface) {
  Topology topo = small_world();
  // Host 2 has last_mile 12 but server interface 3: serving from it must be
  // 9 ms faster one-way than a client-to-client path.
  const TimeMs client_path = topo.expected_one_way_ms(2, 3);
  const TimeMs server_path = topo.expected_server_one_way_ms(2, 3);
  EXPECT_NEAR(client_path - server_path, 9.0, 1e-9);
}

TEST(Topology, ServerRttIsTwiceServerOneWay) {
  Topology topo = small_world();
  EXPECT_DOUBLE_EQ(topo.expected_server_rtt_ms(0, 2),
                   2.0 * topo.expected_server_one_way_ms(0, 2));
}

TEST(Topology, NearestPicksClosestDatacenter) {
  Topology topo = small_world();
  const auto dcs = topo.hosts_with_role(HostRole::kDatacenter);
  EXPECT_EQ(topo.nearest(2, dcs), 0u);  // east player -> east DC
  EXPECT_EQ(topo.nearest(3, dcs), 1u);  // west player -> west DC
}

TEST(Topology, NearestRejectsEmptyCandidates) {
  Topology topo = small_world();
  EXPECT_THROW(topo.nearest(2, {}), std::logic_error);
}

TEST(Topology, NegativeLastMileRejected) {
  Topology topo(LatencyModel(LatencyParams::simulation_profile()));
  EXPECT_THROW(topo.add_host(HostRole::kPlayer, {40.0, -75.0}, -1.0),
               std::logic_error);
}

std::uint64_t samples_counted(const obs::MetricsRegistry& registry) {
  const obs::Counter* c = registry.find_counter("net.latency.samples");
  return c == nullptr ? 0 : c->value();
}

/// Draws 1,000 samples through `resolved` and through `memo` from twin
/// RNGs: every bit pattern, the RNGs' end states and the sample counter's
/// advance must agree.
void expect_twin_streams(const std::function<TimeMs(util::Rng&)>& resolved,
                         const std::function<TimeMs(util::Rng&)>& memo) {
  util::Rng rng_resolved(2024), rng_memo(2024);
  obs::MetricsRegistry reg_resolved, reg_memo;
  for (int i = 0; i < 1'000; ++i) {
    TimeMs a = 0.0, b = 0.0;
    {
      obs::ScopedRegistry install(reg_resolved);
      a = resolved(rng_resolved);
    }
    {
      obs::ScopedRegistry install(reg_memo);
      b = memo(rng_memo);
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << "sample " << i;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rng_resolved(), rng_memo());
  EXPECT_EQ(samples_counted(reg_resolved), samples_counted(reg_memo));
}

TEST(LatencyPath, SamplesBitIdenticalToTheMemoPath) {
  Topology topo = small_world();
  const double sigma = topo.jitter_sigma();
  // A model pair, a server-side pair and a loopback pair.
  const LatencyPath model = topo.path(2, 0);
  expect_twin_streams([&](util::Rng& r) { return model.sample(r, sigma); },
                      [&](util::Rng& r) { return topo.sample_one_way_ms(2, 0, r); });
  const LatencyPath server = topo.server_path(2, 3);
  expect_twin_streams(
      [&](util::Rng& r) { return server.sample(r, sigma); },
      [&](util::Rng& r) { return topo.sample_server_one_way_ms(2, 3, r); });
  const LatencyPath loopback = topo.path(1, 1);
  expect_twin_streams(
      [&](util::Rng& r) { return loopback.sample(r, sigma); },
      [&](util::Rng& r) { return topo.sample_one_way_ms(1, 1, r); });
  util::Rng untouched(7), reference(7);
  EXPECT_EQ(loopback.sample(untouched, sigma), 0.1);
  EXPECT_EQ(untouched(), reference());  // loopback takes no draw

  // A pair covered by an attached trace samples traced x jitter.
  LatencyTrace trace(4);
  trace.set_one_way_ms(0, 3, 61.5);
  topo.attach_trace(&trace);
  const LatencyPath traced = topo.server_path(0, 3);
  expect_twin_streams(
      [&](util::Rng& r) { return traced.sample(r, sigma); },
      [&](util::Rng& r) { return topo.sample_server_one_way_ms(0, 3, r); });
  expect_twin_streams(
      [&](util::Rng& r) { return traced.sample(r, sigma); },
      [&](util::Rng& r) { return 61.5 * r.lognormal(0.0, sigma); });
}

TEST(LatencyPath, KeepsTheModelsExpressionOrder) {
  // The unresolved path's arithmetic spelled out from public model pieces:
  // (route x bias) x jitter + last_mile_a + last_mile_b, one jitter draw.
  Topology topo = small_world();
  const LatencyModel& m = topo.model();
  const double sigma = topo.jitter_sigma();
  const Endpoint a = topo.endpoint(2);
  const Endpoint b = topo.endpoint(1);
  const LatencyPath path = topo.path(2, 1);
  util::Rng rng_path(99), rng_formula(99);
  for (int i = 0; i < 1'000; ++i) {
    const TimeMs got = path.sample(rng_path, sigma);
    const TimeMs want = m.route_ms(a, b) * m.pair_bias(a.id, b.id) *
                            rng_formula.lognormal(0.0, sigma) +
                        a.last_mile_ms + b.last_mile_ms;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "sample " << i;
  }
  EXPECT_EQ(rng_path(), rng_formula());
}

TEST(BuildTopology, CountsMatchConfig) {
  PlacementConfig config;
  config.num_players = 200;
  config.num_datacenters = 5;
  config.num_edge_servers = 7;
  config.seed = 3;
  Topology topo = build_topology(config, LatencyParams::simulation_profile(3));
  EXPECT_EQ(topo.size(), 212u);
  EXPECT_EQ(topo.hosts_with_role(HostRole::kDatacenter).size(), 5u);
  EXPECT_EQ(topo.hosts_with_role(HostRole::kEdgeServer).size(), 7u);
  EXPECT_EQ(topo.hosts_with_role(HostRole::kPlayer).size(), 200u);
}

TEST(BuildTopology, DatacentersComeFirstAndAreLabelled) {
  PlacementConfig config;
  config.num_players = 10;
  config.num_datacenters = 3;
  Topology topo = build_topology(config, LatencyParams::simulation_profile());
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(topo.host(i).role, HostRole::kDatacenter);
    EXPECT_EQ(topo.host(i).label.substr(0, 3), "DC:");
  }
}

TEST(BuildTopology, DeterministicForSameSeed) {
  PlacementConfig config;
  config.num_players = 50;
  config.seed = 77;
  Topology a = build_topology(config, LatencyParams::simulation_profile(77));
  Topology b = build_topology(config, LatencyParams::simulation_profile(77));
  for (NodeId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.host(i).position, b.host(i).position);
    EXPECT_EQ(a.host(i).last_mile_ms, b.host(i).last_mile_ms);
  }
}

TEST(BuildTopology, DifferentSeedsDiffer) {
  PlacementConfig c1, c2;
  c1.num_players = c2.num_players = 50;
  c1.seed = 1;
  c2.seed = 2;
  Topology a = build_topology(c1, LatencyParams::simulation_profile(1));
  Topology b = build_topology(c2, LatencyParams::simulation_profile(2));
  int same_position = 0;
  for (NodeId i = 5; i < a.size(); ++i)
    if (a.host(i).position == b.host(i).position) ++same_position;
  EXPECT_LT(same_position, 5);
}

TEST(BuildTopology, PlayerWiredInterfaceNeverSlowerThanAccess) {
  PlacementConfig config;
  config.num_players = 300;
  Topology topo = build_topology(config, LatencyParams::simulation_profile());
  for (NodeId id : topo.hosts_with_role(HostRole::kPlayer)) {
    EXPECT_LE(topo.host(id).server_last_mile_ms, topo.host(id).last_mile_ms);
  }
}

TEST(BuildTopology, PoorConnectivityFractionCreatesHeavyTail) {
  PlacementConfig config;
  config.num_players = 2'000;
  config.poor_connectivity_fraction = 0.3;
  Topology topo = build_topology(config, LatencyParams::simulation_profile());
  int slow = 0;
  for (NodeId id : topo.hosts_with_role(HostRole::kPlayer)) {
    if (topo.host(id).last_mile_ms > 30.0) ++slow;
  }
  // Roughly the configured fraction should have last miles above 30 ms.
  EXPECT_GT(slow, 300);
  EXPECT_LT(slow, 900);
}

TEST(BuildPlanetLab, TwoNamedDatacenters) {
  Topology topo = build_planetlab_topology(100, 5);
  const auto dcs = topo.hosts_with_role(HostRole::kDatacenter);
  ASSERT_EQ(dcs.size(), 2u);
  EXPECT_NE(topo.host(dcs[0]).label.find("Princeton"), std::string::npos);
  EXPECT_NE(topo.host(dcs[1]).label.find("UCLA"), std::string::npos);
  EXPECT_EQ(topo.hosts_with_role(HostRole::kPlayer).size(), 100u);
}

TEST(BuildPlanetLab, UniversityHostsHaveTightAccess) {
  Topology topo = build_planetlab_topology(400, 5);
  for (NodeId id : topo.hosts_with_role(HostRole::kPlayer)) {
    EXPECT_LT(topo.host(id).last_mile_ms, 25.0);
  }
}

}  // namespace
}  // namespace cloudfog::net
