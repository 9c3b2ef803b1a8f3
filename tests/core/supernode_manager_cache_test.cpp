// SupernodeManager x EdgeCacheService churn coupling — DESIGN.md §11.
//
// With a cache service attached, the directory provisions a per-node cache
// on registration and tears the node's cache state down on departure:
// entries freed, in-flight transcode/fetch jobs cancelled through the slab
// engine's O(1) cancel, and nothing of the node observable afterwards.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cache/edge_cache_service.h"
#include "core/supernode_manager.h"
#include "sim/simulator.h"
#include "stream/video.h"

namespace cloudfog::core {
namespace {

struct World {
  World() : topo(net::LatencyModel(net::LatencyParams::simulation_profile(1))) {
    sn_a = topo.add_host(net::HostRole::kPlayer, {39.96, -75.17}, 10.0,
                         "a", 3.0);
    sn_b = topo.add_host(net::HostRole::kPlayer, {40.71, -74.00}, 10.0,
                         "b", 3.0);
  }

  SupernodeManager manager(SupernodeManagerConfig config = {}) {
    config.probe_jitter_sigma = 0.0;
    return SupernodeManager(topo, config, util::Rng(9));
  }

  net::Topology topo;
  NodeId sn_a = 0, sn_b = 0;
};

stream::VideoSegment segment() {
  stream::VideoSegment seg;
  seg.id = 1;
  seg.player = 500;
  seg.game = 0;
  seg.quality_level = 3;
  seg.duration_ms = 100.0;
  seg.size_kbit = 80.0;
  seg.action_time_ms = 0.0;
  seg.deadline_ms = 70.0;
  return seg;
}

TEST(SupernodeManagerCache, RegistrationProvisionsTheNodeCache) {
  World world;
  sim::Simulator sim;
  cache::EdgeCacheServiceConfig cfg;
  cfg.kbit_per_slot = 500.0;
  cache::EdgeCacheService service(sim, cfg);

  auto mgr = world.manager();
  mgr.attach_cache(&service);
  mgr.add_supernode(world.sn_a, 4, 10'000.0);
  ASSERT_TRUE(service.has_supernode(world.sn_a));
  // Capacity follows the directory's slot count.
  EXPECT_DOUBLE_EQ(service.node_cache(world.sn_a).capacity_kbit(), 2'000.0);
}

TEST(SupernodeManagerCache, DepartureReleasesCacheStateAndCancelsJobs) {
  World world;
  sim::Simulator sim;
  cache::EdgeCacheService service(sim, cache::EdgeCacheServiceConfig{});
  auto mgr = world.manager();
  mgr.attach_cache(&service);
  mgr.add_supernode(world.sn_a, 4, 10'000.0);
  mgr.add_supernode(world.sn_b, 2, 10'000.0);

  // Populate node A's cache and leave a fetch in flight.
  int delivered = 0;
  service.request(service.slot_of(world.sn_a), segment(), [&] { ++delivered; });
  ASSERT_EQ(service.transcoder().in_flight(
                cache::to_index(service.slot_of(world.sn_a))), 1u);

  mgr.remove_supernode(world.sn_a);
  // No cache entry (nor job) outlives its owning supernode...
  EXPECT_FALSE(service.has_supernode(world.sn_a));
  EXPECT_EQ(service.transcoder().in_flight(
                cache::to_index(service.slot_of(world.sn_a))), 0u);
  EXPECT_THROW(service.node_cache(world.sn_a), std::logic_error);
  // ...and the survivor is untouched.
  EXPECT_TRUE(service.has_supernode(world.sn_b));
  sim.run_until(1'000.0);
  EXPECT_EQ(delivered, 0);  // the cancelled fetch never completed
  EXPECT_EQ(service.totals().cancelled_jobs, 1u);
}

TEST(SupernodeManagerCache, AttachAfterRegistrationRejected) {
  World world;
  sim::Simulator sim;
  cache::EdgeCacheService service(sim, cache::EdgeCacheServiceConfig{});
  auto mgr = world.manager();
  mgr.add_supernode(world.sn_a, 4, 10'000.0);
  EXPECT_THROW(mgr.attach_cache(&service), std::logic_error);
}

TEST(SupernodeManagerCache, DetachedManagerLeavesServiceAlone) {
  World world;
  sim::Simulator sim;
  cache::EdgeCacheService service(sim, cache::EdgeCacheServiceConfig{});
  auto mgr = world.manager();  // never attached
  mgr.add_supernode(world.sn_a, 4, 10'000.0);
  EXPECT_FALSE(service.has_supernode(world.sn_a));
  mgr.remove_supernode(world.sn_a);
}

}  // namespace
}  // namespace cloudfog::core
