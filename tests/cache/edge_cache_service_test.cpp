// EdgeCacheService tests: the joint hit/transcode/fetch serving flow,
// content-loop addressing, per-fleet accounting, and the churn contract
// (a departing supernode releases its cache and cancels its jobs).
#include "cache/edge_cache_service.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulator.h"
#include "stream/video.h"

namespace cloudfog::cache {
namespace {

// A level-3 (800 kbps) segment covering 100 ms => 80 kbit nominal variant.
stream::VideoSegment segment(int level, TimeMs action_ms,
                             game::GameId game = 0) {
  stream::VideoSegment seg;
  seg.id = 1;
  seg.player = 500;
  seg.game = game;
  seg.quality_level = level;
  seg.duration_ms = 100.0;
  seg.size_kbit = 77.0;  // per-player VBR size; the cache must ignore it
  seg.action_time_ms = action_ms;
  seg.deadline_ms = action_ms + 70.0;
  return seg;
}

EdgeCacheServiceConfig config(double kbit_per_slot,
                              double egress_price = 0.05) {
  EdgeCacheServiceConfig cfg;
  cfg.kbit_per_slot = kbit_per_slot;
  cfg.content_loop_segments = 10;
  cfg.admission.egress_cost_ms_per_kbit = egress_price;
  return cfg;
}

TEST(EdgeCacheServiceTest, FirstRequestFetchesSecondHits) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);

  int delivered = 0;
  const auto first =
      service.request(service.slot_of(1), segment(3, 0.0),
                      [&] { ++delivered; });
  EXPECT_EQ(first.source, ServeSource::kCloudFetch);
  EXPECT_DOUBLE_EQ(first.content_kbit, 80.0);  // 800 kbps x 100 ms, not 77
  EXPECT_EQ(delivered, 0);  // fetch is deferred by the modelled delay
  sim.run_until(10.0);
  EXPECT_EQ(delivered, 1);

  // Same content index (action 30 ms -> index 0): exact hit, inline.
  const auto second =
      service.request(service.slot_of(1), segment(3, 30.0),
                      [&] { ++delivered; });
  EXPECT_EQ(second.source, ServeSource::kCacheHit);
  EXPECT_DOUBLE_EQ(second.delay_ms, 0.0);
  EXPECT_EQ(delivered, 2);

  EXPECT_EQ(service.totals().hits, 1u);
  EXPECT_EQ(service.totals().misses, 1u);
  EXPECT_EQ(service.totals().fetches(), 1u);
  EXPECT_DOUBLE_EQ(service.totals().bytes_cloud_kbit, 80.0);
  EXPECT_DOUBLE_EQ(service.totals().bytes_edge_kbit, 80.0);
}

TEST(EdgeCacheServiceTest, ContentLoopFoldsTheTimeline) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);
  // duration 100 ms, loop 10 segments => the timeline repeats every 1 s.
  EXPECT_EQ(service.content_index(segment(3, 0.0)), 0u);
  EXPECT_EQ(service.content_index(segment(3, 250.0)), 2u);
  EXPECT_EQ(service.content_index(segment(3, 1'250.0)), 2u);  // wrapped
}

TEST(EdgeCacheServiceTest, DownLadderTranscodeFromCachedAncestor) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(10'000.0));
  service.add_supernode(1, 1);

  int delivered = 0;
  // Seed the level-5 variant (fetch), then ask for level 3 of the same
  // content: with the egress price on, transcode (2 + 0.01x80 = 2.8 ms)
  // beats fetch cost (0.5 + 0.8 + 0.05x80 = 5.3 ms).
  service.request(service.slot_of(1), segment(5, 0.0), [&] { ++delivered; });
  sim.run_until(10.0);
  const auto down =
      service.request(service.slot_of(1), segment(3, 10.0),
                      [&] { ++delivered; });
  EXPECT_EQ(down.source, ServeSource::kTranscode);
  EXPECT_EQ(down.transcoded_from, 5);
  EXPECT_DOUBLE_EQ(down.delay_ms, 2.0 + 0.01 * 80.0);
  EXPECT_EQ(delivered, 1);  // transcode still in flight
  sim.run_until(20.0);
  EXPECT_EQ(delivered, 2);

  // The transcoded variant was admitted: a repeat is now an exact hit.
  const auto again =
      service.request(service.slot_of(1), segment(3, 20.0),
                      [&] { ++delivered; });
  EXPECT_EQ(again.source, ServeSource::kCacheHit);
  EXPECT_EQ(service.totals().transcodes, 1u);
  // Only the level-5 seed crossed the cloud uplink.
  EXPECT_DOUBLE_EQ(service.totals().bytes_cloud_kbit,
                   1'800.0 * 100.0 / 1'000.0);
}

TEST(EdgeCacheServiceTest, FreeEgressMakesCostlyTranscodeFetchInstead) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(10'000.0, /*egress_price=*/0.0));
  service.add_supernode(1, 1);
  int delivered = 0;
  service.request(service.slot_of(1), segment(5, 0.0), [&] { ++delivered; });
  sim.run_until(10.0);
  // transcode 2.8 ms > fetch 0.5 + 0.8 = 1.3 ms and egress is free.
  const auto down =
      service.request(service.slot_of(1), segment(3, 10.0),
                      [&] { ++delivered; });
  EXPECT_EQ(down.source, ServeSource::kCloudFetch);
  EXPECT_EQ(service.totals().transcodes, 0u);
}

TEST(EdgeCacheServiceTest, ZeroCapacityFetchesEverything) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(0.0));
  service.add_supernode(1, 3);
  int delivered = 0;
  for (int i = 0; i < 4; ++i) {
    const auto out =
        service.request(service.slot_of(1), segment(3, 30.0 * i),
                        [&] { ++delivered; });
    EXPECT_EQ(out.source, ServeSource::kCloudFetch);
  }
  sim.run_until(100.0);
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(service.totals().hits, 0u);
  EXPECT_EQ(service.totals().misses, 4u);
  EXPECT_DOUBLE_EQ(service.totals().bytes_cloud_kbit, 4 * 80.0);
  EXPECT_DOUBLE_EQ(service.totals().bytes_edge_kbit, 0.0);
}

TEST(EdgeCacheServiceTest, CachesArePerSupernode) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);
  service.add_supernode(2, 1);
  int delivered = 0;
  service.request(service.slot_of(1), segment(3, 0.0), [&] { ++delivered; });
  sim.run_until(10.0);
  // Node 2 shares nothing with node 1: same content still misses there.
  const auto other =
      service.request(service.slot_of(2), segment(3, 10.0),
                      [&] { ++delivered; });
  EXPECT_EQ(other.source, ServeSource::kCloudFetch);
  EXPECT_EQ(service.node_cache(1).entry_count(), 1u);
  EXPECT_EQ(service.node_cache(2).entry_count(), 0u);
}

TEST(EdgeCacheServiceTest, RemoveSupernodeCancelsInFlightJobs) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);
  int delivered = 0;
  service.request(service.slot_of(1), segment(3, 0.0), [&] { ++delivered; });
  ASSERT_EQ(service.transcoder().in_flight(
                to_index(service.slot_of(1))), 1u);

  service.remove_supernode(1);
  EXPECT_FALSE(service.has_supernode(1));
  EXPECT_EQ(service.transcoder().in_flight(
                to_index(service.slot_of(1))), 0u);
  EXPECT_EQ(service.totals().cancelled_jobs, 1u);
  sim.run_until(100.0);
  // The departed node's fetch never completes a delivery.
  EXPECT_EQ(delivered, 0);
}

TEST(EdgeCacheServiceTest, RemovedNodeStateIsGone) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);
  service.remove_supernode(1);
  EXPECT_THROW(service.node_cache(1), std::logic_error);
  EXPECT_THROW(
      service.request(service.slot_of(1), segment(3, 0.0),
                      [] {}), std::logic_error);
  EXPECT_THROW(service.remove_supernode(1), std::logic_error);
  // Re-registration after churn is legal (a node may come back).
  service.add_supernode(1, 2);
  EXPECT_TRUE(service.has_supernode(1));
}

TEST(EdgeCacheServiceTest, DuplicateRegistrationRejected) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);
  EXPECT_THROW(service.add_supernode(1, 1), std::logic_error);
}

TEST(EdgeCacheServiceTest, ObserverSeesEveryDecision) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);
  std::vector<ServeSource> seen;
  service.set_serve_observer(
      [&](CacheSlot node, const stream::VideoSegment&,
          const EdgeCacheService::ServeOutcome& outcome) {
        EXPECT_EQ(node, service.slot_of(1));
        seen.push_back(outcome.source);
      });
  service.request(service.slot_of(1), segment(3, 0.0), [] {});
  sim.run_until(10.0);
  service.request(service.slot_of(1), segment(3, 10.0), [] {});
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], ServeSource::kCloudFetch);
  EXPECT_EQ(seen[1], ServeSource::kCacheHit);
}

TEST(EdgeCacheServiceTest, CapacityScalesWithSlots) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(500.0));
  service.add_supernode(1, 4);
  EXPECT_DOUBLE_EQ(service.node_cache(1).capacity_kbit(), 2'000.0);
}

TEST(EdgeCacheServiceTest, InterceptorDecliningLeavesFetchUnchanged) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);
  int consulted = 0;
  service.set_fetch_interceptor([&](CacheSlot, const stream::VideoSegment&,
                                    Kbit, EdgeCacheService::DeliverFn&) {
    ++consulted;
    return false;  // decline: the plain cloud fetch must proceed
  });
  int delivered = 0;
  const auto outcome =
      service.request(service.slot_of(1), segment(3, 0.0),
                      [&] { ++delivered; });
  EXPECT_EQ(consulted, 1);
  EXPECT_EQ(outcome.source, ServeSource::kCloudFetch);
  sim.run_until(10.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(service.totals().coop_probes, 0u);
  EXPECT_DOUBLE_EQ(service.totals().bytes_cloud_kbit, 80.0);
}

TEST(EdgeCacheServiceTest, PeerFetchResolvesWithoutCloudEgress) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);  // requester
  service.add_supernode(2, 1);  // peer that will hold the variant
  // Warm the peer: node 2 fetches the variant once.
  service.request(service.slot_of(2), segment(3, 0.0), [] {});
  sim.run_until(10.0);
  const double cloud_after_warm = service.totals().bytes_cloud_kbit;

  // Interceptor takes over node 1's miss and resolves it off node 2.
  EdgeCacheService::DeliverFn pending;
  service.set_fetch_interceptor([&](CacheSlot node,
                                    const stream::VideoSegment&, Kbit,
                                    EdgeCacheService::DeliverFn& deliver) {
    EXPECT_EQ(node, service.slot_of(1));
    pending = std::move(deliver);
    return true;
  });
  int delivered = 0;
  const auto probe =
      service.request(service.slot_of(1), segment(3, 20.0),
                      [&] { ++delivered; });
  EXPECT_EQ(probe.source, ServeSource::kPeerProbe);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(service.totals().coop_probes, 1u);

  EXPECT_TRUE(service.probe_hit(service.slot_of(2),
                                service.key_of(segment(3, 20.0))));
  // Other variant; departed peer.
  EXPECT_FALSE(service.probe_hit(service.slot_of(2),
                                 service.key_of(segment(4, 20.0))));
  EXPECT_FALSE(service.probe_hit(service.slot_of(99),
                                 service.key_of(segment(3, 20.0))));

  service.complete_peer_fetch(service.slot_of(1), segment(3, 20.0),
                              std::move(pending));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(service.totals().coop_hits, 1u);
  EXPECT_DOUBLE_EQ(service.totals().bytes_peer_kbit, 80.0);
  // No new cloud bytes — and the variant is now admitted locally: the next
  // request on node 1 is a plain hit.
  EXPECT_DOUBLE_EQ(service.totals().bytes_cloud_kbit, cloud_after_warm);
  const auto next =
      service.request(service.slot_of(1), segment(3, 40.0), [] {});
  EXPECT_EQ(next.source, ServeSource::kCacheHit);
}

TEST(EdgeCacheServiceTest, CloudFallbackAfterAllPeersMiss) {
  sim::Simulator sim;
  EdgeCacheService service(sim, config(1'000.0));
  service.add_supernode(1, 1);
  EdgeCacheService::DeliverFn pending;
  service.set_fetch_interceptor([&](CacheSlot, const stream::VideoSegment&,
                                    Kbit,
                                    EdgeCacheService::DeliverFn& deliver) {
    pending = std::move(deliver);
    return true;
  });
  int delivered = 0;
  service.request(service.slot_of(1), segment(3, 0.0), [&] { ++delivered; });
  ASSERT_TRUE(static_cast<bool>(pending));

  ServeSource resolved = ServeSource::kPeerProbe;
  service.set_serve_observer(
      [&](CacheSlot, const stream::VideoSegment&,
          const EdgeCacheService::ServeOutcome& outcome) {
        resolved = outcome.source;
      });
  service.cloud_fetch_fallback(service.slot_of(1), segment(3, 0.0),
                               std::move(pending));
  EXPECT_EQ(resolved, ServeSource::kCloudFetch);
  EXPECT_EQ(delivered, 0);  // transfer delay still applies
  sim.run_until(10.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_DOUBLE_EQ(service.totals().bytes_cloud_kbit, 80.0);
  EXPECT_EQ(service.totals().misses, 1u);  // counted once, at probe time
}

}  // namespace
}  // namespace cloudfog::cache
