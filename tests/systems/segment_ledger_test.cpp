#include "systems/segment_ledger.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace cloudfog::systems {
namespace {

/// Two players' QoE records plus a count of accessor calls, so a test can
/// prove the ledger never touched a record.
struct Records {
  std::vector<metrics::PlayerQoE> qoe = std::vector<metrics::PlayerQoE>(2);
  std::size_t touches = 0;

  auto accessor() {
    return [this](std::size_t slot) -> metrics::PlayerQoE& {
      ++touches;
      return qoe[slot];
    };
  }
};

core::PacketDelivery packet(stream::StoreHandle tag, TimeMs arrival,
                            bool lost = false, TimeMs deadline = 100.0) {
  core::PacketDelivery d;
  d.delivery_tag = tag;
  d.arrival_ms = arrival;
  d.deadline_ms = deadline;
  d.lost = lost;
  return d;
}

enum class LastPacket { kDelivered, kLost, kDropped, kFailedOver };

class SegmentLedgerLastPacket : public ::testing::TestWithParam<LastPacket> {};

TEST_P(SegmentLedgerLastPacket, SettlesOnTheLastPacketWhateverItsFate) {
  Records r;
  SegmentLedger ledger;
  const auto tag = ledger.open(1, 5.0, 3, /*measured=*/true, r.accessor());
  EXPECT_DOUBLE_EQ(r.qoe[1].units_total, 3.0);
  EXPECT_EQ(ledger.on_delivery(packet(tag, 20.0), r.accessor()), 1u);
  ledger.on_drop(tag, r.accessor());
  EXPECT_TRUE(ledger.contains(tag));
  EXPECT_EQ(r.qoe[1].response_latency_ms.count(), 0u);

  TimeMs last_arrival = 20.0;
  switch (GetParam()) {
    case LastPacket::kDelivered:
      EXPECT_EQ(ledger.on_delivery(packet(tag, 30.0), r.accessor()), 1u);
      last_arrival = 30.0;
      break;
    case LastPacket::kLost:
      EXPECT_EQ(ledger.on_delivery(packet(tag, 0.0, true), r.accessor()), 1u);
      break;
    case LastPacket::kDropped:
      ledger.on_drop(tag, r.accessor());
      break;
    case LastPacket::kFailedOver:
      ledger.on_failover(tag, 1, 45.0, 0.5, r.accessor());
      last_arrival = 45.0;
      break;
  }
  EXPECT_FALSE(ledger.contains(tag));
  ASSERT_EQ(r.qoe[1].response_latency_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(r.qoe[1].response_latency_ms.mean(), last_arrival - 5.0);
  EXPECT_EQ(r.qoe[0].response_latency_ms.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fates, SegmentLedgerLastPacket,
    ::testing::Values(LastPacket::kDelivered, LastPacket::kLost,
                      LastPacket::kDropped, LastPacket::kFailedOver),
    [](const ::testing::TestParamInfo<LastPacket>& fate) {
      switch (fate.param) {
        case LastPacket::kDelivered: return "Delivered";
        case LastPacket::kLost: return "Lost";
        case LastPacket::kDropped: return "Dropped";
        case LastPacket::kFailedOver: return "FailedOver";
      }
      return "Unknown";
    });

TEST(SegmentLedger, LostPacketNeverMovesTheLastArrival) {
  Records r;
  SegmentLedger ledger;
  const auto tag = ledger.open(0, 0.0, 2, true, r.accessor());
  ledger.on_delivery(packet(tag, 12.0), r.accessor());
  // A lost packet's arrival_ms is meaningless, even when it is later.
  ledger.on_delivery(packet(tag, 90.0, /*lost=*/true), r.accessor());
  ASSERT_EQ(r.qoe[0].response_latency_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(r.qoe[0].response_latency_ms.mean(), 12.0);
  EXPECT_DOUBLE_EQ(r.qoe[0].units_on_time, 1.0);
}

TEST(SegmentLedger, AllLostSegmentRecordsNoLatency) {
  Records r;
  SegmentLedger ledger;
  const auto tag = ledger.open(0, 0.0, 2, true, r.accessor());
  ledger.on_delivery(packet(tag, 5.0, true), r.accessor());
  ledger.on_drop(tag, r.accessor());
  EXPECT_FALSE(ledger.contains(tag));
  EXPECT_EQ(r.qoe[0].response_latency_ms.count(), 0u);
  EXPECT_DOUBLE_EQ(r.qoe[0].units_on_time, 0.0);
  EXPECT_EQ(ledger.dropped_packets(), 1u);
}

TEST(SegmentLedger, CountsOnTimeAndDroppedPackets) {
  Records r;
  SegmentLedger ledger;
  const auto tag = ledger.open(0, 0.0, 4, true, r.accessor());
  ledger.on_delivery(packet(tag, 50.0), r.accessor());    // on time
  ledger.on_delivery(packet(tag, 150.0), r.accessor());   // late
  ledger.on_drop(tag, r.accessor());
  ledger.on_failover(tag, 1, 80.0, 0.25, r.accessor());   // fluid share
  EXPECT_EQ(ledger.on_time_packets(), 1u);
  EXPECT_EQ(ledger.dropped_packets(), 1u);
  EXPECT_DOUBLE_EQ(r.qoe[0].units_on_time, 1.25);
  EXPECT_DOUBLE_EQ(r.qoe[0].continuity(), 1.25 / 4.0);
  EXPECT_DOUBLE_EQ(r.qoe[0].response_latency_ms.mean(), 150.0);
}

TEST(SegmentLedger, FailoverSettlesSeveralPacketsAtOnce) {
  Records r;
  SegmentLedger ledger;
  const auto tag = ledger.open(0, 10.0, 5, true, r.accessor());
  ledger.on_delivery(packet(tag, 30.0), r.accessor());
  ledger.on_failover(tag, 3, 25.0, 0.0, r.accessor());
  EXPECT_TRUE(ledger.contains(tag));  // one packet still in flight
  ledger.on_delivery(packet(tag, 0.0, true), r.accessor());
  EXPECT_FALSE(ledger.contains(tag));
  // The fluid remainder arrived before the delivered packet.
  EXPECT_DOUBLE_EQ(r.qoe[0].response_latency_ms.mean(), 20.0);
}

TEST(SegmentLedger, UnmeasuredSegmentTouchesNoRecordAndNoCounter) {
  Records r;
  SegmentLedger ledger;
  const auto tag = ledger.open(1, 0.0, 4, /*measured=*/false, r.accessor());
  EXPECT_EQ(ledger.slot(tag), 1u);
  EXPECT_EQ(ledger.on_delivery(packet(tag, 10.0), r.accessor()), 1u);
  ledger.on_delivery(packet(tag, 10.0, true), r.accessor());
  ledger.on_drop(tag, r.accessor());
  ledger.on_failover(tag, 1, 20.0, 1.0, r.accessor());
  EXPECT_FALSE(ledger.contains(tag));
  EXPECT_EQ(r.touches, 0u);
  EXPECT_DOUBLE_EQ(r.qoe[1].units_total, 0.0);
  EXPECT_DOUBLE_EQ(r.qoe[1].units_on_time, 0.0);
  EXPECT_EQ(r.qoe[1].response_latency_ms.count(), 0u);
  EXPECT_EQ(ledger.on_time_packets(), 0u);
  EXPECT_EQ(ledger.dropped_packets(), 0u);
}

TEST(SegmentLedger, SettledTagReadsAsUnknown) {
  Records r;
  SegmentLedger ledger;
  const auto tag = ledger.open(0, 0.0, 1, true, r.accessor());
  ledger.on_delivery(packet(tag, 10.0), r.accessor());
  EXPECT_FALSE(ledger.contains(tag));
  const metrics::PlayerQoE before = r.qoe[0];
  const std::size_t touches = r.touches;
  // A straggler for the settled segment changes nothing.
  EXPECT_EQ(ledger.on_delivery(packet(tag, 20.0), r.accessor()),
            SegmentLedger::kUnknown);
  ledger.on_drop(tag, r.accessor());
  ledger.on_failover(tag, 1, 30.0, 1.0, r.accessor());
  EXPECT_EQ(r.touches, touches);
  EXPECT_DOUBLE_EQ(r.qoe[0].units_on_time, before.units_on_time);
  EXPECT_EQ(r.qoe[0].response_latency_ms.count(), 1u);
  EXPECT_EQ(ledger.on_time_packets(), 1u);
  EXPECT_EQ(ledger.dropped_packets(), 0u);
  // The slot is recycled under a new generation: the old tag stays unknown.
  const auto next = ledger.open(1, 0.0, 1, true, r.accessor());
  EXPECT_NE(next, tag);
  EXPECT_EQ(ledger.on_delivery(packet(tag, 20.0), r.accessor()),
            SegmentLedger::kUnknown);
  EXPECT_TRUE(ledger.contains(next));
}

}  // namespace
}  // namespace cloudfog::systems
