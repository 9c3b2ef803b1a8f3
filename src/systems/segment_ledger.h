// Packet-level segment settlement — the paper's Section IV QoE rule in one
// place, shared by every simulation that sends packets (DESIGN.md §14).
//
// A segment answers one player action. Its response latency runs from the
// action to the arrival of its last packet, and it settles once every
// packet is accounted for: delivered, lost in the network, dropped by the
// deadline scheduler or failed over to a fluid queue. Continuity counts
// the packets that arrive on time. Only a measured segment (action inside
// the measurement window) touches a QoE record or a counter.
//
// The ledger owns the open segments in a slab. The slab handle is the
// segment's VideoSegment::delivery_tag, so every per-packet hook reaches
// its segment — and through the stored slot, its player — with array
// indexes only. The per-player QoE accessor is a template parameter
// (`qoe_of(slot)` returns the player's metrics::PlayerQoE&), so the
// per-packet path inlines.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/supernode_sender.h"
#include "metrics/qoe.h"
#include "stream/stream_store.h"
#include "util/types.h"

namespace cloudfog::systems {

class SegmentLedger {
 public:
  /// on_delivery's answer for a packet whose segment has already settled.
  static constexpr std::size_t kUnknown =
      std::numeric_limits<std::size_t>::max();

  /// Opens a segment of `packets` packets for player `slot`, answering the
  /// action at `action_ms`. A measured segment counts its packets into the
  /// player's total now. Returns the segment's delivery tag.
  template <typename QoeOf>
  stream::StoreHandle open(std::size_t slot, TimeMs action_ms, int packets,
                           bool measured, const QoeOf& qoe_of) {
    const stream::StoreHandle tag = store_.create();
    Segment& seg = store_.get(tag);
    seg.slot = slot;
    seg.action_ms = action_ms;
    seg.live_packets = packets;
    seg.measured = measured;
    if (measured) qoe_of(slot).units_total += static_cast<double>(packets);
    return tag;
  }

  /// True while the segment `tag` names has packets outstanding.
  bool contains(stream::StoreHandle tag) const { return store_.contains(tag); }

  /// The player slot of an open segment. No contains() guard: the sender's
  /// rate-cap and loss hooks fire before their own packet settles, so the
  /// segment is always open there (a stale tag still fails the slab check).
  std::size_t slot(stream::StoreHandle tag) const {
    return store_.get(tag).slot;
  }

  /// Settles one sent packet, delivered or lost. Returns the player slot,
  /// or kUnknown when the segment had already settled.
  template <typename QoeOf>
  std::size_t on_delivery(const core::PacketDelivery& d, const QoeOf& qoe_of) {
    if (!store_.contains(d.delivery_tag)) return kUnknown;
    Segment& seg = store_.get(d.delivery_tag);
    const std::size_t slot = seg.slot;
    if (seg.measured && d.on_time()) {
      qoe_of(slot).units_on_time += 1.0;
      ++on_time_packets_;
    }
    if (!d.lost) {
      seg.delivered_any = true;
      seg.last_arrival = std::max(seg.last_arrival, d.arrival_ms);
    }
    settle(d.delivery_tag, seg, 1, qoe_of);
    return slot;
  }

  /// Settles one packet the deadline scheduler dropped.
  template <typename QoeOf>
  void on_drop(stream::StoreHandle tag, const QoeOf& qoe_of) {
    if (!store_.contains(tag)) return;
    Segment& seg = store_.get(tag);
    if (seg.measured) ++dropped_packets_;
    settle(tag, seg, 1, qoe_of);
  }

  /// Settles `packets` unsent packets that stream through a fluid queue
  /// instead, their last bit arriving at `last_arrival`. `on_time_units`
  /// is their on-time share in packet units.
  template <typename QoeOf>
  void on_failover(stream::StoreHandle tag, int packets, TimeMs last_arrival,
                   double on_time_units, const QoeOf& qoe_of) {
    if (!store_.contains(tag)) return;
    Segment& seg = store_.get(tag);
    if (seg.measured) qoe_of(seg.slot).units_on_time += on_time_units;
    seg.delivered_any = true;
    seg.last_arrival = std::max(seg.last_arrival, last_arrival);
    settle(tag, seg, packets, qoe_of);
  }

  /// Measured packets the deadline scheduler dropped.
  std::uint64_t dropped_packets() const { return dropped_packets_; }
  /// Measured packets delivered by their deadline.
  std::uint64_t on_time_packets() const { return on_time_packets_; }

 private:
  struct Segment {
    std::size_t slot = 0;
    TimeMs action_ms = 0.0;
    int live_packets = 0;
    TimeMs last_arrival = 0.0;
    bool delivered_any = false;
    bool measured = false;
  };

  /// Retires `packets` of the segment; the last one records the response
  /// latency (if any packet arrived) and closes the segment.
  template <typename QoeOf>
  void settle(stream::StoreHandle tag, Segment& seg, int packets,
              const QoeOf& qoe_of) {
    seg.live_packets -= packets;
    if (seg.live_packets > 0) return;
    if (seg.measured && seg.delivered_any) {
      metrics::add_latency(qoe_of(seg.slot), seg.last_arrival - seg.action_ms);
    }
    store_.destroy(tag);
  }

  stream::SlabStore<Segment> store_;
  std::uint64_t dropped_packets_ = 0;
  std::uint64_t on_time_packets_ = 0;
};

}  // namespace cloudfog::systems
