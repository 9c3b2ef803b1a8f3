#include "core/supernode_sender.h"

#include <algorithm>
#include <utility>

#include "cache/edge_cache_service.h"
#include "util/check.h"

namespace cloudfog::core {

SupernodeSender::SupernodeSender(sim::Simulator& sim, Kbps uplink_kbps,
                                 Discipline discipline,
                                 DeadlineSchedulerConfig scheduler_config,
                                 PropagationFn propagation, DeliveryFn on_delivery,
                                 util::Rng rng)
    : sim_(&sim),
      uplink_kbps_(uplink_kbps),
      discipline_(discipline),
      scheduler_(uplink_kbps, scheduler_config),
      propagation_(std::move(propagation)),
      on_delivery_(std::move(on_delivery)),
      rng_(rng) {
  CF_CHECK_MSG(uplink_kbps > 0.0, "uplink rate must be positive");
  CF_CHECK_MSG(static_cast<bool>(propagation_), "propagation sampler required");
  CF_CHECK_MSG(static_cast<bool>(on_delivery_), "delivery observer required");
}

void SupernodeSender::set_burst_limit(std::size_t limit) {
  CF_CHECK_GE(limit, std::size_t{1});
  burst_limit_ = limit;
}

void SupernodeSender::submit(const stream::VideoSegment& segment) {
  CF_CHECK_MSG(segment.size_kbit > 0.0, "segment size must be positive");
  if (cache_service_ != nullptr) {
    // Source the content first; the segment joins the uplink queue when it
    // exists locally (immediately on a hit, after the modelled delay for a
    // transcode or cloud fetch).
    cache_service_->request(cache_slot_, segment,
                            [this, segment] { enqueue_ready(segment); });
    return;
  }
  enqueue_ready(segment);
}

void SupernodeSender::attach_segment_cache(cache::EdgeCacheService* service,
                                           NodeId self) {
  CF_CHECK_MSG(service != nullptr, "attach needs a cache service");
  CF_CHECK_MSG(service->has_supernode(self),
               "this supernode is not registered with the cache service");
  CF_CHECK_MSG(packets_submitted_ == 0,
               "attach the cache before the first submit");
  cache_service_ = service;
  cache_slot_ = service->slot_of(self);
}

void SupernodeSender::enqueue_ready(const stream::VideoSegment& segment) {
  packets_submitted_ +=
      static_cast<std::uint64_t>(stream::packet_count(segment.size_kbit));
  if (discipline_ == Discipline::kDeadline) {
    scheduler_.enqueue(segment, sim_->now());
  } else {
    fifo_push(make_queued_segment(segment, sim_->now()));
  }
  pump();
}

std::uint64_t SupernodeSender::packets_dropped() const {
  return discipline_ == Discipline::kDeadline ? scheduler_.total_dropped_packets()
                                              : 0;
}

std::vector<DeadlineScheduler::PendingSegment> SupernodeSender::drain_pending() {
  if (discipline_ == Discipline::kDeadline) return scheduler_.drain_pending();
  CF_INVARIANT(fifo_count_ <= fifo_buf_.size(),
               "FIFO ring count exceeds its storage");
  std::vector<DeadlineScheduler::PendingSegment> out;
  out.reserve(fifo_count_);
  for (std::size_t k = 0; k < fifo_count_; ++k) {
    const QueuedSegment& qs = fifo_buf_[(fifo_head_ + k) % fifo_buf_.size()];
    const int live = qs.remaining_packets();
    if (live <= 0) continue;
    out.push_back(DeadlineScheduler::PendingSegment{qs.segment, live,
                                                    qs.remaining_kbit()});
  }
  fifo_head_ = 0;
  fifo_count_ = 0;
  return out;
}

void SupernodeSender::fifo_push(QueuedSegment qs) {
  if (fifo_count_ == fifo_buf_.size()) {
    // Grow the ring (unwrapping head to 0); amortised, and never on the
    // steady-state path once the backlog's high-water mark is reached.
    const std::size_t old_cap = fifo_buf_.size();
    std::vector<QueuedSegment> next(std::max<std::size_t>(8, old_cap * 2));
    for (std::size_t k = 0; k < fifo_count_; ++k)
      next[k] = std::move(fifo_buf_[(fifo_head_ + k) % old_cap]);
    fifo_buf_ = std::move(next);
    fifo_head_ = 0;
  }
  fifo_buf_[(fifo_head_ + fifo_count_) % fifo_buf_.size()] = std::move(qs);
  ++fifo_count_;
}

bool SupernodeSender::fifo_pop(FifoPacket& out) {
  while (fifo_count_ > 0) {
    QueuedSegment& head = fifo_buf_[fifo_head_];
    if (head.next_packet >= head.packet_total) {
      fifo_head_ = (fifo_head_ + 1) % fifo_buf_.size();
      --fifo_count_;
      continue;
    }
    out.packet.segment_id = head.segment.id;
    out.packet.index = head.next_packet;
    out.packet.size_kbit = head.packet_kbit(head.next_packet);
    out.packet.deadline_ms = head.segment.deadline_ms;
    out.packet.dropped = false;
    out.player = head.segment.player;
    out.game = head.segment.game;
    out.action_ms = head.segment.action_time_ms;
    out.delivery_tag = head.segment.delivery_tag;
    ++head.next_packet;
    if (head.next_packet >= head.packet_total) {
      fifo_head_ = (fifo_head_ + 1) % fifo_buf_.size();
      --fifo_count_;
    }
    return true;
  }
  return false;
}

bool SupernodeSender::pop_next(FifoPacket& out, TimeMs clock) {
  if (discipline_ == Discipline::kDeadline) {
    auto next = scheduler_.pop_packet(clock);
    if (!next) return false;
    out.packet = next->packet;
    out.player = next->player;
    out.game = next->game;
    out.action_ms = next->segment_action_ms;
    out.delivery_tag = next->delivery_tag;
    return true;
  }
  return fifo_pop(out);
}

void SupernodeSender::pump() {
  if (transmitting_) return;
  if (input_horizon_) {
    // The horizon holds every input still due at this timestamp, so the
    // train arms its first packet's event whenever another submit may come.
    run_train(sim_->now());
    return;
  }
  // A submit is often one of several at this timestamp (an engine tick
  // fans out a whole batch), and the later ones are invisible to both the
  // event-queue peek and the run horizon — so no inline completion here.
  // Pop one packet and arm its completion event, exactly the old
  // per-packet path; the burst train runs from that event, where every
  // same-time submit is already in the queue.
  FifoPacket item;
  if (!pop_next(item, sim_->now())) return;
  transmitting_ = true;
  arm(item, sim_->now() + transmission_ms(item.packet.size_kbit, uplink_kbps_));
}

void SupernodeSender::arm(const FifoPacket& item, TimeMs done) {
  sim_->schedule_at(done, [this, item] {
    const TimeMs at = sim_->now();
    complete(item, at);
    run_train(at);
  });
}

void SupernodeSender::run_train(TimeMs clock) {
  FifoPacket item;
  if (!pop_next(item, clock)) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  // Read once per train: no input of this sender runs before the horizon,
  // so nothing moves it while the train does.
  const bool own_inputs = static_cast<bool>(input_horizon_);
  const TimeMs inputs = own_inputs ? input_horizon_() : 0.0;
  std::size_t inline_completions = 0;
  for (;;) {
    const TimeMs done =
        clock + transmission_ms(item.packet.size_kbit, uplink_kbps_);
    // Break the train whenever an input may land at or before this
    // packet's completion: it may mutate the queue (a submit, a churn
    // drain), so the next pop decision must wait for it. With an input
    // horizon that is the horizon itself; without one, any sim event. The
    // peek is a conservative lower bound — a tombstone can only break the
    // train early, which re-arms and re-checks, never reorders anything.
    // Past the run horizon the event set says nothing about future inputs
    // (a direct submit() from driver code between run_*() calls, a
    // cross-shard message delivered at the next window barrier), so the
    // train arms a real event there and lets the calendar queue decide the
    // interleaving — outside any run loop the horizon is -infinity and
    // every packet takes the one-event-per-packet path.
    const bool input_due =
        own_inputs ? done >= inputs : sim_->next_event_time() <= done;
    if (done > sim_->run_horizon() || input_due ||
        inline_completions + 1 >= burst_limit_) {
      arm(item, done);
      return;
    }
    complete(item, done);
    ++inline_completions;
    clock = done;
    if (!pop_next(item, clock)) {
      transmitting_ = false;
      return;
    }
  }
}

void SupernodeSender::complete(const FifoPacket& item, TimeMs at) {
  ++packets_sent_;
  // Network loss: the packet left the uplink but never reaches the player.
  if (loss_ && rng_.bernoulli(loss_(item.player, item.delivery_tag))) {
    ++packets_lost_;
    PacketDelivery d;
    d.player = item.player;
    d.game = item.game;
    d.segment_id = item.packet.segment_id;
    d.packet_index = item.packet.index;
    d.size_kbit = item.packet.size_kbit;
    d.action_ms = item.action_ms;
    d.deadline_ms = item.packet.deadline_ms;
    d.sent_ms = at;
    d.lost = true;
    d.delivery_tag = item.delivery_tag;
    on_delivery_(d);
    return;
  }
  TimeMs prop = propagation_(item.player, rng_);
  if (rate_cap_) {
    const Kbps cap = rate_cap_(item.player, item.delivery_tag);
    if (cap > 0.0 && cap < uplink_kbps_) {
      // WAN bottleneck transit: the packet trickles through the slow hop.
      prop += transmission_ms(item.packet.size_kbit, cap) -
              transmission_ms(item.packet.size_kbit, uplink_kbps_);
    }
  }
  PacketDelivery d;
  d.player = item.player;
  d.game = item.game;
  d.segment_id = item.packet.segment_id;
  d.packet_index = item.packet.index;
  d.size_kbit = item.packet.size_kbit;
  d.action_ms = item.action_ms;
  d.deadline_ms = item.packet.deadline_ms;
  d.sent_ms = at;
  d.arrival_ms = at + prop;
  d.delivery_tag = item.delivery_tag;
  // Feed the Eq (13) propagation history (as if acknowledged).
  scheduler_.record_propagation(item.player, prop);
  on_delivery_(d);
}

}  // namespace cloudfog::core
