// Packet-level supernode sender: serialises packets onto the supernode's
// uplink under a pluggable discipline and delivers them to players after a
// sampled propagation delay.
//
//   * Discipline::kFifo     — segments transmit in arrival order, no drops
//                             (the CloudFog/B baseline sender).
//   * Discipline::kDeadline — the Section III-C deadline-driven scheduler:
//                             expected-arrival ordering plus Eq (12)–(14)
//                             tolerance-weighted packet dropping.
//
// The sender measures each delivered packet's propagation delay back into
// the scheduler (the paper's "records the propagation delay of m recently
// sent packets for each player", Eq 13).
//
// Burst transmission (DESIGN.md §14): the uplink drains in back-to-back
// trains. After popping a packet the sender computes its completion time
// `done` against an explicitly threaded clock; if `done` is within the
// simulator's run horizon, no input of the sender may land at or before
// it, and the burst limit allows, the packet completes *inline* at `done`
// and the train continues — otherwise one sim event is armed at `done` and
// the train resumes there. An input is anything that may change the queue:
//
//   * Without an input-horizon hook (the default) the sender cannot tell
//     its inputs from other events, so any sim event is one. A submit on
//     an idle uplink never completes inline — it pops one packet and arms
//     its completion event (the submit is often one of a batch at the same
//     timestamp, and the later ones are invisible to any peek); trains run
//     from the sender's own completion events.
//   * With one (set_input_horizon) the owner names the earliest time any
//     input may land, so a train runs past unrelated events, and a submit
//     on an idle uplink starts the train at once: a same-time submit still
//     due keeps the horizon at now.
//
// The timeline is identical to the old one-event-per-packet sender: a
// train only skips event-queue round trips that nothing could observe —
// the run-horizon gate keeps it honest where the event queue is blind
// (direct submits between run_*() calls, shard window barriers). Contract
// this imposes on delivery callbacks: they run logically at
// PacketDelivery::sent_ms, which mid-train is ahead of Simulator::now() —
// take times from the delivery record, never from the sim clock.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/deadline_scheduler.h"
#include "sim/simulator.h"
#include "stream/video.h"
#include "util/rng.h"
#include "util/small_function.h"
#include "util/types.h"

namespace cloudfog::cache {
class EdgeCacheService;
enum class CacheSlot : std::uint32_t;
}

namespace cloudfog::core {

/// Report of one packet leaving the supernode and reaching the player.
struct PacketDelivery {
  NodeId player = kInvalidNode;
  game::GameId game = -1;
  std::uint64_t segment_id = 0;
  int packet_index = 0;
  Kbit size_kbit = 0.0;
  TimeMs action_ms = 0.0;    // t_m of the segment's triggering action
  TimeMs deadline_ms = 0.0;  // t_a
  TimeMs sent_ms = 0.0;      // last bit left the uplink
  TimeMs arrival_ms = 0.0;   // reached the player (meaningless when lost)
  bool lost = false;         // dropped in the network, never arrived
  std::uint64_t delivery_tag = 0;  // the segment's tag as submitted
  bool on_time() const { return !lost && arrival_ms <= deadline_ms; }
};

class SupernodeSender {
 public:
  enum class Discipline { kFifo, kDeadline };

  /// Samples the propagation delay of one packet to `player`.
  using PropagationFn =
      util::small_function<TimeMs(NodeId player, util::Rng& rng)>;
  /// Optional per-player WAN bottleneck rate (kbps); <= 0 means none. A
  /// packet to a capped player takes size/rate extra transit time after
  /// leaving the uplink — the bottleneck stretches delivery, it does not
  /// block the shared sender queue. `delivery_tag` is the segment's tag so
  /// slab-indexed harnesses can reach their per-session state directly.
  using RateCapFn =
      util::small_function<Kbps(NodeId player, std::uint64_t delivery_tag)>;
  /// Optional per-player network loss probability in [0, 1).
  using LossFn =
      util::small_function<double(NodeId player, std::uint64_t delivery_tag)>;
  /// Observer invoked for every delivered packet. Runs logically at
  /// PacketDelivery::sent_ms — mid-train that is ahead of Simulator::now(),
  /// so read times from the record, not from the sim clock.
  using DeliveryFn = util::small_function<void(const PacketDelivery&), 64>;
  /// Optional: the earliest time at which anything other than this
  /// sender's own train may change its queue (a submit, a backlog drain).
  /// It may only move while no train runs, and must count an input still
  /// due at the current time.
  using InputHorizonFn = util::small_function<TimeMs()>;

  SupernodeSender(sim::Simulator& sim, Kbps uplink_kbps, Discipline discipline,
                  DeadlineSchedulerConfig scheduler_config,
                  PropagationFn propagation, DeliveryFn on_delivery,
                  util::Rng rng);

  /// Movable so slab stores can hold senders by value — but in-flight
  /// completion events capture `this`, so a sender may only be moved while
  /// no transmission is pending: create every sender before the first event
  /// runs and never grow the store afterwards.
  SupernodeSender(SupernodeSender&&) = default;
  SupernodeSender& operator=(SupernodeSender&&) = default;

  /// Accepts a rendered segment at simulator time. With a segment cache
  /// attached the segment is first *sourced* (cache hit / local transcode /
  /// cloud fetch) and enters the uplink queue once the content is available
  /// locally; without one it enqueues immediately. Under kDeadline the
  /// scheduler may drop packets of this or earlier segments per Eq (14).
  void submit(const stream::VideoSegment& segment);

  /// Routes future submissions through the supernode segment cache on
  /// behalf of supernode `self`. Attach before the first submit; the
  /// service must be registered for `self` and outlive this sender.
  void attach_segment_cache(cache::EdgeCacheService* service, NodeId self);

  /// Installs a per-player WAN bottleneck. Call before the first submit.
  /// Optional: null means "no cap", and complete() null-guards before sampling.
  void set_rate_cap(RateCapFn cap) { rate_cap_ = std::move(cap); }  // lint:allow(trust-boundary)

  /// Installs a per-player packet-loss model. Lost packets are reported
  /// through the delivery observer with lost = true.
  /// Optional: null means "lossless", and complete() null-guards before sampling.
  void set_loss_model(LossFn loss) { loss_ = std::move(loss); }  // lint:allow(trust-boundary)

  /// Installs the input horizon: a train then stops only at a packet that
  /// would finish at or after it, not at any sim event, and a submit on an
  /// idle uplink starts the train inline. Call before the first submit.
  /// Optional: null keeps the any-event rule, and every site null-guards.
  void set_input_horizon(InputHorizonFn horizon) {  // lint:allow(trust-boundary)
    input_horizon_ = std::move(horizon);
  }

  /// Caps how many packets one train completes inline before the sender
  /// falls back to arming a sim event (default: unlimited). A limit of 1
  /// reproduces the old one-event-per-packet timeline exactly — the
  /// equivalence oracle in tests/core runs both and compares digests.
  void set_burst_limit(std::size_t limit);

  Discipline discipline() const { return discipline_; }
  Kbps uplink_kbps() const { return uplink_kbps_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_submitted() const { return packets_submitted_; }
  /// Packets dropped by the deadline scheduler (0 under FIFO).
  std::uint64_t packets_dropped() const;
  /// Packets lost in the network (set_loss_model).
  std::uint64_t packets_lost() const { return packets_lost_; }

  /// Exposes the scheduler (kDeadline only) for inspection in tests.
  const DeadlineScheduler& scheduler() const { return scheduler_; }

  /// Forwards a drop observer to the scheduler (kDeadline only; no drops
  /// ever occur under FIFO). Pure delegation to the scheduler's optional
  /// observer sink, which is itself waived: null clears, sites null-guard.
  void set_drop_observer(DeadlineScheduler::DropObserver observer) {  // lint:allow(trust-boundary)
    scheduler_.set_drop_observer(std::move(observer));
  }

  /// Abandons the queued backlog (supernode churn): empties whichever
  /// queue the discipline uses and returns the segments that still had
  /// unsent packets. The in-flight packet, if any, still completes.
  std::vector<DeadlineScheduler::PendingSegment> drain_pending();

 private:
  struct FifoPacket {
    stream::Packet packet;
    NodeId player;
    game::GameId game;
    TimeMs action_ms;
    std::uint64_t delivery_tag;
  };

  /// Enqueues a segment whose content is locally available (post-cache).
  void enqueue_ready(const stream::VideoSegment& segment);
  /// If the uplink is idle, starts a train: inline with an input horizon,
  /// otherwise by popping one packet and arming its completion event
  /// (same-timestamp submits may still be pending).
  void pump();
  /// Arms the completion event of `item` at `done`; the train resumes there.
  void arm(const FifoPacket& item, TimeMs done);
  /// Drains the queue back-to-back from `clock` (>= sim time) until it
  /// empties, an input may intervene, or the burst limit is hit.
  void run_train(TimeMs clock);
  /// Pops the next packet under the current discipline.
  bool pop_next(FifoPacket& out, TimeMs clock);
  /// Completes one transmission at explicit time `at`: samples loss /
  /// propagation / rate cap and reports the delivery.
  void complete(const FifoPacket& item, TimeMs at);

  // --- segment-granular FIFO ring (kFifo) -------------------------------
  // Stores whole segments with the same implicit packet layout the
  // deadline queue uses; packets are derived on demand, so steady-state
  // pushes and pops never allocate (the ring keeps its high-water size).
  void fifo_push(QueuedSegment qs);
  bool fifo_pop(FifoPacket& out);

  sim::Simulator* sim_;
  Kbps uplink_kbps_;
  Discipline discipline_;
  DeadlineScheduler scheduler_;   // used only under kDeadline
  std::vector<QueuedSegment> fifo_buf_;  // ring storage (kFifo)
  std::size_t fifo_head_ = 0;
  std::size_t fifo_count_ = 0;
  PropagationFn propagation_;
  RateCapFn rate_cap_;
  LossFn loss_;
  InputHorizonFn input_horizon_;
  DeliveryFn on_delivery_;
  cache::EdgeCacheService* cache_service_ = nullptr;  // optional, not owned
  cache::CacheSlot cache_slot_{};  // this supernode's slot in the service
  util::Rng rng_;
  bool transmitting_ = false;
  std::size_t burst_limit_ = std::numeric_limits<std::size_t>::max();
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_submitted_ = 0;
  std::uint64_t packets_lost_ = 0;
};

}  // namespace cloudfog::core
