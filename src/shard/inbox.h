// Cross-shard event mailboxes — DESIGN.md §13.
//
// During a window round each shard may post events destined for other
// shards (supernode failover notices, cooperative cache probes and their
// responses). Posts land in per-(source, destination) lanes: exactly one
// producer (the source shard's worker) ever appends to a lane during a
// round, and lanes are drained only between rounds, after the barrier —
// the barrier's mutex provides the happens-before edge, so no lane needs
// its own lock. Lanes are cache-line aligned so two producers never write
// the same line.
//
// Drain order is canonical: (when, source shard, per-lane sequence). The
// destination shard schedules the messages in exactly that order, so the
// receiving engine's tie-break (its own scheduling sequence) reproduces
// the same total order on every run and any worker count.
//
// A message is the destination engine's own callback type, so it moves into
// that engine as is, and neither posting nor draining allocates once the
// lanes and the drain buffer have grown to a window's traffic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/check.h"
#include "util/types.h"

namespace cloudfog::shard {

/// One cross-shard event: run `fn` on the destination shard at `when`.
struct InboxMessage {
  TimeMs when = 0.0;
  std::size_t src = 0;     // source shard
  std::uint64_t seq = 0;   // per-(src, dst) monotone posting order
  sim::Simulator::Callback fn;
};

class InboxExchange {
 public:
  explicit InboxExchange(std::size_t shards) : shards_(shards) {
    CF_CHECK_GE(shards, std::size_t{1});
    lanes_.resize(shards * shards);
  }

  std::size_t shards() const { return shards_; }

  /// Posts a message from `src` to `dst`. Only `src`'s worker may call
  /// this, and only while a round is executing (single producer per lane).
  void post(std::size_t src, std::size_t dst, TimeMs when,
            sim::Simulator::Callback fn) {
    CF_CHECK_MSG(src < shards_ && dst < shards_, "shard index out of range");
    CF_CHECK_MSG(src != dst, "same-shard events go straight to the engine");
    Lane& lane = lanes_[src * shards_ + dst];
    lane.messages.push_back(
        InboxMessage{when, src, lane.next_seq++, std::move(fn)});
  }

  /// Removes everything addressed to `dst` and returns it, sorted by the
  /// canonical (when, src, seq) order. Coordinator-only, between rounds.
  /// The messages live in a reused buffer, valid until the next drain.
  std::span<InboxMessage> drain(std::size_t dst) {
    CF_CHECK_MSG(dst < shards_, "shard index out of range");
    drained_.clear();
    for (std::size_t src = 0; src < shards_; ++src) {
      Lane& lane = lanes_[src * shards_ + dst];
      for (InboxMessage& m : lane.messages) drained_.push_back(std::move(m));
      lane.messages.clear();
    }
    std::sort(drained_.begin(), drained_.end(),
              [](const InboxMessage& a, const InboxMessage& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    return drained_;
  }

 private:
  struct alignas(64) Lane {
    std::vector<InboxMessage> messages;
    std::uint64_t next_seq = 0;
  };

  std::size_t shards_;
  std::vector<Lane> lanes_;  // indexed src * shards_ + dst
  std::vector<InboxMessage> drained_;
};

}  // namespace cloudfog::shard
