// Deliveries waiting for a player's receive buffer: the streaming engine's
// replacement for one engine event per buffer arrival (DESIGN.md §13).
//
// The engine reads a stream::ReceiverBuffer only at the player's
// adaptation ticks, the paper's instants t_k (Section III-B, Eq 7-8). An
// arrival therefore needs no event of its own. It waits here, sorted by
// arrival time, until a tick reads the buffer or the run ends, and is
// applied then. The buffer sees exactly the on_arrival / set_playback_rate
// sequence that one event per arrival produced in the engine's (when, seq)
// order.
//
// Ties. Arrivals at equal times keep their scheduling order, as equal-time
// events do. An arrival at exactly a tick's time is the subtle case. A
// periodic event is re-armed as it fires, before its callback runs, so
// tick k+1 takes its seq when tick k fires. An arrival at tick k+1's time
// therefore came before that tick if and only if it was scheduled before
// tick k fired. Each entry records as its epoch the number of ticks fired
// when it was scheduled. A tick that finds k ticks already fired applies the
// equal-time entries whose epoch is below k.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stream/receiver_buffer.h"
#include "util/types.h"

namespace cloudfog::systems {

class PendingArrivals {
 public:
  /// A delivery of `size` kbit landing at `when`, scheduled at time `now`
  /// (`when` >= `now`). Applies every entry before `now` first, which keeps
  /// the list down to what is in flight.
  void add(stream::ReceiverBuffer& buffer, TimeMs now, TimeMs when,
           Kbit size) {
    apply(buffer, [now](const Entry& e) { return e.when < now; });
    const auto at = std::upper_bound(
        pending_.begin(), pending_.end(), when,
        [](TimeMs t, const Entry& e) { return t < e.when; });
    pending_.insert(at, {when, size, ticks_});
  }

  /// The tick firing at `now` is about to read the buffer: applies every
  /// entry that came before it, then counts the tick.
  void before_tick(stream::ReceiverBuffer& buffer, TimeMs now) {
    const std::uint64_t fired = ticks_++;
    apply(buffer, [now, fired](const Entry& e) {
      return e.when < now || (e.when == now && e.epoch < fired);
    });
  }

  /// The event loop stopped at `horizon`, which it fired events at: applies
  /// every entry at or before it.
  void flush(stream::ReceiverBuffer& buffer, TimeMs horizon) {
    apply(buffer, [horizon](const Entry& e) { return e.when <= horizon; });
  }

 private:
  struct Entry {
    TimeMs when = 0.0;
    Kbit kbit = 0.0;
    std::uint64_t epoch = 0;  // ticks fired when the entry was scheduled
  };

  /// Feeds the buffer, in list order, the leading entries for which `due`
  /// holds, and drops them. Each caller's `due` holds on a prefix: the list
  /// is sorted by `when`, and epochs never decrease along equal `when`.
  template <typename Due>
  void apply(stream::ReceiverBuffer& buffer, Due due) {
    auto it = pending_.begin();
    for (; it != pending_.end() && due(*it); ++it)
      buffer.on_arrival(it->when, it->kbit);
    pending_.erase(pending_.begin(), it);
  }

  std::vector<Entry> pending_;  // sorted by when; equal when in add order
  std::uint64_t ticks_ = 0;     // ticks fired so far
};

}  // namespace cloudfog::systems
