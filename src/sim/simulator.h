// Deterministic discrete-event simulation engine — the substrate standing in
// for the paper's PeerSim harness.
//
// Properties the experiments rely on:
//   * Events at equal timestamps fire in scheduling order, so runs are
//     deterministic: the engine pops in exact (when, seq) order, seq being
//     the order in which events were scheduled.
//   * Events can be cancelled by handle (used by churn: a node leaving
//     cancels its pending streaming events).
//   * Periodic events reschedule themselves until cancelled or the horizon
//     is reached.
//
// Engine layout (DESIGN.md §8): event records live in a slab (a stable
// deque indexed by 32-bit slot number) recycled through a free list, so the
// steady-state schedule/fire cycle performs zero heap allocations. Handles
// are generation-tagged — EventId packs (generation << 32 | slot) — so a
// stale handle for a recycled slot is rejected in O(1) without any lookup
// table. The pending set is a calendar queue (Brown, CACM 1988): an event
// has at most one queued node, kept in a slot-indexed array and linked
// into bucket floor(when / width) mod buckets. Each bucket is a list in
// (when, seq) order; a pop scans the buckets slice by slice from a cursor
// and takes the first head that lies in the slice being scanned. Bucket
// count and width are re-derived from the pending set whenever it doubles
// or halves, and affect speed only (DESIGN.md §8.1 argues the order is
// exactly the (when, seq) order). Cancellation tombstones a slot and the
// queue is purged eagerly once tombstones outnumber live nodes. While a
// callback is executing the purge is deferred to fire_next's tail:
// compacting mid-callback would release the executing slot (destroying the
// running callback and letting a same-callback schedule_* recycle its
// storage). Callbacks may throw — the slot is still reclaimed — but must
// not re-enter step()/run_until()/run_all() (checked).
//
// Callbacks are util::small_function (DESIGN.md §14): captures live inline
// in the slab record and a capture larger than kCallbackCapacity is a
// compile error at the scheduling site, so the schedule/fire cycle can
// never allocate — not just "doesn't in steady state".
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "util/small_function.h"
#include "util/types.h"

namespace cloudfog::sim {

/// Opaque handle identifying a scheduled event. Packs a slab slot index in
/// the low 32 bits and that slot's generation (>= 1) in the high 32 bits;
/// a slot's generation bumps every time it is recycled, so handles to dead
/// events stay invalid. (A single slot would need 2^32 recycles to see a
/// generation repeat — beyond any plausible run.)
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Inline capture budget for event callbacks. Sized for the largest hot
/// capture in the tree (the sender's per-packet completion closure); grow it
/// deliberately if a new callsite trips the static_assert — every slab slot
/// carries this many bytes.
inline constexpr std::size_t kCallbackCapacity = 96;

/// Single-threaded discrete-event simulator.
class Simulator {
 public:
  using Callback = util::small_function<void(), kCallbackCapacity>;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in milliseconds.
  TimeMs now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (>= now()). Returns a handle.
  EventId schedule_at(TimeMs when, Callback fn);

  /// Schedules `fn` after `delay` milliseconds (>= 0).
  EventId schedule_after(TimeMs delay, Callback fn);

  /// Schedules `fn` every `period` ms starting at now() + `first_delay`.
  /// The callback keeps firing until the returned handle is cancelled.
  EventId schedule_every(TimeMs first_delay, TimeMs period, Callback fn);

  /// Cancels a pending event. Returns true if the event existed and was
  /// still pending. Cancelling an already-fired or invalid handle is a
  /// harmless no-op returning false.
  bool cancel(EventId id);

  /// Runs a single event. Returns false if the queue was empty.
  bool step();

  /// Runs events until the queue empties or simulated time would exceed
  /// `horizon`; the clock is left at min(horizon, last event time).
  void run_until(TimeMs horizon);

  /// Conservative-window variant of run_until: fires only events with
  /// `when` strictly BEFORE `bound` and leaves the clock exactly at
  /// `bound`. An event landing exactly on `bound` belongs to the *next*
  /// window — the half-open [start, bound) advance the space-parallel
  /// shard runner (src/shard) builds its barrier protocol on: a message
  /// arriving exactly at a window boundary is executed after the barrier,
  /// never squeezed into the closing window.
  void run_before(TimeMs bound);

  /// Runs until the queue is empty.
  void run_all();

  /// Conservative peek at the earliest pending event time: +infinity when
  /// the queue is empty, otherwise the minimum over every queued node —
  /// which may be a cancelled tombstone, so the returned time is a *lower
  /// bound* on the next live event. That direction is the safe one for the
  /// burst transmission trains (DESIGN.md §14): a train breaks whenever
  /// next_event_time() <= its in-flight completion, so a stale tombstone
  /// can only break a train early, never let it run past a live event.
  /// Never releases slots, so it is safe to call from inside a callback
  /// (unlike the run_* peek loop, which reclaims dead tops as it goes); the
  /// minimum it finds is cached, so repeated peeks are O(1).
  TimeMs next_event_time() const {
    if (min_slot_ != kNoSlot) return min_when_;
    return queued_ == 0 ? std::numeric_limits<TimeMs>::infinity()
                        : nodes_[find_min()].when;
  }

  /// Upper bound on the timestamp of any event the currently-executing
  /// run_*() call may still fire: the bound argument during run_until() and
  /// run_before(), +infinity during run_all(), and -infinity when no run
  /// loop is active (including bare step()). Burst transmission trains
  /// (DESIGN.md §14) consult this before completing a packet inline at a
  /// future timestamp: beyond the run horizon the queue says nothing about
  /// future inputs — a direct submit() from driver code between run calls,
  /// or a cross-shard message delivered at the next window barrier — so
  /// the train must arm a real event there and let the queue decide the
  /// interleaving.
  TimeMs run_horizon() const { return run_horizon_; }

  /// Number of live pending events (cancelled tombstones excluded; a
  /// periodic event counts once).
  std::size_t pending() const { return live_count_; }

  /// Total events executed since construction (tombstones excluded).
  std::uint64_t executed() const { return executed_; }

 private:
  /// One slab record. `generation` survives recycling (it is what makes
  /// stale handles detectable) — everything else is re-initialised when the
  /// slot is acquired.
  struct Slot {
    Callback fn;
    TimeMs period = -1.0;  // >= 0 means periodic
    std::uint32_t generation = 1;
    bool cancelled = false;
    bool in_use = false;
  };

  /// Sentinel slot index; push() caps the slab below 2^32 - 1 slots, so no
  /// real slot ever carries this value.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// The queued node of one slot (an event has at most one): its time and
  /// the next node of its bucket. The callback stays in the slab, and seq
  /// is implicit — a node is linked behind every node of equal time.
  struct Node {
    TimeMs when = 0.0;
    std::uint32_t next = kNoSlot;
  };

  /// One calendar bucket: an intrusive list of nodes in (when, seq) order.
  /// The tail makes an append — every equal-time burst — O(1).
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  static EventId pack(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  /// Index of the time slice holding `when`. Monotone in `when`, so equal
  /// times share a slice; +infinity and very large times saturate into the
  /// last slice instead of overflowing.
  std::uint64_t slice_of(TimeMs when) const {
    const double x = when * inv_width_;
    return x < kLastSliceF ? static_cast<std::uint64_t>(x) : kLastSlice;
  }
  static constexpr std::uint64_t kLastSlice = std::uint64_t{1} << 62;
  static constexpr double kLastSliceF = static_cast<double>(kLastSlice);

  /// Slot of the minimum queued node; the queue must not be empty.
  std::uint32_t top() const {
    return min_slot_ != kNoSlot ? min_slot_ : find_min();
  }
  /// Caches `slot` as the minimum.
  std::uint32_t set_min(std::uint32_t slot) const {
    min_when_ = nodes_[slot].when;
    return min_slot_ = slot;
  }

  /// RAII around a running callback. Tracks callback depth so cancel()
  /// defers tombstone purges while any callback executes (a purge would
  /// release_slot() the executing slot, destroying the callback that
  /// is mid-invocation), and — when given a slot — releases it even if the
  /// callback throws, so one-shot slots cannot leak on unwind.
  struct CallbackScope {
    CallbackScope(Simulator& sim, std::uint32_t slot_to_release)
        : sim_(sim), slot_(slot_to_release) {
      ++sim_.callback_depth_;
    }
    ~CallbackScope() {
      --sim_.callback_depth_;
      if (slot_ != kNoSlot) sim_.release_slot(slot_);
    }
    CallbackScope(const CallbackScope&) = delete;
    CallbackScope& operator=(const CallbackScope&) = delete;

   private:
    Simulator& sim_;
    std::uint32_t slot_;
  };

  /// RAII for run_horizon_ across one run_*() call: installs the bound and
  /// restores the idle value (-infinity) even if a callback throws. Run
  /// loops cannot nest (checked), so restoring to the constant is exact.
  struct RunScope {
    RunScope(Simulator& sim, TimeMs horizon) : sim_(sim) {
      sim_.run_horizon_ = horizon;
    }
    ~RunScope() {
      sim_.run_horizon_ = -std::numeric_limits<TimeMs>::infinity();
    }
    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;

   private:
    Simulator& sim_;
  };

  EventId push(TimeMs when, Callback fn, TimeMs period);
  void release_slot(std::uint32_t slot);
  /// Scans the calendar from the cursor for the minimum and caches it.
  std::uint32_t find_min() const;
  /// Queues `slot` at `when`, behind every queued node of equal time.
  void enqueue(std::uint32_t slot, TimeMs when);
  /// Links `slot` into bucket `b` behind every node of equal or lower time.
  void link(std::uint32_t slot, std::size_t b);
  /// Unlinks the minimum node and returns its slot.
  std::uint32_t pop_top();
  /// Re-derives bucket count and width from the pending set and relinks
  /// every node in place.
  void resize_calendar();
  /// Pops the dead top and frees its tombstoned slot.
  void drop_dead_top();
  /// Unlinks every dead node from the calendar; counted via the
  /// "sim.events.purged" counter.
  void purge_tombstones();
  bool fire_next();

  TimeMs now_ = 0.0;
  TimeMs run_horizon_ = -std::numeric_limits<TimeMs>::infinity();
  std::uint64_t executed_ = 0;
  std::size_t live_count_ = 0;
  std::size_t queued_ = 0;   // queued nodes, tombstones included
  std::size_t dead_queued_ = 0;
  std::uint32_t callback_depth_ = 0;  // > 0 while a callback is on the stack
  bool purge_pending_ = false;        // a mid-callback cancel deferred a purge
  std::deque<Slot> slots_;  // deque: callbacks stay pinned while they run
  std::vector<std::uint32_t> free_slots_;
  std::vector<Node> nodes_;     // indexed by slot, like slots_
  std::vector<Bucket> buckets_;  // power-of-two count
  std::size_t mask_ = 0;         // buckets_.size() - 1
  double inv_width_ = 1.0;       // 1 / slice width (ms)
  std::size_t grow_at_ = 0;      // resize once queued_ exceeds this ...
  std::size_t shrink_at_ = 0;    // ... or drops below this
  // Cursor: no node lies in a slice before cur_slice_. min_slot_ caches the
  // minimum node (kNoSlot: unknown) and min_when_ its time — the burst
  // trains peek once per packet; when set, it lies in cur_slice_. All are
  // mutable so next_event_time() can stay a const peek.
  mutable std::uint64_t cur_slice_ = 0;
  mutable std::uint32_t min_slot_ = kNoSlot;
  mutable TimeMs min_when_ = 0.0;
};

}  // namespace cloudfog::sim
