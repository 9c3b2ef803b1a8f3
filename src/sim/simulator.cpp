#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace cloudfog::sim {

namespace {

/// Bucket count floor: small queues never resize.
constexpr std::size_t kMinBuckets = 16;
/// Queue times sampled per resize to estimate the slice width.
constexpr std::size_t kWidthSample = 64;
/// Target nodes per slice at the front of the queue.
constexpr double kNodesPerSlice = 3.0;

}  // namespace

Simulator::Simulator()
    : buckets_(kMinBuckets), mask_(kMinBuckets - 1),
      grow_at_(2 * kMinBuckets) {}

EventId Simulator::schedule_at(TimeMs when, Callback fn) {
  CF_CHECK_GE(when, now_);  // cannot schedule an event in the past
  CF_CHECK_MSG(static_cast<bool>(fn), "event callback must be callable");
  return push(when, std::move(fn), -1.0);
}

EventId Simulator::schedule_after(TimeMs delay, Callback fn) {
  CF_CHECK_GE(delay, 0.0);
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_every(TimeMs first_delay, TimeMs period,
                                  Callback fn) {
  CF_CHECK_GE(first_delay, 0.0);
  CF_CHECK_GT(period, 0.0);
  CF_CHECK_MSG(static_cast<bool>(fn), "event callback must be callable");
  return push(now_ + first_delay, std::move(fn), period);
}

EventId Simulator::push(TimeMs when, Callback fn, TimeMs period) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    CF_CHECK_MSG(slots_.size() < kNoSlot,
                 "event slab exhausted (2^32 concurrent events)");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    nodes_.emplace_back();
    // Every slot can come back through release_slot, so the free list must
    // hold them all: grow it with the slab, never on a release.
    if (free_slots_.capacity() < nodes_.capacity()) {
      free_slots_.reserve(nodes_.capacity());
    }
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);  // s.fn is empty (cleared on release)
  s.period = period;
  s.cancelled = false;
  s.in_use = true;
  enqueue(slot, when);
  ++live_count_;
  // Hot path: resolve both instruments once per registry epoch instead of
  // paying two name lookups per scheduled event (see CachedCounter docs).
  // The simulator is single-threaded, which is what the caches require.
  if (obs::MetricsRegistry* cf_obs_r = obs::registry()) {
    thread_local obs::CachedCounter scheduled{"sim.events.scheduled"};
    thread_local obs::CachedGauge depth{"sim.queue.depth"};
    const std::uint64_t epoch = obs::registry_epoch();
    scheduled.add(cf_obs_r, epoch, 1);
    depth.set(cf_obs_r, epoch, static_cast<double>(live_count_));
  }
  return pack(slot, s.generation);
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation == 0 || slot >= slots_.size()) {
    return false;  // kInvalidEvent or never a handle this simulator issued
  }
  Slot& s = slots_[slot];
  if (!s.in_use || s.generation != generation || s.cancelled) {
    return false;  // already fired, already cancelled, or slot recycled
  }
  s.cancelled = true;
  CF_INVARIANT(live_count_ > 0, "cancel of a live event implies pending > 0");
  --live_count_;
  ++dead_queued_;
  CF_OBS_COUNT_HOT("sim.events.cancelled", 1);
  if (obs::MetricsRegistry* cf_obs_r = obs::registry()) {
    thread_local obs::CachedGauge depth{"sim.queue.depth"};
    depth.set(cf_obs_r, obs::registry_epoch(),
              static_cast<double>(live_count_));
  }
  // Eager compaction: once tombstones outnumber live nodes, one O(n) sweep
  // reclaims their slots instead of letting every pop wade through them.
  // Deferred while a callback is on the stack — a self-cancelling periodic
  // callback would otherwise have its own slot released (destroying the
  // std::function mid-invocation) and recycled by a same-callback
  // schedule_*; fire_next services the purge once the callback returns.
  if (dead_queued_ * 2 > queued_) {
    if (callback_depth_ > 0) {
      purge_pending_ = true;
    } else {
      purge_tombstones();
    }
  }
  return true;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;  // drop captured state promptly
  s.in_use = false;
  if (++s.generation == 0) {
    s.generation = 1;  // keep pack() != kInvalidEvent after a wrap
  }
  free_slots_.push_back(slot);
}

std::uint32_t Simulator::find_min() const {
  // Scan one year from the cursor. A bucket's head is its minimum, and no
  // node lies before the cursor, so the first head found in the slice being
  // scanned is the global minimum.
  for (std::uint64_t s = cur_slice_, end = s + buckets_.size(); s != end;
       ++s) {
    const std::uint32_t h = buckets_[s & mask_].head;
    if (h != kNoSlot && slice_of(nodes_[h].when) == s) {
      cur_slice_ = s;
      return set_min(h);
    }
  }
  // A whole year without an event: the earliest bucket head is the minimum.
  // Heads of different buckets lie in different slices, so times differ.
  std::uint32_t best = kNoSlot;
  for (const Bucket& b : buckets_) {
    if (b.head != kNoSlot &&
        (best == kNoSlot || nodes_[b.head].when < nodes_[best].when)) {
      best = b.head;
    }
  }
  CF_INVARIANT(best != kNoSlot, "find_min on an empty queue");
  cur_slice_ = slice_of(nodes_[best].when);
  return set_min(best);
}

void Simulator::enqueue(std::uint32_t slot, TimeMs when) {
  nodes_[slot].when = when;
  const std::uint64_t s = slice_of(when);
  if (queued_ == 0 || s < cur_slice_) {
    // Every queued node lies in a later slice, hence at a later time.
    cur_slice_ = s;
    set_min(slot);
  } else if (min_slot_ != kNoSlot && when < min_when_) {
    set_min(slot);  // earlier than the minimum, so in its slice
  }
  link(slot, s & mask_);
  if (++queued_ > grow_at_) resize_calendar();
}

void Simulator::link(std::uint32_t slot, std::size_t b) {
  // A node goes behind every node of equal time: it was scheduled (or
  // re-armed) after them, so that position is its (when, seq) rank.
  Node& n = nodes_[slot];
  Bucket& bucket = buckets_[b];
  if (bucket.tail == kNoSlot || nodes_[bucket.tail].when <= n.when) {
    n.next = kNoSlot;
    (bucket.tail == kNoSlot ? bucket.head : nodes_[bucket.tail].next) = slot;
    bucket.tail = slot;
    return;
  }
  if (n.when < nodes_[bucket.head].when) {
    n.next = bucket.head;
    bucket.head = slot;
    return;
  }
  // The tail is later than `n`, so the walk stops before running off it.
  std::uint32_t prev = bucket.head;
  while (nodes_[nodes_[prev].next].when <= n.when) prev = nodes_[prev].next;
  n.next = nodes_[prev].next;
  nodes_[prev].next = slot;
}

std::uint32_t Simulator::pop_top() {
  const std::uint32_t slot = top();  // lies in cur_slice_
  Bucket& bucket = buckets_[cur_slice_ & mask_];
  const std::uint32_t next = nodes_[slot].next;
  bucket.head = next;
  if (next == kNoSlot) bucket.tail = kNoSlot;
  // The next node is the new minimum iff it shares the slice.
  if (next != kNoSlot && slice_of(nodes_[next].when) == cur_slice_) {
    set_min(next);
  } else {
    min_slot_ = kNoSlot;
  }
  if (--queued_ < shrink_at_) resize_calendar();
  return slot;
}

void Simulator::resize_calendar() {
  const std::uint32_t first = queued_ > 0 ? top() : kNoSlot;
  // Concatenate the buckets into one chain. Nodes of equal time share a
  // bucket, where they sit in seq order; relinking them in chain order
  // therefore keeps every tie in seq order.
  std::uint32_t chain = kNoSlot;
  std::uint32_t last = kNoSlot;
  for (const Bucket& b : buckets_) {
    if (b.head == kNoSlot) continue;
    (last == kNoSlot ? chain : nodes_[last].next) = b.head;
    last = b.tail;
  }
  // Width: kNodesPerSlice times the mean gap between queued times near the
  // front, estimated from an evenly strided sample of the chain. The width
  // only sets how many nodes share a slice — speed, never order.
  const std::size_t n = queued_;
  std::array<TimeMs, kWidthSample> sample{};
  std::size_t m = 0;
  const std::size_t stride = std::max<std::size_t>(1, n / kWidthSample);
  std::size_t i = 0;
  for (std::uint32_t u = chain; u != kNoSlot && m < kWidthSample;
       u = nodes_[u].next, ++i) {
    if (i % stride == 0) sample[m++] = nodes_[u].when;
  }
  std::sort(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(m));
  // The first sample quantile whose span is positive and finite; an empty
  // queue, or one whose sample is a single time, keeps the old width.
  for (const std::size_t j : {m / 4, m / 2, m - 1}) {
    if (j >= m) break;
    const TimeMs span = sample[j] - nodes_[first].when;
    if (span > 0.0 && span < std::numeric_limits<TimeMs>::infinity()) {
      // About (j + 1) / m of the queue lies within `span` of the front.
      const double gap = span * static_cast<double>(m) /
                         (static_cast<double>(j + 1) * static_cast<double>(n));
      inv_width_ = 1.0 / std::clamp(kNodesPerSlice * gap, 1e-9, 1e12);
      break;
    }
  }
  // About 4 B of bucket per queued node. assign() keeps the capacity, so a
  // resize back to an earlier size allocates nothing.
  const std::size_t count = std::max(kMinBuckets, std::bit_floor(n / 2));
  buckets_.assign(count, Bucket{});
  mask_ = count - 1;
  grow_at_ = 2 * std::max(n, kMinBuckets);
  shrink_at_ = n / 2 >= kMinBuckets ? n / 2 : 0;
  for (std::uint32_t u = chain; u != kNoSlot;) {
    const std::uint32_t next = nodes_[u].next;
    link(u, slice_of(nodes_[u].when) & mask_);
    u = next;
  }
  if (first != kNoSlot) {
    cur_slice_ = slice_of(nodes_[first].when);
    set_min(first);
  }
}

void Simulator::drop_dead_top() {
  const std::uint32_t slot = pop_top();
  // One node per slot: a slot is released only once its node has left the
  // queue, so a queued tombstone's slot is still held.
  CF_INVARIANT(slots_[slot].in_use && slots_[slot].cancelled,
               "a dead top's slot must still be held as a tombstone");
  release_slot(slot);
  CF_INVARIANT(dead_queued_ > 0, "dead node popped but none accounted");
  --dead_queued_;
}

void Simulator::purge_tombstones() {
  std::uint64_t purged = 0;
  for (Bucket& b : buckets_) {
    std::uint32_t prev = kNoSlot;
    for (std::uint32_t u = b.head; u != kNoSlot;) {
      const std::uint32_t next = nodes_[u].next;
      if (slots_[u].cancelled) {
        (prev == kNoSlot ? b.head : nodes_[prev].next) = next;
        release_slot(u);
        ++purged;
      } else {
        prev = u;
      }
      u = next;
    }
    b.tail = prev;
  }
  // Unlinking keeps every bucket in order and no node before the cursor;
  // only the cached minimum may have been purged.
  CF_INVARIANT(purged == dead_queued_, "every tombstone is queued once");
  queued_ -= purged;
  dead_queued_ = 0;
  min_slot_ = kNoSlot;
  CF_OBS_COUNT("sim.events.purged", purged);
  if (queued_ < shrink_at_) resize_calendar();
}

bool Simulator::fire_next() {
  CF_CHECK_MSG(callback_depth_ == 0,
               "step()/run_until()/run_all() must not be re-entered from an "
               "event callback");
  while (queued_ > 0) {
    const TimeMs when = nodes_[top()].when;
    const std::uint32_t slot = pop_top();
    Slot& s = slots_[slot];
    // One node per slot: a slot is released only once its node has left
    // the queue, so a popped node's slot is always still held.
    CF_INVARIANT(s.in_use, "a queued node's slot must still be held");
    if (s.cancelled) {
      release_slot(slot);
      CF_INVARIANT(dead_queued_ > 0, "dead node popped but none accounted");
      --dead_queued_;
      continue;
    }
    // Trust boundary: the queue must hand events out in non-decreasing time
    // order, and a cancelled event must never reach its callback.
    CF_INVARIANT(when >= now_, "event timestamps must be monotone");
    CF_INVARIANT(!s.cancelled, "cancelled event must not fire");
    now_ = when;
    if (s.period >= 0.0) {
      CF_OBS_COUNT_HOT("sim.events.executed", 1);
      // Re-arm the periodic event under the same handle before running it so
      // the callback can cancel it. The slab (a deque) pins `s` even if the
      // callback schedules enough new events to grow it.
      enqueue(slot, now_ + s.period);
      ++executed_;
      CallbackScope scope(*this, kNoSlot);
      s.fn();
    } else {
      // Hide the slot before running: pending() excludes the executing
      // event and cancel() on its own handle returns false, matching the
      // erase-then-invoke order of the original map-based engine. The
      // callback runs in place (the deque pins it even if the callback
      // grows the slab); the scope reclaims the slot once it returns —
      // including via an exception, so a throwing callback cannot leak it.
      s.in_use = false;
      --live_count_;
      if (obs::MetricsRegistry* cf_obs_r = obs::registry()) {
        thread_local obs::CachedGauge depth{"sim.queue.depth"};
        depth.set(cf_obs_r, obs::registry_epoch(),
                  static_cast<double>(live_count_));
      }
      CF_OBS_COUNT_HOT("sim.events.executed", 1);
      ++executed_;
      CallbackScope scope(*this, slot);
      s.fn();
    }
    // Service a purge that a mid-callback cancel deferred. Re-checked
    // against the threshold: the callback may have scheduled enough new
    // events that compaction is no longer worth it.
    if (purge_pending_) {
      purge_pending_ = false;
      if (dead_queued_ * 2 > queued_) purge_tombstones();
    }
    return true;
  }
  return false;
}

bool Simulator::step() {
  // Same re-entry guard as run_until(): a callback must not pump the loop
  // (fire_next re-checks, but the public boundary validates explicitly).
  CF_CHECK_MSG(callback_depth_ == 0,
               "step()/run_until()/run_all() must not be re-entered from an "
               "event callback");
  return fire_next();
}

void Simulator::run_until(TimeMs horizon) {
  CF_CHECK_GE(horizon, now_);  // horizon must not precede current time
  // Checked here as well as in fire_next: drop_dead_top() below releases
  // slots, which must never happen while a callback is executing.
  CF_CHECK_MSG(callback_depth_ == 0,
               "step()/run_until()/run_all() must not be re-entered from an "
               "event callback");
  RunScope run_scope(*this, horizon);
  for (;;) {
    // Peek through tombstones to find the next live event time.
    while (queued_ > 0 && slots_[top()].cancelled) {
      drop_dead_top();
    }
    if (queued_ == 0 || nodes_[top()].when > horizon) break;
    fire_next();
  }
  now_ = std::max(now_, horizon);
}

void Simulator::run_before(TimeMs bound) {
  CF_CHECK_GE(bound, now_);  // bound must not precede current time
  CF_CHECK_MSG(callback_depth_ == 0,
               "step()/run_until()/run_all() must not be re-entered from an "
               "event callback");
  // The inline horizon is `bound` inclusive even though events at exactly
  // `bound` belong to the next window: a completion landing exactly on the
  // boundary was scheduled before any barrier-delivered message at the same
  // timestamp, so it would fire first anyway — completing it inline cannot
  // change the interleaving.
  RunScope run_scope(*this, bound);
  for (;;) {
    while (queued_ > 0 && slots_[top()].cancelled) {
      drop_dead_top();
    }
    if (queued_ == 0 || nodes_[top()].when >= bound) break;
    fire_next();
  }
  now_ = std::max(now_, bound);
}

void Simulator::run_all() {
  CF_CHECK_MSG(callback_depth_ == 0,
               "step()/run_until()/run_all() must not be re-entered from an "
               "event callback");
  RunScope run_scope(*this, std::numeric_limits<TimeMs>::infinity());
  while (fire_next()) {
  }
}

}  // namespace cloudfog::sim
