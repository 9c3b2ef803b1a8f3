// Differential oracle for the event set behind sim::Simulator. The 4-ary
// min-heap engine the calendar queue replaced survives here, and only here,
// as HeapSimulator: seeded random scripts drive both engines and every
// observable — fire order, cancel results, now(), pending(), executed(),
// next_event_time() and the sim.events.purged count — is logged after every
// operation and from inside every callback. The two logs must be identical.
// Handles are compared by the event they name, not by value: a purge frees
// the same slots in a different order, so later handles number differently.
#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/rng.h"

namespace cloudfog::sim {
namespace {

constexpr TimeMs kInf = std::numeric_limits<TimeMs>::infinity();

/// The engine as it was before the calendar queue: slab slots, tombstone
/// cancellation, eager and deferred purges, and a 4-ary min-heap of
/// (when, seq, slot, generation) nodes. Observability is reduced to a purge
/// count, and pops use a plain sift-down instead of bottom-up deletion
/// (both leave the same minimum at the root); every tombstone, purge and
/// slot-release rule is kept as it was.
class HeapSimulator {
 public:
  using Callback = std::function<void()>;

  TimeMs now() const { return now_; }
  std::size_t pending() const { return live_count_; }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t purged() const { return purged_; }
  TimeMs next_event_time() const {
    return heap_.empty() ? kInf : heap_[0].when;
  }

  EventId schedule_at(TimeMs when, Callback fn) {
    return push(when, std::move(fn), -1.0);
  }
  EventId schedule_after(TimeMs delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  EventId schedule_every(TimeMs first_delay, TimeMs period, Callback fn) {
    return push(now_ + first_delay, std::move(fn), period);
  }

  bool cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (generation == 0 || slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (!s.in_use || s.generation != generation || s.cancelled) return false;
    s.cancelled = true;
    --live_count_;
    ++dead_in_heap_;
    if (dead_in_heap_ * 2 > heap_.size()) {
      if (callback_depth_ > 0) {
        purge_pending_ = true;
      } else {
        purge_tombstones();
      }
    }
    return true;
  }

  bool step() { return fire_next(); }

  void run_until(TimeMs horizon) {
    for (;;) {
      while (!heap_.empty() && !node_live(heap_[0])) drop_dead_top();
      if (heap_.empty() || heap_[0].when > horizon) break;
      fire_next();
    }
    now_ = std::max(now_, horizon);
  }

  void run_before(TimeMs bound) {
    for (;;) {
      while (!heap_.empty() && !node_live(heap_[0])) drop_dead_top();
      if (heap_.empty() || heap_[0].when >= bound) break;
      fire_next();
    }
    now_ = std::max(now_, bound);
  }

  void run_all() {
    while (fire_next()) {
    }
  }

 private:
  struct Slot {
    Callback fn;
    TimeMs period = -1.0;
    std::uint32_t generation = 1;
    bool cancelled = false;
    bool in_use = false;
  };
  struct HeapNode {
    TimeMs when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static bool node_less(const HeapNode& a, const HeapNode& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  bool node_live(const HeapNode& n) const {
    const Slot& s = slots_[n.slot];
    return s.in_use && s.generation == n.generation && !s.cancelled;
  }

  EventId push(TimeMs when, Callback fn, TimeMs period) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.period = period;
    s.cancelled = false;
    s.in_use = true;
    heap_push(HeapNode{when, next_seq_++, slot, s.generation});
    ++live_count_;
    return (static_cast<EventId>(s.generation) << 32) | slot;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.fn = nullptr;
    s.in_use = false;
    if (++s.generation == 0) s.generation = 1;
    free_slots_.push_back(slot);
  }

  void heap_push(const HeapNode& n) {
    std::size_t i = heap_.size();
    heap_.push_back(n);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!node_less(n, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = n;
  }

  void sift_down(std::size_t i) {
    const HeapNode node = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first_child = i * 4 + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (node_less(heap_[c], heap_[best])) best = c;
      }
      if (!node_less(heap_[best], node)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = node;
  }

  HeapNode heap_pop() {
    const HeapNode top = heap_[0];
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  void drop_dead_top() {
    const HeapNode n = heap_pop();
    const Slot& s = slots_[n.slot];
    if (s.in_use && s.generation == n.generation) release_slot(n.slot);
    --dead_in_heap_;
  }

  void purge_tombstones() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      const HeapNode n = heap_[i];
      const Slot& s = slots_[n.slot];
      if (s.in_use && s.generation == n.generation) {
        if (!s.cancelled) {
          heap_[kept++] = n;
          continue;
        }
        release_slot(n.slot);
      }
      ++purged_;
    }
    heap_.resize(kept);
    if (kept > 1) {
      for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) sift_down(i);
    }
    dead_in_heap_ = 0;
  }

  bool fire_next() {
    while (!heap_.empty()) {
      const HeapNode n = heap_pop();
      Slot& s = slots_[n.slot];
      if (!s.in_use || s.generation != n.generation) {
        --dead_in_heap_;
        continue;
      }
      if (s.cancelled) {
        release_slot(n.slot);
        --dead_in_heap_;
        continue;
      }
      now_ = n.when;
      ++executed_;
      ++callback_depth_;
      if (s.period >= 0.0) {
        heap_push(
            HeapNode{now_ + s.period, next_seq_++, n.slot, n.generation});
        s.fn();
        --callback_depth_;
      } else {
        s.in_use = false;
        --live_count_;
        s.fn();
        --callback_depth_;
        release_slot(n.slot);
      }
      if (purge_pending_) {
        purge_pending_ = false;
        if (dead_in_heap_ * 2 > heap_.size()) purge_tombstones();
      }
      return true;
    }
    return false;
  }

  TimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t purged_ = 0;
  std::size_t live_count_ = 0;
  std::size_t dead_in_heap_ = 0;
  std::uint32_t callback_depth_ = 0;
  bool purge_pending_ = false;
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapNode> heap_;
};

std::uint64_t purged_of(const HeapSimulator& sim) { return sim.purged(); }
std::uint64_t purged_of(const Simulator&) {
  const obs::Counter* c = obs::registry()->find_counter("sim.events.purged");
  return c != nullptr ? c->value() : 0;
}

/// One logged observation; `what` says where it was taken, `arg` carries
/// the operation's result (an event label, a cancel outcome).
struct Obs {
  int what;
  std::uint64_t arg;
  TimeMs now;
  std::size_t pending;
  std::uint64_t executed;
  TimeMs next;
  std::uint64_t purged;
  bool operator==(const Obs&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Obs& o) {
  return os << "{what " << o.what << " arg " << o.arg << " now " << o.now
            << " pending " << o.pending << " executed " << o.executed
            << " next " << o.next << " purged " << o.purged << "}";
}

enum What : int {
  kFire = 1,
  kScheduled,
  kCancelled,
  kStepped,
  kRanUntil,
  kRanBefore,
  kRanAll,
};

/// Drives one engine through a seeded script. Both engines see the same
/// random draws as long as they behave identically, so the first log
/// difference is the first behavioural difference.
template <class Engine>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {}

  Engine sim;
  std::vector<Obs> log;
  std::vector<EventId> handles;  // every handle issued, by label
  std::size_t budget = 0;        // events callbacks may still spawn

  void observe(int what, std::uint64_t arg) {
    log.push_back(Obs{what, arg, sim.now(), sim.pending(), sim.executed(),
                      sim.next_event_time(), purged_of(sim)});
  }

  /// A random delay: mostly short, with exact ties, and rare idle gaps.
  TimeMs delay() {
    switch (rng_.uniform_int(0, 19)) {
      case 0:
      case 1:
        return 0.0;
      case 2:
      case 3:
        return static_cast<TimeMs>(rng_.uniform_int(0, 3));
      case 4:
        return 1e6;
      default:
        return rng_.uniform(0.0, 100.0);
    }
  }

  EventId at(TimeMs when) {
    const std::size_t label = new_label();
    return record(label,
                  sim.schedule_at(when, [this, label] { fire(label); }));
  }

  EventId after(TimeMs d) {
    const std::size_t label = new_label();
    return record(label,
                  sim.schedule_after(d, [this, label] { fire(label); }));
  }

  /// A periodic event that cancels itself on its `lifetime`-th fire.
  EventId every(TimeMs first, TimeMs period, int lifetime) {
    const std::size_t label = new_label();
    return record(label, sim.schedule_every(
                             first, period,
                             [this, label, lifetime, fires = 0]() mutable {
                               fire(label);
                               if (++fires == lifetime) {
                                 observe(kCancelled,
                                         sim.cancel(handles[label]));
                               }
                             }));
  }

  void cancel_random() {
    if (handles.empty()) return;
    const EventId id = handles[rng_.index(handles.size())];
    observe(kCancelled, sim.cancel(id));
  }

  /// Cancels each of the last 600 issued handles with probability `p`.
  void cancel_storm(double p) {
    const std::size_t end = handles.size();
    for (std::size_t i = end - std::min<std::size_t>(end, 600); i < end; ++i) {
      if (rng_.bernoulli(p)) observe(kCancelled, sim.cancel(handles[i]));
    }
  }

  void step() { observe(kStepped, sim.step()); }
  void run_until(TimeMs h) {
    sim.run_until(h);
    observe(kRanUntil, 0);
  }
  void run_before(TimeMs b) {
    sim.run_before(b);
    observe(kRanBefore, 0);
  }
  void run_all() {
    sim.run_all();
    observe(kRanAll, 0);
  }

  /// One random operation of the main mix.
  void random_op() {
    const auto op = rng_.uniform_int(0, 99);
    if (op < 25) {
      at(sim.now() + delay());
    } else if (op < 35) {
      after(delay());
    } else if (op < 39) {
      every(delay(), rng_.uniform(0.5, 40.0),
            static_cast<int>(rng_.uniform_int(1, 6)));
    } else if (op < 52) {
      cancel_random();
    } else if (op < 67) {
      step();
    } else if (op < 77) {
      run_until(sim.now() + rng_.uniform(0.0, 30.0));
    } else if (op < 90) {
      // Half of the bounds land exactly on the next event's time.
      const TimeMs next = sim.next_event_time();
      run_before(rng_.bernoulli(0.5) && next < 1e5
                     ? next
                     : sim.now() + rng_.uniform(0.0, 30.0));
    } else if (op < 93) {
      // An equal-time burst far larger than a bucket.
      const TimeMs when = sim.now() + delay();
      for (int i = 0; i < 300; ++i) at(when);
    } else if (op < 95) {
      cancel_storm(0.6);
    } else {
      at(sim.now() + rng_.uniform(0.0, 100.0));
    }
  }

 private:
  std::size_t new_label() {
    handles.push_back(kInvalidEvent);
    return handles.size() - 1;
  }

  EventId record(std::size_t label, EventId id) {
    handles[label] = id;
    observe(kScheduled, label);
    return id;
  }

  /// Every callback logs its label and state, then may spawn follow-ups
  /// (sometimes an equal-time burst) or cancel other events — a cancel
  /// storm from inside a callback is what defers the purge.
  void fire(std::size_t label) {
    observe(kFire, label);
    const auto action = rng_.uniform_int(0, 9);
    if (action < 3 && budget > 0) {
      --budget;
      after(delay());
    } else if (action == 3 && budget >= 40) {
      budget -= 40;
      const TimeMs d = delay();
      for (int i = 0; i < 40; ++i) after(d);
    } else if (action == 4) {
      cancel_random();
    } else if (action == 5 && rng_.bernoulli(0.1)) {
      cancel_storm(0.5);
    }
  }

  util::Rng rng_;
};

/// Runs `body` on both engines from the same seed and compares the logs.
template <class Body>
void expect_same(std::uint64_t seed, Body body) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(registry);
  Script<HeapSimulator> ref(seed);
  Script<Simulator> cal(seed);
  body(ref);
  body(cal);
  ASSERT_FALSE(ref.log.empty());
  const std::size_t n = std::min(ref.log.size(), cal.log.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ref.log[i], cal.log[i])
        << "seed " << seed << ": first divergence at observation " << i;
  }
  ASSERT_EQ(ref.log.size(), cal.log.size()) << "seed " << seed;
}

/// Drains a script: periodic events are cancelled by their lifetimes, so
/// run_all() terminates once the spawn budget is spent.
template <class S>
void drain(S& s) {
  s.budget = 0;
  s.run_all();
}

TEST(EventQueueOracleTest, RandomScriptsMatchTheHeap) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    expect_same(seed, [](auto& s) {
      s.budget = 3000;
      for (int i = 0; i < 1500; ++i) s.random_op();
      drain(s);
    });
  }
}

TEST(EventQueueOracleTest, EqualTimeBurstsFireInSchedulingOrder) {
  expect_same(101, [](auto& s) {
    for (int round = 0; round < 4; ++round) {
      const TimeMs when = s.sim.now() + 5.0;
      for (int i = 0; i < 2000; ++i) s.at(when);
      // Interleave later and earlier times so bursts share buckets.
      for (int i = 0; i < 200; ++i) s.at(when + (i % 7));
      for (int i = 0; i < 50; ++i) s.step();
      s.run_before(when + 3.0);
    }
    drain(s);
  });
}

TEST(EventQueueOracleTest, CancelStormsTripEagerAndDeferredPurges) {
  expect_same(202, [](auto& s) {
    s.budget = 500;
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 400; ++i) s.random_op();
      s.cancel_storm(0.8);  // outside a callback: the eager purge
      // One event cancels most of the queue from inside its callback: the
      // deferred purge runs at the end of fire_next.
      s.sim.schedule_after(0.0, [&s] {
        s.cancel_storm(0.9);
        s.observe(kFire, 0);
      });
      s.step();
    }
    drain(s);
  });
}

TEST(EventQueueOracleTest, PeriodicEventsCancellingThemselves) {
  expect_same(303, [](auto& s) {
    for (int i = 0; i < 200; ++i) {
      s.every(static_cast<TimeMs>(i % 9), 1.0 + (i % 5), 1 + i % 7);
    }
    // A lone periodic whose self-cancel leaves only its own tombstone.
    s.every(0.5, 0.25, 3);
    for (int i = 0; i < 300; ++i) s.step();
    s.run_until(s.sim.now() + 20.0);
    drain(s);
  });
}

TEST(EventQueueOracleTest, RunBeforeBoundsOnEventTimes) {
  expect_same(404, [](auto& s) {
    for (int i = 0; i < 3000; ++i) s.at(static_cast<TimeMs>(i % 300) * 0.5);
    while (s.sim.pending() > 0) {
      // The bound equals the next event time: nothing may fire, then the
      // next window fires exactly that timestamp's events.
      const TimeMs next = s.sim.next_event_time();
      s.run_before(next);
      s.run_before(next + 0.5);
    }
    drain(s);
  });
}

TEST(EventQueueOracleTest, IdleGapsAndFarFutureTimes) {
  expect_same(505, [](auto& s) {
    s.at(kInf);
    s.at(1e12);
    s.at(1e12);
    s.every(3.0, 1e6, 4);  // periodic across idle gaps
    for (int i = 0; i < 100; ++i) s.at(s.sim.now() + i * 1e4);
    for (int gap = 1; gap <= 6; ++gap) {
      s.at(s.sim.now() + gap * 1e6);
      s.step();
      s.run_until(s.sim.now() + 1.5e6);
    }
    s.run_before(1e12);  // bound exactly on the two far events
    s.step();
    s.at(1e12);  // lands at now(): before +inf, behind nothing
    s.at(kInf);
    s.run_until(1e12);
    s.step();  // +inf events fire last, in scheduling order
    s.step();
    s.after(0.0);
    drain(s);
  });
}

TEST(EventQueueOracleTest, PendingSizeCrossesEveryResizeThreshold) {
  expect_same(606, [](auto& s) {
    for (int cycle = 0; cycle < 2; ++cycle) {
      // Grow to ~20k pending with spread times, then drain to zero by
      // stepping — every doubling and every halving of the pending set.
      for (int i = 0; i < 20000; ++i) {
        s.at(s.sim.now() + static_cast<TimeMs>((i * 7919) % 20011) * 0.01);
        if (i % 997 == 0) s.step();
      }
      while (s.sim.pending() > 0) s.step();
      s.step();  // on an empty queue
    }
    drain(s);
  });
}

}  // namespace
}  // namespace cloudfog::sim
