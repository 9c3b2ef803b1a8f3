// Tests for the slab/free-list internals of the event engine: generation
// tagging across slot reuse, the eager tombstone purge, and the zero-
// allocation steady-state guarantee (verified by interposing the global
// allocator for this binary).
#include "sim/simulator.h"

#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Global allocator interposition. Every operator new/delete in this binary
// routes through malloc/free with a counter bump; tests read the counter
// delta around a measured region. gtest's own allocations happen outside
// those regions, so they don't perturb the numbers.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_alloc_count = 0;  // sim is single-threaded; plain is fine
}  // namespace

// GCC's -Wmismatched-new-delete pairs these frees against the *library's*
// operator new instead of the malloc-backed replacements below and flags
// them under some instrumentation flag sets (seen with -fsanitize=thread).
// Replacing the global operators this way is the standard interposition
// mechanism ([new.delete.single]) and the malloc/free pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace cloudfog::sim {
namespace {

TEST(SimulatorSlabTest, HandlesAreNeverInvalidAndNeverRepeat) {
  Simulator sim;
  std::set<EventId> seen;
  for (int i = 0; i < 2000; ++i) {
    const EventId id = sim.schedule_after(1.0, [] {});
    EXPECT_NE(id, kInvalidEvent);
    EXPECT_TRUE(seen.insert(id).second) << "handle reused at round " << i;
    sim.run_all();  // frees the slot; the next round recycles it
  }
}

TEST(SimulatorSlabTest, StaleHandleAfterSlotReuseCancelsNothing) {
  Simulator sim;
  int first_fired = 0;
  int second_fired = 0;
  const EventId first = sim.schedule_at(1.0, [&] { ++first_fired; });
  sim.run_all();
  ASSERT_EQ(first_fired, 1);

  // The freed slot is recycled under a bumped generation.
  const EventId second = sim.schedule_at(2.0, [&] { ++second_fired; });
  EXPECT_NE(first, second);

  // The stale handle must not touch the new occupant of its old slot.
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(second_fired, 1);
}

TEST(SimulatorSlabTest, CancelAfterFireThenReuseStaysFalse) {
  Simulator sim;
  for (int round = 0; round < 50; ++round) {
    const EventId id = sim.schedule_after(1.0, [] {});
    sim.run_all();
    EXPECT_FALSE(sim.cancel(id));   // fired
    EXPECT_FALSE(sim.cancel(id));   // double-cancel of a dead handle
  }
}

TEST(SimulatorSlabTest, DoubleCancelSecondIsFalseEvenBeforeSlotReclaim) {
  Simulator sim;
  const EventId id = sim.schedule_after(5.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  // The tombstone may still sit in the heap; the handle is dead regardless.
  EXPECT_FALSE(sim.cancel(id));
  sim.run_all();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorSlabTest, HandleEncodesGenerationAboveSlotIndex) {
  Simulator sim;
  const EventId a = sim.schedule_after(1.0, [] {});
  // Generation >= 1 lives in the high 32 bits, so every valid handle
  // compares above the full 32-bit slot-index space (and above
  // kInvalidEvent == 0).
  EXPECT_GE(a >> 32, 1u);
  sim.run_all();
  const EventId b = sim.schedule_after(1.0, [] {});
  // Same slot, bumped generation.
  EXPECT_EQ(a & 0xffffffffu, b & 0xffffffffu);
  EXPECT_EQ((a >> 32) + 1, b >> 32);
  sim.run_all();
}

TEST(SimulatorSlabTest, MassCancelPurgesTombstonesEagerly) {
  obs::MetricsRegistry r;
  obs::ScopedRegistry scoped(r);
  Simulator sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(static_cast<TimeMs>(i), [&] { ++fired; }));
  }
  int cancelled = 0;
  for (int i = 0; i < 1000; ++i) {
    if (i % 4 == 0) continue;  // keep one in four, cancel the rest (750)
    EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
    ++cancelled;
  }
  ASSERT_EQ(cancelled, 750);
  EXPECT_EQ(sim.pending(), 250u);
  // Tombstones crossed the half-queue threshold mid-way (501 dead in a
  // 1000-node heap), so a purge must have run before any event fired.
  const obs::Counter* purged = r.find_counter("sim.events.purged");
  ASSERT_NE(purged, nullptr);
  EXPECT_GE(purged->value(), 500u);
  sim.run_all();
  EXPECT_EQ(fired, 250);
  EXPECT_EQ(sim.executed(), 250u);
  EXPECT_EQ(r.find_counter("sim.events.cancelled")->value(), 750u);
}

TEST(SimulatorSlabTest, PurgePreservesFireOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sim.schedule_at(static_cast<TimeMs>(100 - (i % 100)),
                                  [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 200; ++i) {
    if (i % 3 != 0) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);  // 133 — trips a purge
    }
  }
  sim.run_all();
  // Survivors must fire in (when, seq) order: ascending time, scheduling
  // order within a timestamp.
  std::vector<int> expected;
  for (int when = 1; when <= 100; ++when) {
    for (int i = 0; i < 200; ++i) {
      if (i % 3 == 0 && 100 - (i % 100) == when) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(SimulatorSlabTest, SteadyStateSchedulesAndFiresWithoutAllocating) {
  Simulator sim;
  std::uint64_t ticks = 0;
  // Warm the slab, free list and heap far beyond what the measured loop
  // needs concurrently.
  for (int i = 0; i < 256; ++i) {
    sim.schedule_after(static_cast<TimeMs>(i % 7), [&ticks] { ++ticks; });
  }
  sim.run_all();
  ASSERT_EQ(ticks, 256u);

  const std::uint64_t before = g_alloc_count;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_after(1.0, [&ticks] { ++ticks; });
    sim.step();
  }
  const std::uint64_t after = g_alloc_count;
  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule+fire performed heap allocations";
  EXPECT_EQ(ticks, 10256u);
}

TEST(SimulatorSlabTest, FirstOneShotReleaseAfterSetupDoesNotAllocate) {
  // Set-up hands out slots straight from the slab, so none has passed
  // through the free list yet. The first one-shot that fires mid-run then
  // puts its slot there, which must not allocate.
  Simulator sim;
  std::uint64_t ticks = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_every(1000.0 + i, 1000.0, [&ticks] { ++ticks; });
  }
  sim.schedule_at(5.0, [&ticks] { ++ticks; });

  const std::uint64_t before = g_alloc_count;
  sim.run_until(10.0);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "releasing the first one-shot slot after set-up allocated";
  EXPECT_EQ(ticks, 1u);
}

TEST(SimulatorSlabTest, SteadyStateCancelChurnWithoutAllocating) {
  Simulator sim;
  std::uint64_t ticks = 0;
  std::vector<EventId> ids;
  ids.reserve(64);
  // One batch: schedule 64, cancel three of every four (48 — enough to trip
  // the eager purge at 33 tombstones in a 64-node heap), fire the rest.
  const auto batch = [&] {
    ids.clear();
    for (int i = 0; i < 64; ++i) {
      ids.push_back(
          sim.schedule_after(static_cast<TimeMs>(i), [&ticks] { ++ticks; }));
    }
    for (int i = 0; i < 64; ++i) {
      if (i % 4 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.run_all();
  };

  // Warm: run full batches so every container reaches its high-water mark.
  batch();
  batch();

  const std::uint64_t before = g_alloc_count;
  for (int round = 0; round < 100; ++round) {
    batch();
  }
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "cancel/purge churn performed heap allocations";
}

TEST(SimulatorSlabTest, SteadyStateRosterWithoutAllocating) {
  // A streaming roster: 20k players, each with a periodic segment tick at a
  // random phase whose every fire schedules `burst` one-shot deliveries.
  // One cycle surges (the pending set more than doubles, so the calendar
  // grows), goes quiet (only the ticks stay pending, so it shrinks) and
  // settles back. A warm-up cycle with a larger surge takes every container
  // to its high-water mark; the measured cycle must then allocate nothing,
  // resizes included.
  constexpr TimeMs kPeriod = 1000.0 / 15.0;
  Simulator sim;
  util::Rng rng(11);
  int burst = 1;
  std::uint64_t delivered = 0;
  for (int p = 0; p < 20000; ++p) {
    sim.schedule_every(rng.uniform(0.0, kPeriod), kPeriod, [&] {
      for (int i = 0; i < burst; ++i) {
        sim.schedule_after(rng.uniform(5.0, 60.0), [&] { ++delivered; });
      }
    });
  }
  const auto cycle = [&](int surge) {
    burst = surge;
    sim.run_until(sim.now() + kPeriod);
    burst = 0;
    sim.run_until(sim.now() + 2 * kPeriod);
    burst = 1;
    sim.run_until(sim.now() + 2 * kPeriod);
  };
  sim.run_until(2 * kPeriod);
  cycle(8);

  const std::uint64_t before = g_alloc_count;
  const std::uint64_t delivered_before = delivered;
  cycle(6);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "roster-scale schedule/fire/resize performed heap allocations";
  EXPECT_GT(delivered - delivered_before, 150000u);
}

TEST(SimulatorSlabTest, PeriodicSelfCancelCanScheduleFromItsOwnCallback) {
  Simulator sim;
  int periodic_fires = 0;
  std::vector<int> follow_ups;
  EventId id = kInvalidEvent;
  id = sim.schedule_every(1.0, 1.0, [&] {
    if (++periodic_fires < 3) return;
    // Cancel our own handle — the re-armed tombstone is the only heap node,
    // so this trips the purge threshold mid-callback — then keep using
    // captured state and schedule through the engine. An unsafe purge would
    // have destroyed this closure and handed its slot to the schedules.
    EXPECT_TRUE(sim.cancel(id));
    sim.schedule_after(1.0, [&] { follow_ups.push_back(periodic_fires); });
    sim.schedule_after(2.0,
                       [&] { follow_ups.push_back(periodic_fires + 1); });
    EXPECT_EQ(periodic_fires, 3);  // captures must still be intact
  });
  sim.run_all();
  EXPECT_EQ(periodic_fires, 3);
  EXPECT_EQ(follow_ups, (std::vector<int>{3, 4}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 5u);
}

TEST(SimulatorSlabTest, SelfCancelledPeriodicSlotReclaimedViaDeferredPurge) {
  obs::MetricsRegistry r;
  obs::ScopedRegistry scoped(r);
  Simulator sim;
  EventId id = kInvalidEvent;
  int fires = 0;
  id = sim.schedule_every(1.0, 1.0, [&] {
    ++fires;
    sim.cancel(id);
  });
  sim.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.pending(), 0u);
  // The deferred purge ran once the callback returned (its tombstone was
  // the whole heap) and reclaimed the slot: the next schedule recycles it
  // under a bumped generation.
  const obs::Counter* purged = r.find_counter("sim.events.purged");
  ASSERT_NE(purged, nullptr);
  EXPECT_EQ(purged->value(), 1u);
  const EventId next = sim.schedule_after(1.0, [] {});
  EXPECT_EQ(next & 0xffffffffu, id & 0xffffffffu);
  EXPECT_EQ(next >> 32, (id >> 32) + 1);
  sim.run_all();
}

TEST(SimulatorSlabTest, MassCancelFromInsideCallbackStaysConsistent) {
  Simulator sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_at(10.0 + i, [&] { ++fired; }));
  }
  // One early event cancels 80 of the 100 from inside its callback — far
  // past the purge threshold, so the compaction must be deferred until the
  // callback returns.
  sim.schedule_at(1.0, [&] {
    for (int i = 0; i < 100; ++i) {
      if (i % 5 != 0) {
        EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
      }
    }
  });
  sim.run_all();
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(sim.executed(), 21u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorSlabTest, ThrowingCallbackStillReleasesItsSlot) {
  Simulator sim;
  const EventId id = sim.schedule_after(
      1.0, [] { throw std::runtime_error("callback failure"); });
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_FALSE(sim.cancel(id));
  // The slot made it back to the free list on unwind: the next schedule
  // recycles it under a bumped generation instead of growing the slab.
  const EventId next = sim.schedule_after(1.0, [] {});
  EXPECT_EQ(next & 0xffffffffu, id & 0xffffffffu);
  EXPECT_EQ(next >> 32, (id >> 32) + 1);
  sim.run_all();
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(SimulatorSlabTest, ReenteringTheEngineFromACallbackIsRejected) {
  Simulator sim;
  sim.schedule_after(1.0, [&] { sim.step(); });
  EXPECT_THROW(sim.step(), std::logic_error);
  sim.schedule_after(1.0, [&] { sim.run_until(5.0); });
  EXPECT_THROW(sim.step(), std::logic_error);
  // The engine stays usable: the offending slots were reclaimed on unwind.
  EXPECT_EQ(sim.pending(), 0u);
  int fired = 0;
  sim.schedule_after(1.0, [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorSlabTest, QueueDepthGaugeTracksFiresAndCancels) {
  obs::MetricsRegistry r;
  obs::ScopedRegistry scoped(r);
  Simulator sim;
  const EventId a = sim.schedule_after(1.0, [] {});
  sim.schedule_after(2.0, [] {});
  sim.schedule_after(3.0, [] {});
  const obs::Gauge* depth = r.find_gauge("sim.queue.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value(), 3.0);
  sim.cancel(a);
  EXPECT_EQ(depth->value(), 2.0);
  sim.step();
  EXPECT_EQ(depth->value(), 1.0);
  sim.run_all();
  EXPECT_EQ(depth->value(), 0.0);
  EXPECT_EQ(depth->max(), 3.0);
}

TEST(SimulatorSlabTest, PeriodicReuseKeepsHandleValidUntilCancel) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.schedule_every(1.0, 1.0, [&] { ++fires; });
  for (int i = 0; i < 5; ++i) sim.step();
  EXPECT_EQ(fires, 5);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run_until(100.0);
  EXPECT_EQ(fires, 5);

  // The periodic slot is reclaimed and recycles under a new generation.
  const EventId next = sim.schedule_after(1.0, [] {});
  EXPECT_NE(next, id);
  EXPECT_FALSE(sim.cancel(id));
  sim.run_all();
}

}  // namespace
}  // namespace cloudfog::sim
