// Tests for the trace recorder and its Chrome trace_event JSON export —
// including a schema/validity check done by actually parsing the emitted
// document, the same guarantee chrome://tracing / Perfetto rely on.
#include "obs/trace.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/timer.h"

namespace cloudfog::obs {
namespace {

json::Value parse_or_die(const std::string& text) {
  json::ParseResult result = json::parse(text);
  EXPECT_TRUE(result.ok) << result.error << " at " << result.error_pos;
  return result.value;
}

TEST(TraceRecorderTest, RecordsAndCounts) {
  TraceRecorder t;
  t.span("work", "bench", 10.0, 5.0, kWallTrack);
  t.instant("marker", "sim", 20.0, kSimTrack);
  t.counter("depth", 30.0, 7.0, kSimTrack);
  EXPECT_EQ(t.event_count(), 3u);
  EXPECT_EQ(t.dropped_count(), 0u);
  t.clear();
  EXPECT_EQ(t.event_count(), 0u);
}

TEST(TraceRecorderTest, CapacityDropsAreCountedNotFatal) {
  TraceRecorder t(2);
  for (int i = 0; i < 5; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    t.instant(name, "x", static_cast<double>(i), kSimTrack);
  }
  EXPECT_EQ(t.event_count(), 2u);
  EXPECT_EQ(t.dropped_count(), 3u);

  const json::Value doc = parse_or_die(t.to_chrome_json());
  const json::Value* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  const json::Value* dropped = other->find("droppedEvents");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->number, 3.0);
}

TEST(TraceRecorderTest, ChromeJsonIsValidAndWellFormed) {
  TraceRecorder t;
  t.span("run \"quoted\"", "bench", 100.0, 250.5, kWallTrack);
  t.instant("start", "systems", 0.0, kSimTrack);
  t.counter("sim.queue.depth", 1'000.0, 42.0, kSimTrack);

  const std::string text = t.to_chrome_json();
  const json::Value doc = parse_or_die(text);
  ASSERT_TRUE(doc.is_object());

  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 2 thread_name metadata events + the 3 recorded ones.
  ASSERT_EQ(events->array.size(), 5u);

  // Every event must carry the mandatory trace_event fields.
  for (const json::Value& e : events->array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
  }

  // Metadata first: both tracks named.
  EXPECT_EQ(events->array[0].find("ph")->string, "M");
  EXPECT_EQ(events->array[1].find("ph")->string, "M");

  const json::Value& span = events->array[2];
  EXPECT_EQ(span.find("ph")->string, "X");
  EXPECT_EQ(span.find("name")->string, "run \"quoted\"");
  EXPECT_EQ(span.find("ts")->number, 100.0);
  ASSERT_NE(span.find("dur"), nullptr);
  EXPECT_EQ(span.find("dur")->number, 250.5);
  EXPECT_EQ(span.find("tid")->number, static_cast<double>(kWallTrack));

  const json::Value& instant = events->array[3];
  EXPECT_EQ(instant.find("ph")->string, "i");
  ASSERT_NE(instant.find("s"), nullptr);  // instant scope, required by viewers

  const json::Value& counter = events->array[4];
  EXPECT_EQ(counter.find("ph")->string, "C");
  const json::Value* args = counter.find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_NE(args->find("value"), nullptr);
  EXPECT_EQ(args->find("value")->number, 42.0);

  ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
  EXPECT_EQ(doc.find("displayTimeUnit")->string, "ms");
}

TEST(GlobalTracerTest, HelpersAreNoOpsWithoutTracer) {
  ASSERT_EQ(tracer(), nullptr);
  trace_sim_instant("ghost", "x", 1.0);
  trace_sim_counter("ghost", 1.0, 2.0);
  EXPECT_EQ(tracer(), nullptr);
}

TEST(GlobalTracerTest, SimHelpersConvertMillisecondsToMicroseconds) {
  TraceRecorder t;
  {
    ScopedTracer scoped(t);
    EXPECT_EQ(tracer(), &t);
    trace_sim_instant("tick", "sim", 2.5);          // 2.5 sim-ms
    trace_sim_counter("depth", 4.0, 11.0);          // 4.0 sim-ms
  }
  EXPECT_EQ(tracer(), nullptr);

  const json::Value doc = parse_or_die(t.to_chrome_json());
  const json::Value& events = *doc.find("traceEvents");
  ASSERT_EQ(events.array.size(), 4u);  // 2 metadata + 2 recorded
  EXPECT_EQ(events.array[2].find("ts")->number, 2'500.0);
  EXPECT_EQ(events.array[2].find("tid")->number, static_cast<double>(kSimTrack));
  EXPECT_EQ(events.array[3].find("ts")->number, 4'000.0);
}

TEST(ScopedTimerTest, RecordsWallSpanAndHistogram) {
  MetricsRegistry r;
  TraceRecorder t;
  {
    ScopedRegistry sr(r);
    ScopedTracer st(t);
    CF_TIMED_SCOPE("timers.test.scope");
  }
  const Histogram* h = r.find_histogram("timers.test.scope");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);

  const json::Value doc = parse_or_die(t.to_chrome_json());
  const json::Value& events = *doc.find("traceEvents");
  ASSERT_EQ(events.array.size(), 3u);
  const json::Value& span = events.array[2];
  EXPECT_EQ(span.find("ph")->string, "X");
  EXPECT_EQ(span.find("name")->string, "timers.test.scope");
  EXPECT_EQ(span.find("tid")->number, static_cast<double>(kWallTrack));
  EXPECT_GE(span.find("dur")->number, 0.0);
}

TEST(ScopedTimerTest, NoOpWhenNothingInstalled) {
  ASSERT_EQ(registry(), nullptr);
  ASSERT_EQ(tracer(), nullptr);
  CF_TIMED_SCOPE("timers.ghost");  // must not crash or allocate global state
  EXPECT_EQ(registry(), nullptr);
}

}  // namespace
}  // namespace cloudfog::obs
