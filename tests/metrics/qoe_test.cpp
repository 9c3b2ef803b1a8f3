#include "metrics/qoe.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace cloudfog::metrics {
namespace {

TEST(PlayerQoE, ContinuityDefaultsToOne) {
  PlayerQoE q;
  EXPECT_DOUBLE_EQ(q.continuity(), 1.0);
  EXPECT_TRUE(q.satisfied());
}

TEST(PlayerQoE, ContinuityIsOnTimeFraction) {
  PlayerQoE q;
  q.units_total = 100.0;
  q.units_on_time = 96.0;
  EXPECT_DOUBLE_EQ(q.continuity(), 0.96);
  EXPECT_TRUE(q.satisfied());
  q.units_on_time = 94.0;
  EXPECT_FALSE(q.satisfied());
}

TEST(PlayerQoE, SatisfactionThresholdExactlyAtBoundary) {
  PlayerQoE q;
  q.units_total = 100.0;
  q.units_on_time = 95.0;
  EXPECT_TRUE(q.satisfied());  // paper: ">= 95%"
}

TEST(QoECollector, LatencyAggregation) {
  QoECollector c;
  c.add_latency(1, 50.0);
  c.add_latency(1, 150.0);
  c.add_latency(2, 200.0);
  // Mean of per-player means: (100 + 200) / 2.
  EXPECT_DOUBLE_EQ(c.mean_response_latency_ms(), 150.0);
  EXPECT_EQ(c.player_count(), 2u);
}

TEST(QoECollector, PlayersWithoutLatencySamplesExcludedFromMean) {
  QoECollector c;
  c.add_latency(1, 100.0);
  c.add_units(2, 10.0, 10.0);  // player 2 has units but no latency sample
  EXPECT_DOUBLE_EQ(c.mean_response_latency_ms(), 100.0);
}

TEST(QoECollector, ContinuityAndSatisfaction) {
  QoECollector c;
  c.add_units(1, 100.0, 100.0);  // satisfied
  c.add_units(2, 100.0, 50.0);   // not satisfied
  EXPECT_DOUBLE_EQ(c.mean_continuity(), 0.75);
  EXPECT_DOUBLE_EQ(c.satisfied_fraction(), 0.5);
}

TEST(QoECollector, UnitsAccumulateAcrossCalls) {
  QoECollector c;
  c.add_units(1, 10.0, 10.0);
  c.add_units(1, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(c.player(1).continuity(), 0.5);
}

TEST(QoECollector, EmptyCollectorDefaults) {
  QoECollector c;
  EXPECT_DOUBLE_EQ(c.mean_response_latency_ms(), 0.0);
  EXPECT_DOUBLE_EQ(c.mean_continuity(), 1.0);
  EXPECT_DOUBLE_EQ(c.satisfied_fraction(), 1.0);
}

TEST(QoECollector, CustomThreshold) {
  QoECollector c;
  c.add_units(1, 100.0, 80.0);
  EXPECT_DOUBLE_EQ(c.satisfied_fraction(0.75), 1.0);
  EXPECT_DOUBLE_EQ(c.satisfied_fraction(0.90), 0.0);
}

TEST(QoECollector, RejectsInvalidInputs) {
  QoECollector c;
  EXPECT_THROW(c.add_latency(1, -1.0), std::logic_error);
  EXPECT_THROW(c.add_units(1, 10.0, 11.0), std::logic_error);
  EXPECT_THROW(c.add_units(1, -1.0, 0.0), std::logic_error);
}

TEST(PlayerQoE, FreeRecordersRejectInvalidInputsWithTheCollectorsMessages) {
  PlayerQoE q;
  const auto message = [](auto&& call) {
    try {
      call();
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  QoECollector c;
  EXPECT_EQ(message([&] { add_latency(q, -1.0); }),
            message([&] { c.add_latency(1, -1.0); }));
  EXPECT_NE(message([&] { add_latency(q, -1.0); }).find(
                "latency must be non-negative"),
            std::string::npos);
  for (const auto& [total, on_time] :
       {std::pair{10.0, 11.0}, std::pair{10.0, -1.0}, std::pair{-1.0, 0.0}}) {
    const std::string free_msg =
        message([&] { add_units(q, total, on_time); });
    EXPECT_NE(free_msg.find("on-time units must lie in [0, total]"),
              std::string::npos)
        << total << " " << on_time;
    EXPECT_EQ(free_msg, message([&] { c.add_units(1, total, on_time); }));
  }
  // Nothing was recorded by the rejected calls.
  EXPECT_EQ(q.response_latency_ms.count(), 0u);
  EXPECT_DOUBLE_EQ(q.units_total, 0.0);
}

TEST(PlayerQoE, FreeRecordersAccumulate) {
  PlayerQoE q;
  add_latency(q, 40.0);
  add_latency(q, 60.0);
  add_units(q, 10.0, 10.0 + 1e-12);  // clamped to total
  add_units(q, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(q.response_latency_ms.mean(), 50.0);
  EXPECT_DOUBLE_EQ(q.units_total, 20.0);
  EXPECT_DOUBLE_EQ(q.units_on_time, 10.0);
}

TEST(QoESummary, MatchesTheCollectorsAggregates) {
  QoECollector c;
  QoESummary summary;
  c.add_latency(3, 80.0);
  c.add_units(3, 100.0, 97.0);
  c.add_units(5, 100.0, 40.0);  // no latency sample
  c.add_latency(9, 20.0);
  for (const auto& [id, q] : c.all()) summary.add(q);
  EXPECT_EQ(summary.mean_response_latency_ms(), c.mean_response_latency_ms());
  EXPECT_EQ(summary.mean_continuity(), c.mean_continuity());
  EXPECT_EQ(summary.satisfied_fraction(), c.satisfied_fraction());
  EXPECT_DOUBLE_EQ(summary.mean_response_latency_ms(), 50.0);
  EXPECT_DOUBLE_EQ(QoESummary(0.3).satisfied_fraction(), 1.0);
}

TEST(QoECollector, DirectPlayerAccessCreatesEntry) {
  QoECollector c;
  c.player(5).units_total += 1.0;
  EXPECT_EQ(c.player_count(), 1u);
  EXPECT_DOUBLE_EQ(c.player(5).continuity(), 0.0);
}

}  // namespace
}  // namespace cloudfog::metrics
