#include "metrics/qoe.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

// The QoECollector suite: population aggregates over per-player records,
// reduced through QoESummary in index order, as the simulations report them.

QoESummary summarize(const std::vector<PlayerQoE>& players,
                     double threshold = kSatisfactionThreshold) {
  QoESummary summary(threshold);
  for (const PlayerQoE& q : players) summary.add(q);
  return summary;
}

TEST(QoECollector, LatencyAggregation) {
  std::vector<PlayerQoE> players(2);
  add_latency(players[0], 50.0);
  add_latency(players[0], 150.0);
  add_latency(players[1], 200.0);
  // Mean of per-player means: (100 + 200) / 2.
  EXPECT_DOUBLE_EQ(summarize(players).mean_response_latency_ms(), 150.0);
}

TEST(QoECollector, PlayersWithoutLatencySamplesExcludedFromMean) {
  std::vector<PlayerQoE> players(2);
  add_latency(players[0], 100.0);
  add_units(players[1], 10.0, 10.0);  // units but no latency sample
  EXPECT_DOUBLE_EQ(summarize(players).mean_response_latency_ms(), 100.0);
}

TEST(QoECollector, ContinuityAndSatisfaction) {
  std::vector<PlayerQoE> players(2);
  add_units(players[0], 100.0, 100.0);  // satisfied
  add_units(players[1], 100.0, 50.0);   // not satisfied
  EXPECT_DOUBLE_EQ(summarize(players).mean_continuity(), 0.75);
  EXPECT_DOUBLE_EQ(summarize(players).satisfied_fraction(), 0.5);
}

TEST(QoECollector, UnitsAccumulateAcrossCalls) {
  PlayerQoE q;
  add_units(q, 10.0, 10.0);
  add_units(q, 10.0, 0.0);
  EXPECT_DOUBLE_EQ(q.continuity(), 0.5);
}

TEST(QoECollector, EmptyCollectorDefaults) {
  const QoESummary empty;
  EXPECT_DOUBLE_EQ(empty.mean_response_latency_ms(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_continuity(), 1.0);
  EXPECT_DOUBLE_EQ(empty.satisfied_fraction(), 1.0);
}

TEST(QoECollector, CustomThreshold) {
  std::vector<PlayerQoE> players(1);
  add_units(players[0], 100.0, 80.0);
  EXPECT_DOUBLE_EQ(summarize(players, 0.75).satisfied_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(summarize(players, 0.90).satisfied_fraction(), 0.0);
}

TEST(QoECollector, RejectsInvalidInputs) {
  PlayerQoE q;
  EXPECT_THROW(add_latency(q, -1.0), std::logic_error);
  EXPECT_THROW(add_units(q, 10.0, 11.0), std::logic_error);
  EXPECT_THROW(add_units(q, -1.0, 0.0), std::logic_error);
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

TEST(QoESummary, ReducesRecordsToThePopulationAggregates) {
  std::vector<PlayerQoE> players(3);
  add_latency(players[0], 80.0);
  add_units(players[0], 100.0, 97.0);
  add_units(players[1], 100.0, 40.0);  // no latency sample
  add_latency(players[2], 20.0);
  const QoESummary summary = summarize(players);
  EXPECT_DOUBLE_EQ(summary.mean_response_latency_ms(), 50.0);
  EXPECT_DOUBLE_EQ(summary.mean_continuity(), (0.97 + 0.4 + 1.0) / 3.0);
  EXPECT_DOUBLE_EQ(summary.satisfied_fraction(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(QoESummary(0.3).satisfied_fraction(), 1.0);
}

}  // namespace
}  // namespace cloudfog::metrics
