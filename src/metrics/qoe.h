// QoE accounting — the paper's three evaluation metrics:
//   * response latency: time from a player action to the arrival of the
//     video data responding to it;
//   * playback continuity: "the proportion of packets arrived within the
//     required response latency over all packets in a game video";
//   * satisfied player: receives >= 95% of its packets within its game's
//     response latency (the paper's Section-IV definition).
#pragma once

#include <cstddef>

#include "util/stats.h"
#include "util/types.h"

namespace cloudfog::metrics {

/// The paper's satisfaction threshold: >= 95% of packets on time.
inline constexpr double kSatisfactionThreshold = 0.95;

/// Per-player QoE accumulator.
struct PlayerQoE {
  util::RunningStats response_latency_ms;  // one sample per action/segment
  double units_total = 0.0;    // packets (packet-level) or kbit (fluid)
  double units_on_time = 0.0;  // arrived within the response latency

  /// Playback continuity in [0, 1]; 1.0 before any data is recorded.
  double continuity() const {
    return units_total > 0.0 ? units_on_time / units_total : 1.0;
  }
  bool satisfied(double threshold = kSatisfactionThreshold) const {
    return continuity() >= threshold;
  }
};

/// Records a response-latency sample into one player's record (checked:
/// non-negative).
void add_latency(PlayerQoE& q, TimeMs latency_ms);

/// Records delivered units into one player's record (checked: `on_time`
/// within [0, `total`], clamped into it).
void add_units(PlayerQoE& q, double total, double on_time);

/// Reduces per-player records, added in a canonical player order, to the
/// paper's three population aggregates.
class QoESummary {
 public:
  explicit QoESummary(double threshold = kSatisfactionThreshold)
      : threshold_(threshold) {}

  void add(const PlayerQoE& q);

  /// Mean of the per-player mean response latencies over players with a
  /// latency sample. 0 with none.
  double mean_response_latency_ms() const;
  /// Mean per-player continuity. 1 with no players.
  double mean_continuity() const;
  /// Fraction of players with continuity >= threshold. 1 with no players.
  double satisfied_fraction() const;

 private:
  double threshold_;
  std::size_t players_ = 0;
  std::size_t with_latency_ = 0;
  std::size_t satisfied_ = 0;
  double latency_sum_ = 0.0;
  double continuity_sum_ = 0.0;
};

}  // namespace cloudfog::metrics
