#include "metrics/qoe.h"

#include <algorithm>

#include "util/check.h"

namespace cloudfog::metrics {

void add_latency(PlayerQoE& q, TimeMs latency_ms) {
  CF_CHECK_MSG(latency_ms >= 0.0, "latency must be non-negative");
  q.response_latency_ms.add(latency_ms);
}

void add_units(PlayerQoE& q, double total, double on_time) {
  CF_CHECK_MSG(total >= 0.0 && on_time >= -1e-9 && on_time <= total + 1e-9,
               "on-time units must lie in [0, total]");
  q.units_total += total;
  q.units_on_time += std::min(std::max(on_time, 0.0), total);
}

void QoESummary::add(const PlayerQoE& q) {
  ++players_;
  if (q.response_latency_ms.count() > 0) {
    latency_sum_ += q.response_latency_ms.mean();
    ++with_latency_;
  }
  continuity_sum_ += q.continuity();
  if (q.satisfied(threshold_)) ++satisfied_;
}

double QoESummary::mean_response_latency_ms() const {
  return with_latency_ == 0
             ? 0.0
             : latency_sum_ / static_cast<double>(with_latency_);
}

double QoESummary::mean_continuity() const {
  return players_ == 0 ? 1.0
                       : continuity_sum_ / static_cast<double>(players_);
}

double QoESummary::satisfied_fraction() const {
  return players_ == 0 ? 1.0
                       : static_cast<double>(satisfied_) /
                             static_cast<double>(players_);
}

}  // namespace cloudfog::metrics
