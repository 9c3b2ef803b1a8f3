#include "core/rate_adaptation.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace cloudfog::core {

RateAdaptationController::RateAdaptationController(
    const game::GameProfile& profile, RateAdaptationConfig config,
    int initial_level)
    : config_(config), latency_tolerance_(profile.latency_tolerance) {
  CF_CHECK_MSG(config.theta > 0.0 && config.theta <= 1.0,
               "theta must be in (0, 1] (Eq 11)");
  CF_CHECK_MSG(config.consecutive_estimates >= 1,
               "need at least one estimate before acting");
  CF_CHECK_MSG(profile.latency_tolerance > 0.0 && profile.latency_tolerance <= 1.0,
               "latency tolerance degree rho must be in (0, 1]");
  max_level_ = profile.target_quality_level;
  level_ = initial_level < 0 ? max_level_ : initial_level;
  CF_CHECK_MSG(level_ >= game::kMinQualityLevel && level_ <= max_level_,
               "initial level out of range for this game");
}

double RateAdaptationController::up_threshold() const {
  return (1.0 + game::adjust_up_beta()) / latency_tolerance_;
}

double RateAdaptationController::down_threshold() const {
  return config_.theta / latency_tolerance_;
}

RateAdaptationController::Decision RateAdaptationController::observe_rates(
    TimeMs dt_ms, Kbps download_kbps, Kbps playback_kbps, Kbit tau_kbit) {
  CF_CHECK_GT(dt_ms, 0.0);
  CF_CHECK_GE(download_kbps, 0.0);
  CF_CHECK_GT(playback_kbps, 0.0);
  CF_CHECK_GT(tau_kbit, 0.0);
  if (!estimator_initialised_) {
    s_estimate_ = tau_kbit;  // start with one buffered segment
    estimator_initialised_ = true;
  }
  s_estimate_ += (download_kbps - playback_kbps) * dt_ms / 1000.0;  // Eq (7)
  s_estimate_ = std::clamp(s_estimate_, 0.0, 4.0 * tau_kbit);
  return observe(s_estimate_ / tau_kbit);  // Eq (8)
}

RateAdaptationController::Decision RateAdaptationController::observe(
    double buffered_segments) {
  CF_CHECK_GE(buffered_segments, 0.0);  // r (Eq 8) is a buffer count
  const Decision decision = observe_impl(buffered_segments);
  // Trust boundary: whatever path the Eqs (9)/(11) state machine took, the
  // resulting rate must stay inside the encoder's quality ladder and never
  // exceed the game's target level (Section III-B).
  CF_INVARIANT(level_ >= game::kMinQualityLevel && level_ <= max_level_,
               "encoding level outside the game's quality-ladder bounds");
  return decision;
}

RateAdaptationController::Decision RateAdaptationController::observe_impl(
    double buffered_segments) {
  if (buffered_segments > up_threshold()) {
    ++up_count_;
    down_count_ = 0;
    if (up_count_ >= config_.consecutive_estimates) {
      up_count_ = 0;
      if (level_ < max_level_) {
        ++level_;
        CF_OBS_COUNT("core.adaptation.switches_up", 1);
        return Decision::kUp;
      }
    }
  } else if (buffered_segments < down_threshold()) {
    ++down_count_;
    up_count_ = 0;
    if (down_count_ >= config_.consecutive_estimates) {
      down_count_ = 0;
      if (level_ > game::kMinQualityLevel) {
        --level_;
        CF_OBS_COUNT("core.adaptation.switches_down", 1);
        return Decision::kDown;
      }
    }
  } else {
    up_count_ = 0;
    down_count_ = 0;
  }
  return Decision::kHold;
}

}  // namespace cloudfog::core
