// Receiver-driven encoding rate adaptation — paper Section III-B,
// Equations (7)–(11).
//
// The player estimates its buffered-segment count
//     r = s(t_k) / tau                                  (Eq 8)
// (s(t) maintained by stream::ReceiverBuffer per Eq 7) and asks the
// supernode to step the encoding quality:
//     adjust up   when r > (1 + beta) / rho             (Eq 9, rho-scaled)
//     adjust down when r < theta / rho                  (Eq 11, rho-scaled)
// where beta is the maximum relative bitrate step between adjacent levels
// (Eq 10), theta the adjust-down threshold (paper default 0.5), and rho the
// game's latency tolerance degree — latency-sensitive games get stricter
// thresholds. To prevent bitrate flutter the controller only acts after the
// condition holds for a configurable number of consecutive estimates.
#pragma once

#include "game/game.h"
#include "game/quality.h"
#include "util/types.h"

namespace cloudfog::core {

struct RateAdaptationConfig {
  /// theta: adjust-down threshold (Eq 11). Paper default 0.5.
  double theta = 0.5;
  /// Consecutive satisfying estimates required before acting (the paper's
  /// anti-fluctuation rule; we map the paper's h_2 = 10 default here).
  int consecutive_estimates = 10;
};

/// Per-player controller. The caller feeds it buffered-segment estimates at
/// its estimation cadence; the controller steps the quality level.
class RateAdaptationController {
 public:
  enum class Decision { kHold, kUp, kDown };

  /// `initial_level` defaults to the game's target level (the level whose
  /// latency requirement matches the game — Figure 2).
  RateAdaptationController(const game::GameProfile& profile,
                           RateAdaptationConfig config, int initial_level = -1);

  /// Feeds one estimate of r (Eq 8) and applies Eqs (9)/(11). Returns the
  /// decision taken at this estimate (kHold if thresholds not yet met for
  /// the required consecutive count, or already at a level bound).
  Decision observe(double buffered_segments);

  /// The paper's Equation (7) estimator: advances the internal buffered-size
  /// estimate s(t_k) = s(t_k-1) + dt * (d - b_p), clamped to [0, 4 tau],
  /// computes r = s / tau (Eq 8) and runs one observe() step. This is the
  /// receiver-driven entry point harnesses use each estimation tick —
  /// rate-based, so lumpy segment arrivals don't defeat the debounce.
  Decision observe_rates(TimeMs dt_ms, Kbps download_kbps, Kbps playback_kbps,
                         Kbit tau_kbit);

  /// Current Eq (7) estimate (kbit). Starts at one tau after the first
  /// observe_rates call.
  Kbit estimated_buffer_kbit() const { return s_estimate_; }

  int level() const { return level_; }
  Kbps bitrate_kbps() const { return game::quality_for_level(level_).bitrate_kbps; }

  /// Highest level the controller will use: the game's target level — the
  /// paper never encodes above the level matching the game's latency
  /// requirement (Section III-B).
  int max_level() const { return max_level_; }

  /// (1 + beta) / rho — the effective adjust-up threshold on r.
  double up_threshold() const;
  /// theta / rho — the effective adjust-down threshold on r.
  double down_threshold() const;

  int consecutive_up() const { return up_count_; }
  int consecutive_down() const { return down_count_; }

 private:
  /// The Eqs (9)/(11) state machine; observe() wraps it with the
  /// quality-ladder bounds invariant.
  Decision observe_impl(double buffered_segments);

  RateAdaptationConfig config_;
  double latency_tolerance_;  // the game's rho (Eqs 9, 11)
  int level_;
  int max_level_;
  int up_count_ = 0;
  int down_count_ = 0;
  Kbit s_estimate_ = 0.0;
  bool estimator_initialised_ = false;
};

}  // namespace cloudfog::core
