// Game catalog: the five games of the paper's evaluation.
//
// Section IV: "We defined 5 games, their quality levels and latency
// requirements are shown in Figure 2." — game k pairs with the k-th quality
// row: its network latency requirement, target quality level and latency
// tolerance degree (rho) come from that row. Packet-loss tolerance degrees
// are per-game (Section III-C uses values like 0.6/0.2/0.5 in its worked
// example; we assign one per genre on the same scale).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "game/quality.h"
#include "util/rng.h"
#include "util/types.h"

namespace cloudfog::game {

using GameId = int;

/// Catalog size: one game per Figure-2 quality row.
inline constexpr int kNumGames = kNumQualityLevels;

/// Static description of one game.
struct GameProfile {
  GameId id = -1;
  std::string name;
  std::string genre;
  /// Network response latency requirement (ms) — Figure 2 column 4.
  TimeMs latency_requirement_ms = 0.0;
  /// The paper's latency tolerance degree rho in [0, 1] (Figure 2 col 5).
  double latency_tolerance = 0.0;
  /// Relative packet-loss tolerance degree L_t in [0, 1] (Section III-C).
  double loss_tolerance = 0.0;
  /// Target quality level when the network allows it (Figure 2 row).
  int target_quality_level = 0;
};

/// The five-game catalog used across all experiments.
const std::vector<GameProfile>& game_catalog();

/// Catalog lookup; id in [0, 4].
const GameProfile& game_by_id(GameId id);

/// Picks the game for a joining player: with probability `conformity` the
/// game most played among its online friends (the paper's Section-IV join
/// rule), otherwise — or when no friend is playing — a uniform random
/// catalog game. The sub-unit conformity keeps the population from
/// cascading onto a single title while preserving friend clustering. A tie
/// goes to the lowest GameId; negative entries (offline friends) are
/// skipped. Allocates nothing.
GameId choose_game(std::span<const GameId> friend_games, util::Rng& rng,
                   double conformity = 0.5);

/// Poisson action generator: models a player issuing latency-relevant
/// actions (strikes, movement) at `actions_per_second`; returns the delay
/// until the next action.
TimeMs next_action_delay_ms(double actions_per_second, util::Rng& rng);

}  // namespace cloudfog::game
