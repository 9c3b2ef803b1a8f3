#include "game/game.h"

#include <array>

#include "util/check.h"

namespace cloudfog::game {

const std::vector<GameProfile>& game_catalog() {
  // One game per Figure-2 row. Loss tolerance follows genre intuition
  // (turn-based play survives loss better than twitch shooters) on the same
  // 0..1 "degree" scale the paper's Figure-4 example uses.
  static const std::vector<GameProfile> kCatalog = [] {
    std::vector<GameProfile> games;
    const struct {
      const char* name;
      const char* genre;
      double loss_tolerance;
    } kMeta[kNumQualityLevels] = {
        {"Twitch Arena", "first-person shooter", 0.2},
        {"Apex Rally", "racing", 0.3},
        {"World of Avatars", "MMORPG", 0.4},
        {"Star Command", "real-time strategy", 0.5},
        {"Court & Crown", "turn-based strategy", 0.6},
    };
    for (int i = 0; i < kNumQualityLevels; ++i) {
      const QualityLevel& q = quality_for_level(i + 1);
      GameProfile g;
      g.id = i;
      g.name = kMeta[i].name;
      g.genre = kMeta[i].genre;
      g.latency_requirement_ms = q.latency_requirement_ms;
      g.latency_tolerance = q.latency_tolerance;
      g.loss_tolerance = kMeta[i].loss_tolerance;
      g.target_quality_level = q.level;
      games.push_back(std::move(g));
    }
    return games;
  }();
  return kCatalog;
}

const GameProfile& game_by_id(GameId id) {
  const auto& catalog = game_catalog();
  CF_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < catalog.size(),
               "unknown game id");
  return catalog[static_cast<std::size_t>(id)];
}

GameId choose_game(std::span<const GameId> friend_games, util::Rng& rng,
                   double conformity) {
  CF_CHECK_MSG(conformity >= 0.0 && conformity <= 1.0,
               "conformity must be a probability");
  std::array<int, kNumGames> votes{};
  bool voted = false;
  for (GameId g : friend_games) {
    if (g < 0) continue;
    CF_CHECK_MSG(g < kNumGames, "unknown game id");
    ++votes[static_cast<std::size_t>(g)];
    voted = true;
  }
  if (!voted || !rng.bernoulli(conformity)) {
    return static_cast<GameId>(rng.uniform_int(0, kNumGames - 1));
  }
  GameId best = 0;
  for (GameId g = 1; g < kNumGames; ++g) {
    if (votes[static_cast<std::size_t>(g)] > votes[static_cast<std::size_t>(best)]) {
      best = g;
    }
  }
  return best;
}

TimeMs next_action_delay_ms(double actions_per_second, util::Rng& rng) {
  CF_CHECK_MSG(actions_per_second > 0.0, "action rate must be positive");
  return rng.exponential(actions_per_second) * kMsPerSecond;
}

}  // namespace cloudfog::game
