#include "p2p/population.h"

#include <algorithm>

#include "util/check.h"

namespace cloudfog::p2p {

Population::Population(std::vector<NodeId> player_hosts,
                       const PopulationConfig& config, util::Rng& rng) {
  CF_CHECK_MSG(config.supernode_capable_fraction >= 0.0 &&
                   config.supernode_capable_fraction <= 1.0,
               "supernode fraction must be in [0, 1]");
  CF_CHECK_MSG(config.short_fraction + config.medium_fraction <= 1.0,
               "play-time class fractions exceed 1");
  const auto capacity = util::CappedPareto::with_mean(config.capacity_mean,
                                                     config.capacity_alpha);
  players_.reserve(player_hosts.size());
  for (NodeId host : player_hosts) {
    PlayerProfile p;
    p.host = host;
    p.capacity = capacity(rng);
    p.supernode_capable = rng.bernoulli(config.supernode_capable_fraction);
    const double u = rng.uniform();
    if (u < config.short_fraction) {
      p.play_class = PlayTimeClass::kShort;
      p.daily_play_hours = rng.uniform(0.0, 2.0);
    } else if (u < config.short_fraction + config.medium_fraction) {
      p.play_class = PlayTimeClass::kMedium;
      p.daily_play_hours = rng.uniform(2.0, 5.0);
    } else {
      p.play_class = PlayTimeClass::kLong;
      p.daily_play_hours = rng.uniform(5.0, 24.0);
    }
    // Keep a floor so every session has measurable length.
    p.daily_play_hours = std::max(0.05, p.daily_play_hours);
    players_.push_back(p);
  }
}

const PlayerProfile& Population::player(std::size_t i) const {
  CF_CHECK_MSG(i < players_.size(), "player index out of range");
  return players_[i];
}

std::vector<std::size_t> Population::supernode_capable_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < players_.size(); ++i)
    if (players_[i].supernode_capable) out.push_back(i);
  return out;
}

double Population::expected_online_fraction() const {
  if (players_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& p : players_) total += p.daily_play_hours;
  return total / 24.0 / static_cast<double>(players_.size());
}

}  // namespace cloudfog::p2p
