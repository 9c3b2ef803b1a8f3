#include "p2p/churn.h"

#include <limits>

#include "util/check.h"

namespace cloudfog::p2p {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
}

ChurnProcess::ChurnProcess(sim::Simulator& sim, const Population& population,
                           const SocialGraph* graph, ChurnConfig config,
                           util::Rng rng)
    : sim_(sim),
      population_(population),
      graph_(graph),
      config_(config),
      rng_(rng),
      online_(population.size(), false),
      game_(population.size(), -1),
      eligible_pos_(population.size(), kNpos) {
  CF_CHECK_MSG(config.arrival_rate_per_s > 0.0, "arrival rate must be positive");
  eligible_.reserve(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    eligible_.push_back(i);
    eligible_pos_[i] = i;
  }
}

void ChurnProcess::set_callbacks(PlayerFn on_join, PlayerFn on_leave) {
  CF_CHECK_MSG(!started_, "set callbacks before start()");
  on_join_ = std::move(on_join);
  on_leave_ = std::move(on_leave);
}

TimeMs ChurnProcess::session_length_ms(std::size_t player) const {
  return population_.player(player).daily_play_hours * kMsPerHour;
}

void ChurnProcess::start() {
  CF_CHECK_MSG(!started_, "start() may only be called once");
  started_ = true;

  if (config_.warm_start) {
    // Stationary start of each player's on/off renewal process: online with
    // probability (daily play / 24 h) with a uniform residual session;
    // otherwise mid-off-period, becoming eligible after a uniform residual
    // of the (24 h - daily play) gap.
    const std::size_t n = population_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double p_online = population_.player(i).daily_play_hours / 24.0;
      if (rng_.bernoulli(p_online)) {
        const TimeMs residual = rng_.uniform() * session_length_ms(i);
        join(i, std::max(residual, 1.0));
      } else {
        // Remove from the eligible pool until the residual off time passes.
        const std::size_t pos = eligible_pos_[i];
        const std::size_t last = eligible_.back();
        eligible_[pos] = last;
        eligible_pos_[last] = pos;
        eligible_.pop_back();
        eligible_pos_[i] = kNpos;
        const TimeMs gap =
            std::max(1.0, 24.0 * kMsPerHour - session_length_ms(i));
        const TimeMs residual_off = rng_.uniform() * gap;
        sim_.schedule_after(residual_off, [this, i] {
          if (!online_[i] && eligible_pos_[i] == kNpos) {
            eligible_pos_[i] = eligible_.size();
            eligible_.push_back(i);
          }
        });
      }
    }
  }

  // Poisson arrival stream.
  sim_.schedule_after(rng_.exponential(config_.arrival_rate_per_s) * kMsPerSecond,
                      [this] { on_arrival_tick(); });
}

void ChurnProcess::on_arrival_tick() {
  if (!eligible_.empty()) {
    const std::size_t slot = rng_.index(eligible_.size());
    const std::size_t player = eligible_[slot];
    join(player, session_length_ms(player));
  }
  sim_.schedule_after(rng_.exponential(config_.arrival_rate_per_s) * kMsPerSecond,
                      [this] { on_arrival_tick(); });
}

game::GameId ChurnProcess::pick_game(std::size_t player) {
  friend_games_.clear();
  if (graph_ != nullptr) {
    for (std::uint32_t f : graph_->friends(player)) {
      if (online_[f]) friend_games_.push_back(game_[f]);
    }
  }
  return game::choose_game(friend_games_, rng_);
}

void ChurnProcess::join(std::size_t player, TimeMs session_ms) {
  CF_CHECK_MSG(!online_[player], "player already online");
  // Remove from the eligible list (swap-with-back), if present.
  const std::size_t pos = eligible_pos_[player];
  if (pos != kNpos) {
    const std::size_t last = eligible_.back();
    eligible_[pos] = last;
    eligible_pos_[last] = pos;
    eligible_.pop_back();
    eligible_pos_[player] = kNpos;
  }
  online_[player] = true;
  ++online_count_;
  ++total_joins_;
  game_[player] = pick_game(player);
  sim_.schedule_after(session_ms, [this, player] { leave(player); });
  if (on_join_) on_join_(player);
}

void ChurnProcess::leave(std::size_t player) {
  CF_CHECK_MSG(online_[player], "player not online");
  online_[player] = false;
  CF_DCHECK(online_count_ > 0);
  --online_count_;
  ++total_leaves_;
  game_[player] = -1;
  // Diurnal gate: eligible again after the rest of the day.
  const TimeMs gap =
      std::max(1.0, 24.0 * kMsPerHour - session_length_ms(player));
  sim_.schedule_after(gap, [this, player] {
    if (!online_[player] && eligible_pos_[player] == kNpos) {
      eligible_pos_[player] = eligible_.size();
      eligible_.push_back(player);
    }
  });
  if (on_leave_) on_leave_(player);
}

bool ChurnProcess::is_online(std::size_t player) const {
  CF_CHECK_MSG(player < online_.size(), "player index out of range");
  return online_[player];
}

game::GameId ChurnProcess::game_of(std::size_t player) const {
  CF_CHECK_MSG(player < game_.size(), "player index out of range");
  return game_[player];
}

std::vector<std::size_t> ChurnProcess::online_players() const {
  std::vector<std::size_t> out;
  out.reserve(online_count_);
  for (std::size_t i = 0; i < online_.size(); ++i)
    if (online_[i]) out.push_back(i);
  return out;
}

}  // namespace cloudfog::p2p
