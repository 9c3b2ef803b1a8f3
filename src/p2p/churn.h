// Churn process: player joins and leaves over simulated time.
//
// Paper Section IV: players join following a Poisson process with an average
// rate of 5 players per second; each node leaves after it finishes playing
// and rejoins for its next session; daily play time follows the 50/30/20
// class split held in the Population.
//
// To make those two knobs consistent at steady state we add a diurnal
// eligibility gate: after finishing its daily session a player only becomes
// eligible to rejoin after (24 h − its daily play time). The Poisson arrival
// process then draws uniformly among *eligible* offline players. The
// long-run online fraction therefore converges to
// Population::expected_online_fraction() while arrivals remain Poisson.
#pragma once

#include <functional>
#include <vector>

#include "game/game.h"
#include "p2p/population.h"
#include "p2p/social_graph.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace cloudfog::p2p {

struct ChurnConfig {
  double arrival_rate_per_s = 5.0;  // Poisson join rate (paper default)
  bool warm_start = true;           // begin at steady state instead of empty
};

/// Drives join/leave events on the simulator and tracks who is online and
/// which game each online player chose.
class ChurnProcess {
 public:
  using PlayerFn = std::function<void(std::size_t player)>;

  /// `graph` may be null (game choice then ignores friends).
  ChurnProcess(sim::Simulator& sim, const Population& population,
               const SocialGraph* graph, ChurnConfig config, util::Rng rng);

  /// Registers observers; either may be empty. Call before start().
  void set_callbacks(PlayerFn on_join, PlayerFn on_leave);

  /// Applies the warm start (if configured) and schedules the arrival
  /// process. Must be called exactly once, before running the simulator.
  void start();

  bool is_online(std::size_t player) const;
  std::size_t online_count() const { return online_count_; }
  /// Game the player currently plays, or -1 when offline.
  game::GameId game_of(std::size_t player) const;

  /// Snapshot of all online player indices (ascending).
  std::vector<std::size_t> online_players() const;

  std::uint64_t total_joins() const { return total_joins_; }
  std::uint64_t total_leaves() const { return total_leaves_; }

 private:
  void on_arrival_tick();
  void join(std::size_t player, TimeMs session_ms);
  void leave(std::size_t player);
  game::GameId pick_game(std::size_t player);
  TimeMs session_length_ms(std::size_t player) const;

  sim::Simulator& sim_;
  const Population& population_;
  const SocialGraph* graph_;
  ChurnConfig config_;
  util::Rng rng_;
  PlayerFn on_join_;
  PlayerFn on_leave_;

  std::vector<bool> online_;
  std::vector<game::GameId> game_;
  std::vector<std::size_t> eligible_;    // offline and allowed to rejoin
  std::vector<std::size_t> eligible_pos_;  // player -> index in eligible_, or npos
  std::vector<game::GameId> friend_games_;  // pick_game's reused buffer
  std::size_t online_count_ = 0;
  std::uint64_t total_joins_ = 0;
  std::uint64_t total_leaves_ = 0;
  bool started_ = false;
};

}  // namespace cloudfog::p2p
