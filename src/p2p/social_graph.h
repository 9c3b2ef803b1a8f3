// Social graph among players. The paper: "The number of friends for each
// player follows power-law distribution with skew factor of 0.5" (citing a
// Facebook measurement study). We realise target degrees with a
// configuration-model wiring pass (random stub matching, self-loops and
// duplicate edges rejected best-effort), which preserves the degree
// distribution — the only property the experiments consume, via
// friend-driven game selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace cloudfog::p2p {

struct SocialGraphConfig {
  double skew = 0.5;          // power-law exponent of the degree distribution
  std::size_t min_friends = 1;
  std::size_t max_friends = 50;
};

/// Undirected friendship graph over `n` players (indices 0..n-1, n < 2^32),
/// stored as compressed sparse rows: two flat arrays, no per-player vector.
class SocialGraph {
 public:
  SocialGraph(std::size_t n, const SocialGraphConfig& config, util::Rng& rng);

  std::size_t size() const { return offsets_.size() - 1; }
  /// `player`'s friends in ascending order.
  std::span<const std::uint32_t> friends(std::size_t player) const;
  std::size_t degree(std::size_t player) const { return friends(player).size(); }

  bool are_friends(std::size_t a, std::size_t b) const;

  /// Mean degree over all players.
  double mean_degree() const;

 private:
  // Player i's friends are edges_[offsets_[i], offsets_[i + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> edges_;
};

}  // namespace cloudfog::p2p
