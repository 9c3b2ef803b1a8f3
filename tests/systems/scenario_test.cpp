#include "systems/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

namespace cloudfog::systems {
namespace {

ScenarioParams small_params(std::uint64_t seed = 1) {
  ScenarioParams p = ScenarioParams::simulation_defaults(seed);
  p.num_players = 800;
  p.num_datacenters = 5;
  p.num_edge_servers = 6;
  p.num_supernodes = 50;
  return p;
}

TEST(Scenario, BuildCountsMatch) {
  Scenario s = Scenario::build(small_params());
  EXPECT_EQ(s.population().size(), 800u);
  EXPECT_EQ(s.datacenters().size(), 5u);
  EXPECT_EQ(s.edge_servers().size(), 6u);
  EXPECT_EQ(s.player_games().size(), 800u);
}

TEST(Scenario, SupernodesAreCapablePlayers) {
  Scenario s = Scenario::build(small_params());
  EXPECT_LE(s.supernode_players().size(), 50u);
  EXPECT_GT(s.supernode_players().size(), 10u);  // ~10% of 800 capable
  for (std::size_t sn : s.supernode_players()) {
    EXPECT_TRUE(s.population().player(sn).supernode_capable);
    EXPECT_TRUE(s.is_supernode_player(sn));
  }
}

TEST(Scenario, SupernodeSelectionCappedByCapablePool) {
  auto p = small_params();
  p.num_supernodes = 10'000;  // far more than capable players
  Scenario s = Scenario::build(p);
  EXPECT_LT(s.supernode_players().size(), 200u);
}

TEST(Scenario, NonSupernodePlayersFlaggedFalse) {
  Scenario s = Scenario::build(small_params());
  std::set<std::size_t> sns(s.supernode_players().begin(),
                            s.supernode_players().end());
  for (std::size_t i = 0; i < s.population().size(); ++i) {
    EXPECT_EQ(s.is_supernode_player(i), sns.contains(i));
  }
}

TEST(Scenario, EveryPlayerHasValidGame) {
  Scenario s = Scenario::build(small_params());
  for (std::size_t i = 0; i < s.population().size(); ++i) {
    const auto g = s.player_game(i);
    EXPECT_GE(g, 0);
    EXPECT_LT(g, static_cast<int>(game::game_catalog().size()));
  }
}

TEST(Scenario, GameMixIsDiverse) {
  // Friend-driven assignment must not collapse onto a single title.
  Scenario s = Scenario::build(small_params());
  std::vector<int> counts(game::game_catalog().size(), 0);
  for (auto g : s.player_games()) ++counts[static_cast<std::size_t>(g)];
  for (std::size_t g = 0; g < counts.size(); ++g) {
    EXPECT_GT(counts[g], 40) << "game " << g << " nearly extinct";
    EXPECT_LT(counts[g], 500) << "game " << g << " dominates";
  }
}

TEST(Scenario, SupernodeCapacityAtLeastOne) {
  Scenario s = Scenario::build(small_params());
  for (std::size_t sn : s.supernode_players()) {
    EXPECT_GE(s.supernode_capacity(sn), 1);
    EXPECT_DOUBLE_EQ(s.supernode_uplink_kbps(sn),
                     s.supernode_capacity(sn) *
                         s.params().supernode_kbps_per_slot);
  }
}

TEST(Scenario, DeterministicForSameSeed) {
  Scenario a = Scenario::build(small_params(9));
  Scenario b = Scenario::build(small_params(9));
  EXPECT_EQ(a.supernode_players(), b.supernode_players());
  EXPECT_EQ(a.player_games(), b.player_games());
}

TEST(Scenario, DifferentSeedsDiffer) {
  Scenario a = Scenario::build(small_params(1));
  Scenario b = Scenario::build(small_params(2));
  EXPECT_NE(a.player_games(), b.player_games());
}

TEST(Scenario, PlanetLabProfile) {
  ScenarioParams p = ScenarioParams::planetlab_defaults(3);
  p.num_players = 300;
  p.num_supernodes = 50;
  Scenario s = Scenario::build(p);
  EXPECT_EQ(s.datacenters().size(), 2u);
  const auto& topo = s.topology();
  EXPECT_NE(topo.host(s.datacenters()[0]).label.find("Princeton"),
            std::string::npos);
  EXPECT_EQ(s.edge_servers().size(), 8u);
  // PlanetLab: 300-of-750 capable scales to a 40% capable fraction.
  EXPECT_GT(s.supernode_players().size(), 20u);
}

TEST(Scenario, PlanetLabDatacenterSweepAddsSites) {
  ScenarioParams p = ScenarioParams::planetlab_defaults(3);
  p.num_players = 200;
  p.num_datacenters = 6;
  Scenario s = Scenario::build(p);
  EXPECT_EQ(s.datacenters().size(), 6u);
}

TEST(Scenario, SegmentPeriodFromFps) {
  ScenarioParams p = ScenarioParams::simulation_defaults();
  p.fps = 30.0;
  p.frames_per_segment = 3;
  EXPECT_NEAR(p.segment_period_ms(), 100.0, 1e-9);
}

TEST(Scenario, ForkRngIsDeterministicPerLabel) {
  Scenario s = Scenario::build(small_params(5));
  auto a = s.fork_rng("x");
  auto b = s.fork_rng("x");
  EXPECT_EQ(a(), b());
}

TEST(Scenario, RejectsDegenerateParams) {
  ScenarioParams p = small_params();
  p.num_players = 0;
  EXPECT_THROW(Scenario::build(p), std::logic_error);
}

// FNV-1a-style fold of one 64-bit word into a running hash.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull;
}

/// Hash of every player's game, the supernode set and the friend lists.
std::uint64_t scenario_pin(const ScenarioParams& params) {
  const Scenario s = Scenario::build(params);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (auto g : s.player_games()) h = fold(h, static_cast<std::uint64_t>(g));
  for (std::size_t sn : s.supernode_players()) h = fold(h, sn);
  for (std::size_t i = 0; i < s.social().size(); ++i) {
    for (auto f : s.social().friends(i)) h = fold(h, f);
  }
  return h;
}

// Pinned set-up outputs for both profiles: storage or sampler rewrites in
// Scenario::build must reproduce every game, supernode and friendship.
TEST(Scenario, BuildMatchesPinnedHashes) {
  EXPECT_EQ(scenario_pin(small_params(1)), 0xa11af755ef286b24ull)
      << std::hex << scenario_pin(small_params(1));
  ScenarioParams pl = ScenarioParams::planetlab_defaults(3);
  pl.num_players = 300;
  pl.num_supernodes = 50;
  EXPECT_EQ(scenario_pin(pl), 0xa3c556a92f1c6399ull) << std::hex << scenario_pin(pl);
}

}  // namespace
}  // namespace cloudfog::systems
