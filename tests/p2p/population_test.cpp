#include "p2p/population.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace cloudfog::p2p {
namespace {

std::vector<NodeId> make_hosts(std::size_t n) {
  std::vector<NodeId> hosts(n);
  for (std::size_t i = 0; i < n; ++i) hosts[i] = static_cast<NodeId>(i + 100);
  return hosts;
}

TEST(Population, SizeAndHostMapping) {
  util::Rng rng(1);
  Population pop(make_hosts(50), PopulationConfig{}, rng);
  EXPECT_EQ(pop.size(), 50u);
  EXPECT_EQ(pop.player(0).host, 100u);
  EXPECT_EQ(pop.player(49).host, 149u);
}

TEST(Population, IndexOutOfRangeRejected) {
  util::Rng rng(1);
  Population pop(make_hosts(5), PopulationConfig{}, rng);
  EXPECT_THROW(pop.player(5), std::logic_error);
}

TEST(Population, SupernodeCapableFractionApproximate) {
  util::Rng rng(2);
  Population pop(make_hosts(10'000), PopulationConfig{}, rng);
  const auto capable = pop.supernode_capable_indices();
  // Paper: 10% of players have supernode capacity.
  EXPECT_NEAR(static_cast<double>(capable.size()) / 10'000.0, 0.10, 0.01);
}

TEST(Population, CapacityMeanMatchesPareto) {
  util::Rng rng(3);
  Population pop(make_hosts(50'000), PopulationConfig{}, rng);
  double total = 0.0;
  for (const auto& p : pop.players()) total += p.capacity;
  // Pareto with mean 5 (alpha = 1, truncated).
  EXPECT_NEAR(total / 50'000.0, 5.0, 0.5);
}

TEST(Population, CapacitiesPositive) {
  util::Rng rng(3);
  Population pop(make_hosts(1'000), PopulationConfig{}, rng);
  for (const auto& p : pop.players()) EXPECT_GT(p.capacity, 0.0);
}

TEST(Population, PlayTimeClassFractions) {
  util::Rng rng(4);
  Population pop(make_hosts(30'000), PopulationConfig{}, rng);
  int short_count = 0, medium_count = 0, long_count = 0;
  for (const auto& p : pop.players()) {
    switch (p.play_class) {
      case PlayTimeClass::kShort: ++short_count; break;
      case PlayTimeClass::kMedium: ++medium_count; break;
      case PlayTimeClass::kLong: ++long_count; break;
    }
  }
  // Paper: 50% / 30% / 20%.
  EXPECT_NEAR(short_count / 30'000.0, 0.5, 0.02);
  EXPECT_NEAR(medium_count / 30'000.0, 0.3, 0.02);
  EXPECT_NEAR(long_count / 30'000.0, 0.2, 0.02);
}

TEST(Population, PlayHoursWithinClassBounds) {
  util::Rng rng(5);
  Population pop(make_hosts(5'000), PopulationConfig{}, rng);
  for (const auto& p : pop.players()) {
    switch (p.play_class) {
      case PlayTimeClass::kShort:
        EXPECT_GT(p.daily_play_hours, 0.0);
        EXPECT_LE(p.daily_play_hours, 2.0);
        break;
      case PlayTimeClass::kMedium:
        EXPECT_GE(p.daily_play_hours, 2.0);
        EXPECT_LE(p.daily_play_hours, 5.0);
        break;
      case PlayTimeClass::kLong:
        EXPECT_GE(p.daily_play_hours, 5.0);
        EXPECT_LE(p.daily_play_hours, 24.0);
        break;
    }
  }
}

TEST(Population, ExpectedOnlineFractionMatchesClassMix) {
  util::Rng rng(6);
  Population pop(make_hosts(30'000), PopulationConfig{}, rng);
  // E[hours] = 0.5*1 + 0.3*3.5 + 0.2*14.5 = 4.45 -> fraction ~0.185.
  EXPECT_NEAR(pop.expected_online_fraction(), 0.185, 0.02);
}

TEST(Population, DeterministicForSameRngSeed) {
  util::Rng r1(7), r2(7);
  Population a(make_hosts(100), PopulationConfig{}, r1);
  Population b(make_hosts(100), PopulationConfig{}, r2);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.player(i).capacity, b.player(i).capacity);
    EXPECT_EQ(a.player(i).supernode_capable, b.player(i).supernode_capable);
    EXPECT_EQ(a.player(i).daily_play_hours, b.player(i).daily_play_hours);
  }
}

TEST(Population, ConfigurableSupernodeFraction) {
  util::Rng rng(8);
  PopulationConfig config;
  config.supernode_capable_fraction = 0.4;  // PlanetLab: 300 of 750
  Population pop(make_hosts(10'000), config, rng);
  EXPECT_NEAR(
      static_cast<double>(pop.supernode_capable_indices().size()) / 10'000.0,
      0.4, 0.02);
}

TEST(Population, InvalidConfigRejected) {
  util::Rng rng(9);
  PopulationConfig config;
  config.supernode_capable_fraction = 1.5;
  EXPECT_THROW(Population(make_hosts(10), config, rng), std::logic_error);
  PopulationConfig config2;
  config2.short_fraction = 0.8;
  config2.medium_fraction = 0.4;
  EXPECT_THROW(Population(make_hosts(10), config2, rng), std::logic_error);
}

// FNV-1a-style fold of one 64-bit word into a running hash.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull;
}

/// Hash of every profile field and of the generator's next draw.
std::uint64_t population_pin(const PopulationConfig& config, std::uint64_t seed) {
  util::Rng rng(seed);
  const Population pop(make_hosts(2'000), config, rng);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& p : pop.players()) {
    h = fold(h, std::bit_cast<std::uint64_t>(p.capacity));
    h = fold(h, p.supernode_capable ? 1u : 0u);
    h = fold(h, static_cast<std::uint64_t>(p.play_class));
    h = fold(h, std::bit_cast<std::uint64_t>(p.daily_play_hours));
  }
  return fold(h, rng());
}

// Pinned profile hashes for the paper's alpha = 1 capacities and for both
// other branches of the Pareto scale solve (alpha > 1 closed form, alpha < 1
// bisection): a faster sampler must draw bit-identical capacities.
TEST(Population, ProfilesMatchPinnedHashes) {
  struct Pin {
    double alpha;
    std::uint64_t seed, hash;
  };
  const Pin pins[] = {
      {1.0, 41, 0x5f2b3cac3590bb0aull},
      {1.5, 42, 0xf8cac7b3eba15a51ull},
      {0.8, 43, 0x3dbdd8d44322477full},
  };
  for (const Pin& p : pins) {
    PopulationConfig config;
    config.capacity_alpha = p.alpha;
    EXPECT_EQ(population_pin(config, p.seed), p.hash)
        << "alpha=" << p.alpha << " actual=0x" << std::hex
        << population_pin(config, p.seed);
  }
}

}  // namespace
}  // namespace cloudfog::p2p
