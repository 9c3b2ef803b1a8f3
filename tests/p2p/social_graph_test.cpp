#include "p2p/social_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

namespace cloudfog::p2p {
namespace {

TEST(SocialGraph, EveryPlayerHasMinimumDegree) {
  util::Rng rng(1);
  SocialGraph graph(500, SocialGraphConfig{}, rng);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    EXPECT_GE(graph.degree(i), 1u);
  }
}

TEST(SocialGraph, DegreeCapRespected) {
  util::Rng rng(2);
  SocialGraphConfig config;
  config.max_friends = 20;
  SocialGraph graph(500, config, rng);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    EXPECT_LE(graph.degree(i), 25u);  // cap + patch-up attachments
  }
}

TEST(SocialGraph, UndirectedAndConsistent) {
  util::Rng rng(3);
  SocialGraph graph(300, SocialGraphConfig{}, rng);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    for (std::size_t f : graph.friends(i)) {
      EXPECT_TRUE(graph.are_friends(f, i)) << i << " <-> " << f;
    }
  }
}

TEST(SocialGraph, NoSelfLoops) {
  util::Rng rng(4);
  SocialGraph graph(300, SocialGraphConfig{}, rng);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    EXPECT_FALSE(graph.are_friends(i, i));
  }
}

TEST(SocialGraph, NoDuplicateEdges) {
  util::Rng rng(5);
  SocialGraph graph(300, SocialGraphConfig{}, rng);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto& friends = graph.friends(i);
    std::set<std::size_t> unique(friends.begin(), friends.end());
    EXPECT_EQ(unique.size(), friends.size());
  }
}

TEST(SocialGraph, PowerLawSkewsDegrees) {
  util::Rng rng(6);
  SocialGraph graph(5'000, SocialGraphConfig{}, rng);
  int low = 0, high = 0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    if (graph.degree(i) <= 5) ++low;
    if (graph.degree(i) >= 40) ++high;
  }
  EXPECT_GT(low, high);  // skew 0.5: small degrees more common
  EXPECT_GT(high, 0);    // but a heavy tail exists
}

TEST(SocialGraph, MeanDegreeReasonable) {
  util::Rng rng(7);
  SocialGraph graph(2'000, SocialGraphConfig{}, rng);
  EXPECT_GT(graph.mean_degree(), 2.0);
  EXPECT_LT(graph.mean_degree(), 40.0);
}

TEST(SocialGraph, TinyGraphs) {
  util::Rng rng(8);
  SocialGraph empty(0, SocialGraphConfig{}, rng);
  EXPECT_EQ(empty.size(), 0u);
  SocialGraph single(1, SocialGraphConfig{}, rng);
  EXPECT_EQ(single.degree(0), 0u);  // nobody to befriend
  SocialGraph pair(2, SocialGraphConfig{}, rng);
  EXPECT_TRUE(pair.are_friends(0, 1));
}

TEST(SocialGraph, DeterministicForSameSeed) {
  util::Rng r1(9), r2(9);
  SocialGraph a(200, SocialGraphConfig{}, r1);
  SocialGraph b(200, SocialGraphConfig{}, r2);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(std::ranges::equal(a.friends(i), b.friends(i))) << i;
  }
}

TEST(SocialGraph, OutOfRangeRejected) {
  util::Rng rng(10);
  SocialGraph graph(10, SocialGraphConfig{}, rng);
  EXPECT_THROW(graph.friends(10), std::logic_error);
}

TEST(SocialGraph, InvalidConfigRejected) {
  util::Rng rng(11);
  SocialGraphConfig config;
  config.min_friends = 0;
  EXPECT_THROW(SocialGraph(10, config, rng), std::logic_error);
  SocialGraphConfig config2;
  config2.min_friends = 10;
  config2.max_friends = 5;
  EXPECT_THROW(SocialGraph(10, config2, rng), std::logic_error);
}

// FNV-1a-style fold of one 64-bit word into a running hash.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull;
}

/// Hash of the adjacency (every degree, then every sorted row) and of the
/// generator's next draw, so an extra or missing draw also moves it.
std::uint64_t graph_pin(std::size_t n, const SocialGraphConfig& config,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  const SocialGraph graph(n, config, rng);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    h = fold(h, graph.degree(i));
    for (auto f : graph.friends(i)) h = fold(h, f);
  }
  return fold(h, rng());
}

// Pinned adjacency hashes: a rewrite of the graph's storage must keep every
// edge and every draw. At n = 300 and 5 000 stub pairing alone meets even
// min_friends = 3; the small dense configurations are the ones that take
// the min-degree fix-up path, with draws that land on an existing friend.
TEST(SocialGraph, AdjacencyMatchesPinnedHashes) {
  struct Pin {
    std::size_t n, min_friends, max_friends;
    std::uint64_t seed, hash;
  };
  const Pin pins[] = {
      {2, 1, 50, 31, 0x858704aaf4e9f234ull},
      {300, 1, 50, 32, 0x6ba0f23f36611b03ull},
      {300, 3, 50, 33, 0xffa720b75239d7c2ull},
      {5'000, 1, 50, 34, 0x5e23edf1fcd89b76ull},
      {5'000, 3, 50, 35, 0x7113d08e1643041eull},
      {6, 3, 4, 1, 0x9f1293efac7b070eull},
      {8, 4, 5, 1, 0xcd0018d1c9a62ba8ull},
      {12, 5, 6, 5, 0x52fe29a8598c75e7ull},
  };
  for (const Pin& p : pins) {
    SocialGraphConfig config;
    config.min_friends = p.min_friends;
    config.max_friends = p.max_friends;
    EXPECT_EQ(graph_pin(p.n, config, p.seed), p.hash)
        << "n=" << p.n << " min_friends=" << p.min_friends << " actual=0x"
        << std::hex << graph_pin(p.n, config, p.seed);
  }
}

TEST(SocialGraph, MinFriendsAboveWhatTwoPlayersAllowIsRejected) {
  // Two players can have one friend each; the degree draw rejects 3.
  util::Rng rng(38);
  SocialGraphConfig config;
  config.min_friends = 3;
  EXPECT_THROW(SocialGraph(2, config, rng), std::logic_error);
}

}  // namespace
}  // namespace cloudfog::p2p
