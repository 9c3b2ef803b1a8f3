// The latency model is a pure function of (params, endpoints), so one const
// Topology may be read from many threads at once (DESIGN.md §8.2). This test
// pins that contract: four exec::RunExecutor workers read one shared
// topology over the same pairs and must reproduce a sequential pass bit for
// bit. Under the tsan preset it also proves the reads race on nothing; CI's
// tsan job selects it by name.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/run_executor.h"
#include "net/topology.h"
#include "util/rng.h"

namespace cloudfog::net {
namespace {

/// One pair's expected one-way latency, loss probability and one sample of
/// its resolved path, as raw bit patterns.
using PairBits = std::array<std::uint64_t, 3>;

std::vector<PairBits> evaluate(
    const Topology& topo,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::vector<PairBits> out;
  out.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    util::Rng rng(i);
    out.push_back({std::bit_cast<std::uint64_t>(topo.expected_one_way_ms(a, b)),
                   std::bit_cast<std::uint64_t>(topo.loss_probability(a, b)),
                   std::bit_cast<std::uint64_t>(
                       topo.path(a, b).sample(rng, topo.jitter_sigma()))});
  }
  return out;
}

TEST(SharedTopology, ConcurrentReadsMatchASequentialPass) {
  PlacementConfig config;
  config.num_players = 2'000;
  config.num_datacenters = 5;
  const Topology topo =
      build_topology(config, LatencyParams::simulation_profile(9));

  // Repeated and reversed pairs included: the same pair seen twice, from
  // either end, must give the same bits every time.
  util::Rng rng(21);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 20'000; ++i) {
    const auto a = static_cast<NodeId>(rng.index(topo.size()));
    const auto b = static_cast<NodeId>(rng.index(topo.size()));
    pairs.emplace_back(a, b);
    if (i % 4 == 0) pairs.emplace_back(b, a);
  }

  const std::vector<PairBits> sequential = evaluate(topo, pairs);

  constexpr std::size_t kWorkers = 4;
  exec::RunExecutor executor(kWorkers);
  std::vector<std::pair<std::string, std::function<std::vector<PairBits>()>>>
      tasks;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    tasks.emplace_back("worker " + std::to_string(w),
                       [&topo, &pairs] { return evaluate(topo, pairs); });
  }
  const std::vector<std::vector<PairBits>> parallel =
      executor.map(std::move(tasks));

  ASSERT_EQ(parallel.size(), kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(parallel[w].size(), sequential.size()) << "worker " << w;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      ASSERT_EQ(parallel[w][i], sequential[i])
          << "worker " << w << ", pair " << pairs[i].first << "-"
          << pairs[i].second;
    }
  }
}

}  // namespace
}  // namespace cloudfog::net
