#include "systems/coverage.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "p2p/churn.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace cloudfog::systems {

namespace {

/// Per-player precomputed latencies: prefix-min RTT to the first k
/// datacenters, and the sorted (rtt, supernode slot) candidate list.
struct PlayerGeometry {
  std::vector<TimeMs> dc_prefix_min_rtt;              // index k-1 = best of first k
  std::vector<std::pair<TimeMs, std::size_t>> sn_rtt; // ascending rtt; slot = index into supernode_players()
};

PlayerGeometry compute_geometry(const Scenario& scenario, std::size_t pop_index,
                                const std::vector<NodeId>& dcs) {
  const net::Topology& topo = scenario.topology();
  const NodeId host = scenario.player_host(pop_index);
  PlayerGeometry g;
  g.dc_prefix_min_rtt.reserve(dcs.size());
  TimeMs best = std::numeric_limits<TimeMs>::max();
  for (NodeId dc : dcs) {
    best = std::min(best, topo.expected_rtt_ms(host, dc));
    g.dc_prefix_min_rtt.push_back(best);
  }
  const auto& sns = scenario.supernode_players();
  g.sn_rtt.reserve(sns.size());
  for (std::size_t slot = 0; slot < sns.size(); ++slot) {
    const NodeId sn_host = scenario.player_host(sns[slot]);
    g.sn_rtt.emplace_back(topo.expected_server_rtt_ms(sn_host, host), slot);
  }
  std::sort(g.sn_rtt.begin(), g.sn_rtt.end());
  return g;
}

}  // namespace

CoverageResult measure_coverage(const Scenario& scenario,
                                const CoverageConfig& config) {
  const auto& dcs = scenario.datacenters();
  CF_CHECK_MSG(!config.datacenter_counts.empty() &&
                   !config.supernode_counts.empty() &&
                   !config.latency_requirements.empty(),
               "coverage sweep axes must be non-empty");
  CF_CHECK_MSG(*std::max_element(config.datacenter_counts.begin(),
                                 config.datacenter_counts.end()) <= dcs.size(),
               "scenario has fewer datacenters than the sweep needs");
  CF_CHECK_MSG(*std::max_element(config.supernode_counts.begin(),
                                 config.supernode_counts.end()) <=
                   scenario.supernode_players().size(),
               "scenario has fewer supernodes than the sweep needs");
  CF_CHECK_MSG(config.base_datacenters >= 1 &&
                   config.base_datacenters <= dcs.size(),
               "base datacenter count out of range");
  CF_CHECK_MSG(config.samples >= 1, "need at least one snapshot");

  // Drive churn to collect online-population snapshots.
  sim::Simulator sim;
  p2p::ChurnProcess churn(sim, scenario.population(), &scenario.social(),
                          p2p::ChurnConfig{}, scenario.fork_rng("coverage-churn"));
  churn.start();
  sim.run_until(config.warmup_ms);

  std::vector<std::vector<std::size_t>> snapshots;
  for (std::size_t s = 0; s < config.samples; ++s) {
    snapshots.push_back(churn.online_players());
    sim.run_until(sim.now() + config.sample_interval_ms);
  }

  // Geometry cache, filled lazily for players that appear in any snapshot.
  std::vector<PlayerGeometry> geometry(scenario.population().size());
  std::vector<bool> have_geometry(scenario.population().size(), false);
  auto geo = [&](std::size_t p) -> const PlayerGeometry& {
    if (!have_geometry[p]) {
      geometry[p] = compute_geometry(scenario, p, dcs);
      have_geometry[p] = true;
    }
    return geometry[p];
  };

  CoverageResult result;
  result.dc_sweep.assign(config.datacenter_counts.size(),
                         std::vector<double>(config.latency_requirements.size(), 0.0));
  result.sn_sweep.assign(config.supernode_counts.size(),
                         std::vector<double>(config.latency_requirements.size(), 0.0));

  util::Rng order_rng = scenario.fork_rng("coverage-order");
  double online_total = 0.0;

  for (const auto& online : snapshots) {
    online_total += static_cast<double>(online.size());
    if (online.empty()) continue;
    const double denom = static_cast<double>(online.size());

    // --- datacenter sweep (no capacity limits) ---------------------------
    for (std::size_t di = 0; di < config.datacenter_counts.size(); ++di) {
      const std::size_t k = config.datacenter_counts[di];
      for (std::size_t ri = 0; ri < config.latency_requirements.size(); ++ri) {
        const TimeMs req = config.latency_requirements[ri];
        std::size_t covered = 0;
        for (std::size_t p : online) {
          if (geo(p).dc_prefix_min_rtt[k - 1] <= req) ++covered;
        }
        result.dc_sweep[di][ri] +=
            static_cast<double>(covered) / denom / static_cast<double>(config.samples);
      }
    }

    // --- supernode sweep (base DCs + first m supernodes, with capacity) --
    for (std::size_t si = 0; si < config.supernode_counts.size(); ++si) {
      const std::size_t m = config.supernode_counts[si];
      for (std::size_t ri = 0; ri < config.latency_requirements.size(); ++ri) {
        const TimeMs req = config.latency_requirements[ri];
        // Remaining capacity of each of the first m supernodes.
        std::vector<int> slots(m);
        for (std::size_t j = 0; j < m; ++j) {
          slots[j] =
              scenario.supernode_capacity(scenario.supernode_players()[j]);
        }
        // Greedy assignment in randomized player order.
        std::vector<std::size_t> order = online;
        order_rng.shuffle(order);
        std::size_t covered = 0;
        for (std::size_t p : order) {
          const PlayerGeometry& g = geo(p);
          if (g.dc_prefix_min_rtt[config.base_datacenters - 1] <= req) {
            ++covered;
            continue;
          }
          for (const auto& [rtt, slot] : g.sn_rtt) {
            if (rtt > req) break;  // sorted: no further candidate qualifies
            if (slot < m && slots[slot] > 0) {
              --slots[slot];
              ++covered;
              break;
            }
          }
        }
        result.sn_sweep[si][ri] +=
            static_cast<double>(covered) / denom / static_cast<double>(config.samples);
      }
    }
  }
  result.mean_online = online_total / static_cast<double>(config.samples);
  return result;
}

CoverageSweepOutcome measure_coverage_averaged(
    const std::vector<ScenarioParams>& seed_params, CoverageConfig config,
    exec::RunExecutor& executor) {
  CF_CHECK_MSG(!seed_params.empty(), "need at least one seed");

  // Phase 1 — build one scenario per seed, each inside its own run.
  using ScenarioPtr = std::shared_ptr<const Scenario>;
  std::vector<std::pair<std::string, std::function<ScenarioPtr()>>> builds;
  builds.reserve(seed_params.size());
  for (const ScenarioParams& p : seed_params) {
    builds.emplace_back("scenario seed=" + std::to_string(p.seed), [p] {
      return std::make_shared<const Scenario>(Scenario::build(p));
    });
  }
  const std::vector<ScenarioPtr> scenarios = executor.map(std::move(builds));

  // Clamp the sweep to the smallest capable pool any seed produced, so the
  // axis (and the printed rows) is identical across seeds.
  if (!config.supernode_counts.empty()) {
    std::size_t pool = scenarios.front()->supernode_players().size();
    for (const ScenarioPtr& s : scenarios) {
      pool = std::min(pool, s->supernode_players().size());
    }
    if (config.supernode_counts.back() > pool) {
      config.supernode_counts.back() = pool;
    }
  }

  // Phase 2 — per-seed coverage; each scenario is consumed by exactly one
  // run, so nothing mutable is shared across workers.
  std::vector<std::pair<std::string, std::function<CoverageResult()>>> tasks;
  tasks.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    tasks.emplace_back(
        "coverage seed=" + std::to_string(seed_params[i].seed),
        [scenario = scenarios[i], &config] {
          return measure_coverage(*scenario, config);
        });
  }
  const std::vector<CoverageResult> per_seed = executor.map(std::move(tasks));

  // Element-wise mean, accumulated in seed (submission) order.
  const double denom = static_cast<double>(per_seed.size());
  CoverageSweepOutcome out;
  out.effective = config;
  out.mean.dc_sweep.assign(
      config.datacenter_counts.size(),
      std::vector<double>(config.latency_requirements.size(), 0.0));
  out.mean.sn_sweep.assign(
      config.supernode_counts.size(),
      std::vector<double>(config.latency_requirements.size(), 0.0));
  for (const CoverageResult& r : per_seed) {
    for (std::size_t i = 0; i < out.mean.dc_sweep.size(); ++i) {
      for (std::size_t j = 0; j < out.mean.dc_sweep[i].size(); ++j) {
        out.mean.dc_sweep[i][j] += r.dc_sweep[i][j] / denom;
      }
    }
    for (std::size_t i = 0; i < out.mean.sn_sweep.size(); ++i) {
      for (std::size_t j = 0; j < out.mean.sn_sweep[i].size(); ++j) {
        out.mean.sn_sweep[i][j] += r.sn_sweep[i][j] / denom;
      }
    }
    out.mean.mean_online += r.mean_online / denom;
  }
  return out;
}

}  // namespace cloudfog::systems
