// Generic seed×config sweep fan-out on top of RunExecutor.
//
// run_sweep evaluates `fn(config, seed_index)` for every (config, seed)
// pair of a grid and returns the results indexed [config][seed] — the
// submission order is config-major, seed-minor, exactly the nesting the
// sequential figure binaries used, so aggregating the returned grid in
// index order reproduces the sequential accumulation term for term.
//
// `fn` must be a pure function of its two arguments (plus immutable
// captures): it runs concurrently with other pairs at jobs > 1. Build
// Scenarios and other per-run state inside `fn`.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/run_executor.h"

namespace cloudfog::exec {

/// Label for one grid cell, attached to worker exceptions.
inline std::string sweep_label(std::size_t config_index, std::size_t seed) {
  return "config=" + std::to_string(config_index) +
         " seed=" + std::to_string(seed);
}

template <typename Config, typename Fn>
auto run_sweep(RunExecutor& executor, const std::vector<Config>& configs,
               std::size_t seeds, Fn&& fn)
    -> std::vector<std::vector<decltype(fn(configs.front(), std::size_t{}))>> {
  using R = decltype(fn(configs.front(), std::size_t{}));
  std::vector<std::pair<std::string, std::function<R()>>> tasks;
  tasks.reserve(configs.size() * seeds);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (std::size_t s = 0; s < seeds; ++s) {
      tasks.emplace_back(sweep_label(c, s),
                         [&fn, &config = configs[c], s] { return fn(config, s); });
    }
  }
  std::vector<R> flat = executor.map(std::move(tasks));
  std::vector<std::vector<R>> grid;
  grid.reserve(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    std::vector<R> row;
    row.reserve(seeds);
    for (std::size_t s = 0; s < seeds; ++s) {
      row.push_back(std::move(flat[c * seeds + s]));
    }
    grid.push_back(std::move(row));
  }
  return grid;
}

}  // namespace cloudfog::exec
