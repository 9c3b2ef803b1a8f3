// Parallel experiment executor (DESIGN.md §9).
//
// The unit of work in this repo is the *sweep*: a figure binary evaluates a
// grid of independent (config, seed) runs, each a deterministic function of
// its inputs, then aggregates. RunExecutor fans such runs across a
// fixed-size worker pool while preserving the sequential contract:
//
//   * Results are consumed strictly in submission order, never completion
//     order — callers write each run's result into its own pre-allocated
//     slot and aggregate after the pool barrier, so every printed table,
//     QoE digest and BENCH_*.json is bit-identical at any --jobs value.
//   * jobs == 1 is the exact old code path: runs execute inline on the
//     calling thread, no worker threads are spawned, no per-run metric
//     registries are created and exceptions propagate unwrapped.
//   * Observability: when the submitting thread has a metrics registry
//     installed, each parallel run executes under its own registry
//     (installed thread-locally for the run's duration) and the per-run
//     snapshots are merged into the submitter's registry after the
//     barrier, run-by-run in submission order (obs::MetricsRegistry::
//     merge_from) — counters, peaks and histogram buckets land exactly as
//     a sequential execution would leave them.
//   * A worker exception is captured with the run's identity (submission
//     index + label, e.g. "seed=3 config=70ms") and rethrown on the caller
//     as exec::RunError after every in-flight run finished.
//
// Runs must be self-contained: closures may not share mutable state (the
// sweeps build each run's Scenario *inside* its closure) and must not
// touch stdout/stderr; print from aggregation, after execute() returns.
//
// src/exec and src/shard are the only places in the repo allowed to create
// threads (scripts/cflint, rule `raw-thread`): run-parallelism fans through
// RunExecutor here, space-parallelism through shard::BarrierPool.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cloudfog::exec {

/// Worker-pool width to use when the caller does not specify one:
/// CLOUDFOG_BENCH_JOBS (validated, one stderr warning on garbage) if set,
/// else std::thread::hardware_concurrency() (minimum 1).
std::size_t default_jobs();

/// A worker run failed: carries the run's submission index and label; the
/// what() string embeds both plus the original exception's message.
class RunError : public std::runtime_error {
 public:
  RunError(std::size_t index, std::string label, const std::string& cause);

  std::size_t run_index() const { return index_; }
  const std::string& run_label() const { return label_; }

 private:
  std::size_t index_;
  std::string label_;
};

class RunExecutor {
 public:
  /// One unit of independent work. `fn` writes its result into caller-owned
  /// storage dedicated to this run; `label` is the (seed, config) identity
  /// attached to exceptions.
  struct Run {
    std::string label;
    std::function<void()> fn;
  };

  /// `jobs` == 0 resolves to default_jobs().
  explicit RunExecutor(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }

  /// Executes every run and returns after all have finished (the barrier).
  /// With jobs()==1 (or a single run) this is a plain sequential loop on
  /// the calling thread. Otherwise runs are claimed from an atomic cursor
  /// by min(jobs, runs.size()) workers; the first failed submission index
  /// is rethrown as RunError once the pool has joined, after the per-run
  /// registry snapshots of every run up to and including the failed one
  /// have been merged (the sequential path would have recorded exactly
  /// those).
  void execute(std::vector<Run> runs);

  /// Typed fan-out: runs every task and returns the results ordered by
  /// submission index, never completion order.
  template <typename R>
  std::vector<R> map(std::vector<std::pair<std::string, std::function<R()>>> tasks) {
    std::vector<std::optional<R>> slots(tasks.size());
    std::vector<Run> runs;
    runs.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      runs.push_back(Run{std::move(tasks[i].first),
                         [&slots, i, fn = std::move(tasks[i].second)] {
                           slots[i].emplace(fn());
                         }});
    }
    execute(std::move(runs));
    std::vector<R> out;
    out.reserve(slots.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  std::size_t jobs_;
};

}  // namespace cloudfog::exec
