// Conservative-window shard coordinator — DESIGN.md §13.
//
// ShardCluster owns K independent slab event engines (sim::Simulator), a
// cross-shard InboxExchange and a BarrierPool, and advances all shards in
// lock step through conservative time windows (the CMB/null-message bound
// collapsed to its static special case):
//
//   while now < horizon:
//     bound = min(horizon, now + lookahead)
//     barrier round:  every shard runs its own engine to `bound`
//                     (run_before — events exactly AT the bound belong to
//                      the next window; the final round is run_until so
//                      horizon-edge events fire, exactly as in a
//                      single-shard run)
//     exchange:       drain the inboxes in canonical (when, src, seq)
//                     order into the destination engines; every message
//                     must land at or after `bound` (CF_CHECKed — the
//                     lookahead really was conservative)
//
// `lookahead` is the minimum latency any cross-shard message can carry
// (net::LatencyModel::min_route_ms() is the closed-form floor; the runner
// derives the actual bound from the supernode neighbor graph). An
// infinite lookahead — no cross-shard message edges at all — degenerates
// to a single window: embarrassingly parallel. A non-positive lookahead
// cannot synchronise anything; effective_shard_count collapses the run to
// one shard, which needs no windows.
//
// Observability: if a metrics registry is installed when the cluster is
// built, each shard gets a private registry installed (thread-locally) for
// the duration of its round tasks, and all K are merged into the parent in
// shard order after the run — same pattern as exec::RunExecutor.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "shard/barrier_pool.h"
#include "shard/inbox.h"
#include "sim/simulator.h"
#include "util/types.h"

namespace cloudfog::shard {

/// The shard count a run can actually sustain: `requested`, unless the
/// lookahead is non-positive (zero-lookahead degenerate case — nothing can
/// be ahead of anything, so only a single shard is sound).
std::size_t effective_shard_count(std::size_t requested, TimeMs lookahead);

class ShardCluster {
 public:
  /// `workers` == 0 resolves to exec::default_jobs(); the pool width is
  /// additionally capped at the shard count (idle workers help nobody).
  explicit ShardCluster(std::size_t shard_count, std::size_t workers = 0);

  std::size_t shard_count() const { return sims_.size(); }
  sim::Simulator& sim(std::size_t shard) { return *sims_[shard]; }

  /// Posts a cross-shard event (see InboxExchange::post for the producer
  /// contract). `when` is the absolute arrival time on `dst`.
  void post(std::size_t src, std::size_t dst, TimeMs when,
            sim::Simulator::Callback fn);

  /// Advances every shard to `horizon` in windows of `lookahead` ms
  /// (infinity = one window). Single-shot: one run per cluster. Messages
  /// still in flight at the horizon are dropped — a single engine equally
  /// never executes events past its run_until horizon.
  void run(TimeMs horizon, TimeMs lookahead);

 private:
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  InboxExchange inbox_;
  BarrierPool pool_;
  bool ran_ = false;
  obs::MetricsRegistry* parent_registry_ = nullptr;
  std::vector<obs::MetricsRegistry> shard_registries_;
};

}  // namespace cloudfog::shard
