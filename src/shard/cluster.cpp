#include "shard/cluster.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/run_executor.h"
#include "util/check.h"

namespace cloudfog::shard {

std::size_t effective_shard_count(std::size_t requested, TimeMs lookahead) {
  CF_CHECK_GE(requested, std::size_t{1});
  return lookahead > 0.0 ? requested : 1;
}

ShardCluster::ShardCluster(std::size_t shard_count, std::size_t workers)
    : inbox_(shard_count),
      pool_(std::min(shard_count,
                     workers == 0 ? exec::default_jobs() : workers)),
      parent_registry_(obs::registry()) {
  CF_CHECK_GE(shard_count, std::size_t{1});
  sims_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    sims_.push_back(std::make_unique<sim::Simulator>());
  }
  if (parent_registry_ != nullptr) {
    shard_registries_ = std::vector<obs::MetricsRegistry>(shard_count);
  }
}

void ShardCluster::post(std::size_t src, std::size_t dst, TimeMs when,
                        sim::Simulator::Callback fn) {
  inbox_.post(src, dst, when, std::move(fn));
}

void ShardCluster::run(TimeMs horizon, TimeMs lookahead) {
  CF_CHECK_MSG(!ran_, "a ShardCluster runs exactly once");
  ran_ = true;
  CF_CHECK_GT(lookahead, 0.0);  // <= 0 must collapse via effective_shard_count
  for (;;) {
    const TimeMs now = sims_[0]->now();
    const bool final_round =
        !(std::isfinite(lookahead) && now + lookahead < horizon);
    const TimeMs bound = final_round ? horizon : now + lookahead;
    pool_.run_round(sims_.size(), [&](std::size_t s) {
      // Per-shard thread-scoped registry: the engines' hot counters land
      // in shard-private storage, merged below once the run completes.
      if (parent_registry_ != nullptr) {
        obs::ScopedRegistry scoped(shard_registries_[s]);
        final_round ? sims_[s]->run_until(bound) : sims_[s]->run_before(bound);
      } else {
        final_round ? sims_[s]->run_until(bound) : sims_[s]->run_before(bound);
      }
    });
    for (std::size_t dst = 0; dst < sims_.size(); ++dst) {
      for (InboxMessage& m : inbox_.drain(dst)) {
        // The conservative contract: nothing posted during a window may
        // land inside it. At the horizon the message is simply dropped —
        // past-the-end events never execute in a single engine either.
        CF_CHECK_MSG(m.when >= bound,
                     "cross-shard message beat the lookahead window");
        if (final_round) continue;
        sims_[dst]->schedule_at(m.when, std::move(m.fn));
      }
    }
    if (final_round) break;
  }
  if (parent_registry_ != nullptr) {
    for (const obs::MetricsRegistry& r : shard_registries_) {
      parent_registry_->merge_from(r);
    }
  }
}

}  // namespace cloudfog::shard
