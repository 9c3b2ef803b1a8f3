// Persistent worker pool with round/barrier semantics — DESIGN.md §13.
//
// The shard runner executes many short rounds (one per conservative time
// window); spawning threads per round would dominate small windows, and
// exec::RunExecutor's run-a-batch-once shape does not fit a long-lived
// round loop. BarrierPool keeps `workers` threads alive for the cluster's
// lifetime: run_round(count, task) has the pool (calling thread included)
// claim task indices off a shared atomic cursor, runs them, and returns
// once all `count` tasks finished — a full barrier.
//
// With workers <= 1 no threads are ever created and rounds run inline on
// the caller — the sequential reference the parallel path is diffed
// against.
//
// Exceptions: the first failing task (lowest index) wins; its exception is
// rethrown from run_round after the barrier, the rest are swallowed —
// mirroring exec::RunExecutor's deterministic failure reporting.
//
// src/shard is, with src/exec, one of the two cflint-sanctioned raw-thread
// boundaries (rule `raw-thread`).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cloudfog::shard {

class BarrierPool {
 public:
  /// A pool of `workers` round participants (the run_round caller counts
  /// as one, so `workers - 1` threads are spawned; <= 1 means inline).
  explicit BarrierPool(std::size_t workers);
  ~BarrierPool();
  BarrierPool(const BarrierPool&) = delete;
  BarrierPool& operator=(const BarrierPool&) = delete;

  std::size_t workers() const { return threads_.size() + 1; }

  /// Runs task(0) .. task(count - 1) across the pool and returns when all
  /// have finished. Tasks must not call run_round re-entrantly. The pool
  /// only borrows `task` for the round, so any callable goes in unwrapped.
  template <typename Task>
  void run_round(std::size_t count, Task&& task) {
    using T = std::remove_reference_t<Task>;
    void* target =
        const_cast<void*>(static_cast<const void*>(std::addressof(task)));
    run_borrowed(count, TaskRef{target, [](void* t, std::size_t i) {
                                  (*static_cast<T*>(t))(i);
                                }});
  }

 private:
  /// A borrowed round task: the callable and how to invoke it.
  struct TaskRef {
    void* target = nullptr;
    void (*invoke)(void*, std::size_t) = nullptr;
    void operator()(std::size_t i) const { invoke(target, i); }
  };

  void run_borrowed(std::size_t count, TaskRef task);
  void worker_loop();
  /// Claims and runs tasks until the cursor passes count_.
  void work();

  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  TaskRef task_;  // the round's task; target is null between rounds
  // Atomic: a worker draining the tail of the previous round reads it
  // lock-free while the next round's setup rewrites it under the lock.
  std::atomic<std::size_t> count_{0};
  std::size_t completed_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::uint64_t round_id_ = 0;
  bool stop_ = false;
  std::size_t first_error_index_ = 0;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

}  // namespace cloudfog::shard
