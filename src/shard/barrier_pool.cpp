#include "shard/barrier_pool.h"

#include <limits>

#include "util/check.h"

namespace cloudfog::shard {

BarrierPool::BarrierPool(std::size_t workers) {
  if (workers <= 1) return;  // inline mode: no threads, ever
  threads_.reserve(workers - 1);
  for (std::size_t i = 0; i + 1 < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

BarrierPool::~BarrierPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BarrierPool::run_borrowed(std::size_t count, TaskRef task) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(m_);
    CF_CHECK_MSG(task_.target == nullptr, "run_round must not be re-entered");
    task_ = task;
    count_ = count;
    completed_ = 0;
    first_error_index_ = std::numeric_limits<std::size_t>::max();
    error_ = nullptr;
    ++round_id_;
    // Reset last, under the lock: a stale worker that races ahead of the
    // notify sees a fully initialised round when it claims index 0.
    cursor_.store(0);
  }
  cv_work_.notify_all();
  work();  // the caller is a pool participant
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(m_);
    cv_done_.wait(lock, [this] { return completed_ == count_; });
    task_ = TaskRef{};
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

void BarrierPool::work() {
  for (;;) {
    const std::size_t i = cursor_.fetch_add(1);
    if (i >= count_) return;
    std::exception_ptr caught;
    try {
      task_(i);
    } catch (...) {
      caught = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(m_);
    if (caught && i < first_error_index_) {
      first_error_index_ = i;
      error_ = caught;
    }
    if (++completed_ == count_) cv_done_.notify_all();
  }
}

void BarrierPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_work_.wait(lock, [&] { return stop_ || round_id_ != seen; });
      if (stop_) return;
      seen = round_id_;
    }
    work();
  }
}

}  // namespace cloudfog::shard
