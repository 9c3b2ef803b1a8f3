// On-node down-ladder transcoding — DESIGN.md §11.
//
// A supernode holding a cached higher-quality variant of a segment can
// synthesise a lower ladder level locally instead of pulling the variant
// over the cloud's uplink. The CPU cost is modelled as a sim-time delay
// proportional to the output size drawn from the quality ladder (bitrate ×
// duration), plus a fixed per-job setup cost — the same linear shape
// Stimpack uses to trade server resources against QoE.
//
// Jobs (transcodes AND cloud fetches — any deferred cache delivery) are
// scheduled on the slab event engine and tracked per owning supernode, so
// a supernode leaving the system cancels every in-flight job it owns via
// the engine's O(1) generation-tagged cancel. Nothing a departed node
// started may fire afterwards — the churn contract tests pin this.
//
// Owners are dense indexes (the cache service passes its supernode slots).
// A job lives in a slab record threaded onto its owner's intrusive list,
// and the engine event captures only (this, job slot), so once the slab
// and the owner table have grown, scheduling, completing and cancelling a
// job allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "util/small_function.h"
#include "util/types.h"

namespace cloudfog::cache {

/// Linear CPU-cost model of a down-ladder transcode.
struct TranscodeModel {
  TimeMs base_ms = 2.0;             // per-job setup (decode state, context)
  double ms_per_kbit = 0.01;        // encode throughput, output-size scaled

  /// Modelled sim-time delay to synthesise an output of `out_kbit`.
  TimeMs delay_ms(Kbit out_kbit) const {
    return base_ms + ms_per_kbit * out_kbit;
  }
};

/// Schedules deferred cache work (transcodes, cloud fetches) on the event
/// engine with per-owner cancellation.
class Transcoder {
 public:
  /// Inline capture budget of a job: the service's deferred delivery (its
  /// DeliverFn plus the slot, key and size it admits) must fit.
  static constexpr std::size_t kJobCapacity = 160;
  using Callback = util::small_function<void(), kJobCapacity>;

  Transcoder(sim::Simulator& sim, TranscodeModel model);
  // Scheduled job events hold `this`.
  Transcoder(const Transcoder&) = delete;
  Transcoder& operator=(const Transcoder&) = delete;

  const TranscodeModel& model() const { return model_; }

  /// Runs `done` after `delay_ms` of sim time on behalf of `owner`, a dense
  /// index. Returns the engine handle.
  sim::EventId schedule(std::uint32_t owner, TimeMs delay_ms, Callback done);

  /// Cancels every in-flight job of `owner` through the slab engine's O(1)
  /// cancel, in scheduling order; returns how many were still pending.
  std::size_t cancel_owner(std::uint32_t owner);

  /// Jobs of `owner` still pending.
  std::size_t in_flight(std::uint32_t owner) const;
  /// Jobs pending across all owners.
  std::size_t in_flight_total() const { return in_flight_total_; }
  std::uint64_t jobs_started() const { return jobs_started_; }
  std::uint64_t jobs_completed() const { return jobs_completed_; }
  std::uint64_t jobs_cancelled() const { return jobs_cancelled_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Job {
    Callback done;
    sim::EventId event = sim::kInvalidEvent;
    std::uint32_t owner = kNil;
    std::uint32_t prev = kNil;  // toward the owner's oldest job
    std::uint32_t next = kNil;
  };
  struct OwnerJobs {
    std::uint32_t head = kNil;  // oldest
    std::uint32_t tail = kNil;
    std::uint32_t count = 0;
  };

  void fire(std::uint32_t job);
  void unlink(std::uint32_t job);

  sim::Simulator& sim_;
  TranscodeModel model_;
  std::vector<Job> jobs_;
  std::vector<std::uint32_t> free_jobs_;
  std::vector<OwnerJobs> owners_;  // by owner index, grown on demand
  std::size_t in_flight_total_ = 0;
  std::uint64_t jobs_started_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_cancelled_ = 0;
};

}  // namespace cloudfog::cache
