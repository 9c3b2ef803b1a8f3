#include "cache/transcoder.h"

#include <utility>

#include "util/check.h"

namespace cloudfog::cache {

Transcoder::Transcoder(sim::Simulator& sim, TranscodeModel model)
    : sim_(sim), model_(model) {
  CF_CHECK_MSG(model.base_ms >= 0.0, "transcode base cost must be >= 0");
  CF_CHECK_MSG(model.ms_per_kbit >= 0.0, "transcode rate cost must be >= 0");
}

sim::EventId Transcoder::schedule(std::uint32_t owner, TimeMs delay_ms,
                                  Callback done) {
  CF_CHECK_MSG(owner != kNil, "transcode job needs an owning node");
  CF_CHECK_MSG(delay_ms >= 0.0, "transcode delay must be >= 0");
  CF_CHECK_MSG(static_cast<bool>(done), "transcode job needs a completion");
  std::uint32_t job = 0;
  if (free_jobs_.empty()) {
    job = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
  } else {
    job = free_jobs_.back();
    free_jobs_.pop_back();
  }
  if (owner >= owners_.size()) owners_.resize(std::size_t{owner} + 1);
  OwnerJobs& list = owners_[owner];
  Job& j = jobs_[job];
  j.done = std::move(done);
  j.owner = owner;
  j.prev = list.tail;
  j.next = kNil;
  if (list.tail == kNil) {
    list.head = job;
  } else {
    jobs_[list.tail].next = job;
  }
  list.tail = job;
  ++list.count;
  ++jobs_started_;
  ++in_flight_total_;
  j.event = sim_.schedule_after(delay_ms, [this, job] { fire(job); });
  return j.event;
}

void Transcoder::fire(std::uint32_t job) {
  unlink(job);
  ++jobs_completed_;
  --in_flight_total_;
  // Out of the slab before it runs: the completion may schedule jobs of its
  // own, which may grow the slab or take this record.
  Callback done = std::move(jobs_[job].done);
  free_jobs_.push_back(job);
  done();
}

std::size_t Transcoder::cancel_owner(std::uint32_t owner) {
  if (owner >= owners_.size()) return 0;
  OwnerJobs& list = owners_[owner];
  const std::size_t pending = list.count;
  std::size_t cancelled = 0;
  for (std::uint32_t job = list.head; job != kNil;) {
    Job& j = jobs_[job];
    if (sim_.cancel(j.event)) ++cancelled;
    j.done = nullptr;
    free_jobs_.push_back(job);
    job = j.next;
  }
  CF_CHECK_MSG(cancelled == pending,
               "tracked job list out of sync with the event engine");
  list = OwnerJobs{};
  jobs_cancelled_ += cancelled;
  in_flight_total_ -= cancelled;
  return cancelled;
}

std::size_t Transcoder::in_flight(std::uint32_t owner) const {
  return owner < owners_.size() ? owners_[owner].count : 0;
}

void Transcoder::unlink(std::uint32_t job) {
  const Job& j = jobs_[job];
  OwnerJobs& list = owners_[j.owner];
  if (j.prev == kNil) {
    list.head = j.next;
  } else {
    jobs_[j.prev].next = j.next;
  }
  if (j.next == kNil) {
    list.tail = j.prev;
  } else {
    jobs_[j.next].prev = j.prev;
  }
  --list.count;
}

}  // namespace cloudfog::cache
