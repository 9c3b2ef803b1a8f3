// Differential oracle for systems::PendingArrivals. The streaming engine
// once scheduled one sim::Simulator event per receive-buffer arrival; that
// form survives here, and only here, as the reference. Seeded scripts drive
// both forms from one simulator:
//   * a chain of delivery events, each scheduling the next one, so a
//     delivery takes its seq when the previous delivery fires and lands on
//     either side of a tick at the same instant;
//   * each delivery's arrivals: clamped to now, at a later time (out of
//     order and with ties), at exactly a future tick's time, or at the
//     horizon. The event form schedules one event per arrival into buffer
//     A; the list form adds it to the pending list of buffer B;
//   * a periodic tick that, like the engine's adaptation tick, brings the
//     list up to date, reads both buffers and sometimes switches the
//     playback rate of both.
// After every tick and after the end-of-run flush, every observable of A
// and B must be bit-for-bit equal.
#include "systems/pending_arrivals.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "stream/receiver_buffer.h"
#include "util/rng.h"

namespace cloudfog::systems {
namespace {

constexpr TimeMs kPeriod = 10.0;
constexpr int kTicks = 40;
constexpr Kbps kRates[] = {500.0, 1'000.0, 2'000.0, 4'000.0};

/// Every observable of a buffer at `now`, each double as its bit pattern.
struct Observed {
  std::uint64_t total_arrived = 0;
  std::uint64_t buffered = 0;
  std::uint64_t stall_count = 0;
  std::uint64_t stall_ms = 0;
  std::uint64_t download_rate = 0;

  bool operator==(const Observed&) const = default;
};

Observed observe(stream::ReceiverBuffer& b, TimeMs now) {
  return {std::bit_cast<std::uint64_t>(b.total_arrived_kbit()),
          std::bit_cast<std::uint64_t>(b.buffered_kbit(now)), b.stall_count(),
          std::bit_cast<std::uint64_t>(b.stall_ms()),
          std::bit_cast<std::uint64_t>(b.download_rate())};
}

std::string describe(const stream::ReceiverBuffer& b) {
  std::ostringstream out;
  out.precision(17);
  out << "arrived " << b.total_arrived_kbit() << " kbit, stalls "
      << b.stall_count() << " (" << b.stall_ms() << " ms), download rate "
      << b.download_rate() << " kbps";
  return out.str();
}

/// How the arrivals of all scripts relate to the tick they tie with, so the
/// test can show that its scripts reach every case.
struct Coverage {
  std::uint64_t clamped = 0;        // when == now
  std::uint64_t tie_early = 0;      // at tick j, scheduled before tick j-1
  std::uint64_t tie_late = 0;       // at tick j, scheduled after tick j-1
  std::uint64_t tie_same_time = 0;  // at tick j, scheduled after tick j
  std::uint64_t at_horizon = 0;
  std::uint64_t out_of_order = 0;   // earlier than the previous arrival
  std::uint64_t ticks = 0;
  std::uint64_t stalls = 0;  // stall episodes: the buffers really drain dry
};

class Script {
 public:
  Script(std::uint64_t seed, Coverage& cov)
      : seed_(seed), rng_(seed), cov_(cov) {
    // The simulator re-arms a periodic event at fire time + period, so the
    // tick times are this exact sequence of sums.
    TimeMs t = 0.5 * static_cast<double>(rng_.uniform_int(0, 19));
    for (int k = 0; k <= kTicks + 1; ++k, t += kPeriod)
      tick_times_.push_back(t);
    horizon_ = tick_times_[kTicks];
    if (rng_.bernoulli(0.5))
      horizon_ += 0.5 * static_cast<double>(rng_.uniform_int(1, 19));
    mean_kbit_ = rng_.uniform(0.5, 4.0);
  }

  /// Runs the script; returns false after the first mismatch (reported).
  bool run() {
    a_.on_arrival(0.0, 20.0);
    b_.on_arrival(0.0, 20.0);
    sim_.schedule_every(tick_times_[0], kPeriod, [this] { tick(); });
    sim_.schedule_at(0.0, [this] { deliver(); });
    sim_.run_until(horizon_);
    if (!ok_) return false;
    list_.flush(b_, horizon_);
    cov_.stalls += a_.stall_count();
    return compare("end-of-run flush", horizon_);
  }

 private:
  void tick() {
    const TimeMs now = sim_.now();
    list_.before_tick(b_, now);
    ++fired_;
    ++cov_.ticks;
    if (!compare("tick", now)) return;
    if (rng_.bernoulli(0.3)) {
      const Kbps rate = kRates[rng_.index(std::size(kRates))];
      a_.set_playback_rate(now, rate);
      b_.set_playback_rate(now, rate);
    }
  }

  void deliver() {
    const TimeMs now = sim_.now();
    const auto n = rng_.uniform_int(1, 3);
    for (std::int64_t i = 0; i < n; ++i) add(now, pick_when(now));
    TimeMs next = now + 0.5 * static_cast<double>(rng_.uniform_int(0, 8));
    if (rng_.bernoulli(0.3)) next = next_tick_time(now);
    sim_.schedule_at(next, [this] { deliver(); });
  }

  TimeMs pick_when(TimeMs now) {
    switch (rng_.uniform_int(0, 5)) {
      case 0:
        return now;
      case 1:
      case 2: {
        // One of the next three tick times at or after now.
        const auto first = static_cast<std::size_t>(
            std::lower_bound(tick_times_.begin(), tick_times_.end(), now) -
            tick_times_.begin());
        const std::size_t j =
            std::min(first + rng_.index(3), tick_times_.size() - 1);
        return std::max(tick_times_[j], now);
      }
      case 3:
        return std::max(horizon_, now);
      default:
        return now + 0.5 * static_cast<double>(rng_.uniform_int(0, 60));
    }
  }

  void add(TimeMs now, TimeMs when) {
    const Kbit kbit = rng_.uniform(0.0, 2.0 * mean_kbit_);
    count_coverage(now, when);
    sim_.schedule_at(when, [this, kbit] { a_.on_arrival(sim_.now(), kbit); });
    list_.add(b_, now, when, kbit);
  }

  void count_coverage(TimeMs now, TimeMs when) {
    if (when == now) ++cov_.clamped;
    if (when == horizon_) ++cov_.at_horizon;
    if (when < last_when_) ++cov_.out_of_order;
    last_when_ = when;
    const auto it = std::find(tick_times_.begin(), tick_times_.end(), when);
    if (it == tick_times_.end()) return;
    const auto j = static_cast<std::uint64_t>(it - tick_times_.begin());
    if (fired_ < j) {
      ++cov_.tie_early;
    } else if (fired_ == j) {
      ++cov_.tie_late;
    } else {
      ++cov_.tie_same_time;
    }
  }

  TimeMs next_tick_time(TimeMs now) const {
    const auto it =
        std::lower_bound(tick_times_.begin(), tick_times_.end(), now);
    return it == tick_times_.end() ? now : *it;
  }

  bool compare(const char* where, TimeMs now) {
    if (!ok_) return false;
    const Observed a = observe(a_, now);
    const Observed b = observe(b_, now);
    if (a == b) return true;
    ok_ = false;
    ADD_FAILURE() << "seed " << seed_ << ": " << where << " at t=" << now
                  << " (ticks fired " << fired_ << ")\n  event form: "
                  << describe(a_) << "\n  list form:  " << describe(b_);
    return false;
  }

  std::uint64_t seed_;
  util::Rng rng_;
  Coverage& cov_;
  std::vector<TimeMs> tick_times_;
  TimeMs horizon_ = 0.0;
  Kbit mean_kbit_ = 0.0;
  TimeMs last_when_ = 0.0;
  std::uint64_t fired_ = 0;
  bool ok_ = true;
  sim::Simulator sim_;
  stream::ReceiverBuffer a_{1'000.0};  // one event per arrival
  stream::ReceiverBuffer b_{1'000.0};  // pending list
  PendingArrivals list_;
};

TEST(BufferArrivalOracle, ListFormMatchesOneEventPerArrival) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Script script(seed, cov);
    if (!script.run()) break;
  }
  // The scripts are not vacuous: every tie case, clamping, out-of-order
  // arrivals, arrivals at the horizon and stalls all occur.
  EXPECT_GT(cov.ticks, 10'000u);
  EXPECT_GT(cov.stalls, 100u);
  EXPECT_GT(cov.clamped, 100u);
  EXPECT_GT(cov.tie_early, 100u);
  EXPECT_GT(cov.tie_late, 100u);
  EXPECT_GT(cov.tie_same_time, 100u);
  EXPECT_GT(cov.at_horizon, 100u);
  EXPECT_GT(cov.out_of_order, 100u);
}

}  // namespace
}  // namespace cloudfog::systems
