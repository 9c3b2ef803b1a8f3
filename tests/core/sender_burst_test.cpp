// Burst-transmission equivalence oracle (DESIGN.md §14): a burst train may
// only skip event-queue round trips nothing could observe, so a sender with
// set_burst_limit(1) — which reproduces the old one-event-per-packet
// timeline exactly — must emit a bit-identical delivery stream to the
// unlimited default. Randomised multi-player load under both disciplines,
// with loss, WAN rate caps and (under kDeadline) scheduler drops in play;
// digests fold the raw IEEE-754 bits of every delivery, so EXPECT_EQ is an
// exact-timeline comparison, not a tolerance. The same oracle covers the
// input-horizon hook, under which a train runs past unrelated events.
#include "core/supernode_sender.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "game/game.h"
#include "sim/simulator.h"
#include "stream/video.h"
#include "util/rng.h"

namespace cloudfog::core {
namespace {

void fold(std::uint64_t& digest, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    digest ^= (value >> shift) & 0xffull;
    digest *= 1099511628211ull;  // FNV-1a prime
  }
}

/// Extras of the input-horizon oracle; all off is the plain burst oracle.
struct HorizonSetup {
  /// Unrelated events every kNoisePeriodMs, a period that never lines up
  /// with the load tick: under the any-event rule each one breaks a train.
  bool noise = false;
  /// Installs an input horizon that names the next load tick.
  bool hook = false;
  /// Every fourth round submits a single segment, which usually finds the
  /// uplink idle.
  bool sparse_rounds = false;
};

constexpr TimeMs kNoisePeriodMs = 0.7071;

/// What a run exercised, read from the delivery stream: a delivery ahead
/// of the sim clock completed inline.
struct Coverage {
  /// Inline deliveries past a noise event that had not fired yet.
  std::uint64_t noise_crossings = 0;
  /// Inline deliveries made inside submit(): a train the submit started.
  std::uint64_t inline_submits = 0;
};

/// Runs one randomised scenario and digests every delivery and drop.
std::uint64_t run_scenario(SupernodeSender::Discipline discipline,
                           std::uint64_t seed, std::size_t burst_limit,
                           HorizonSetup setup = {},
                           Coverage* coverage = nullptr) {
  const std::size_t players = 12;
  const double duration_ms = 1'500.0;
  const double interval_ms = 33.3;
  const Kbps uplink_kbps = 140'000.0;

  sim::Simulator sim;
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  util::Rng load_rng(seed * 1000003 + 17);
  Coverage seen;
  TimeMs next_noise = std::numeric_limits<TimeMs>::infinity();
  bool in_submit = false;

  SupernodeSender sender(
      sim, uplink_kbps, discipline, DeadlineSchedulerConfig{},
      [](NodeId player, util::Rng& rng) {
        return 4.0 + rng.uniform(0.0, 4.0) +
               0.1 * static_cast<double>(player % 7);
      },
      [&](const PacketDelivery& d) {
        if (d.sent_ms > sim.now()) {
          if (d.sent_ms > next_noise) ++seen.noise_crossings;
          if (in_submit) ++seen.inline_submits;
        }
        fold(digest, d.segment_id);
        fold(digest, static_cast<std::uint64_t>(d.packet_index));
        fold(digest, std::bit_cast<std::uint64_t>(d.sent_ms));
        fold(digest, std::bit_cast<std::uint64_t>(
                         d.lost ? d.deadline_ms : d.arrival_ms));
        fold(digest, d.lost ? 1 : 0);
      },
      util::Rng(seed).fork("burst_oracle"));
  sender.set_burst_limit(burst_limit);
  sender.set_rate_cap([uplink_kbps](NodeId player, std::uint64_t) {
    return player % 4 == 0 ? uplink_kbps / 2.0 : 0.0;
  });
  sender.set_loss_model(
      [](NodeId player, std::uint64_t) { return player % 5 == 0 ? 0.02 : 0.0; });
  sender.set_drop_observer(
      [&digest](const stream::VideoSegment& seg, int packet_index) {
        fold(digest, seg.id);
        fold(digest, static_cast<std::uint64_t>(packet_index));
        fold(digest, 0xd0ull);  // domain-separate drops from deliveries
      });

  sim::EventId noise = sim::kInvalidEvent;
  if (setup.noise) {
    next_noise = kNoisePeriodMs;
    noise = sim.schedule_every(kNoisePeriodMs, kNoisePeriodMs, [&] {
      next_noise = sim.now() + kNoisePeriodMs;  // already re-armed there
      if (sim.now() >= duration_ms + 100.0) {
        sim.cancel(noise);
        next_noise = std::numeric_limits<TimeMs>::infinity();
      }
    });
  }
  // The load tick is the sender's only input: a submit can come no earlier
  // than the next tick, or now while a batch is still being submitted.
  TimeMs input_horizon = interval_ms;
  if (setup.hook) sender.set_input_horizon([&] { return input_horizon; });

  // Sustained near-saturation load with periodic overload spikes, submitted
  // from inside sim events so trains actually form between rounds.
  std::uint64_t round = 0;
  sim::EventId ticker = sim::kInvalidEvent;
  ticker = sim.schedule_every(interval_ms, interval_ms, [&] {
    const TimeMs now = sim.now();
    if (now >= duration_ms) {  // stop generating; let the queue drain
      sim.cancel(ticker);
      input_horizon = std::numeric_limits<TimeMs>::infinity();
      return;
    }
    ++round;
    input_horizon = now;
    const double burst = round % 6 == 0 ? 2.0 : 1.0;
    const bool sparse = setup.sparse_rounds && round % 4 == 3;
    const std::size_t first = sparse ? round % players : 0;
    const std::size_t last = sparse ? first : players - 1;
    for (std::size_t p = first; p <= last; ++p) {
      const game::GameProfile& game =
          game::game_by_id(static_cast<game::GameId>(p % 5));
      stream::VideoSegment seg;
      seg.id = round * 1000 + p;
      seg.player = static_cast<NodeId>(p + 1);
      seg.game = static_cast<game::GameId>(p % 5);
      seg.quality_level = 3;
      seg.duration_ms = interval_ms;
      seg.size_kbit = load_rng.uniform(240.0, 420.0) * burst;
      seg.action_time_ms = now;
      seg.deadline_ms = now + game.latency_requirement_ms;
      seg.loss_tolerance = game.loss_tolerance;
      if (p == last) input_horizon = now + interval_ms;
      in_submit = true;
      sender.submit(seg);
      in_submit = false;
    }
  });
  sim.run_all();
  EXPECT_EQ(sender.packets_sent() + sender.packets_dropped(),
            sender.packets_submitted());
  if (coverage != nullptr) *coverage = seen;
  return digest;
}

TEST(SenderBurstOracle, DeadlineDisciplineMatchesPerPacketTimeline) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::uint64_t per_packet =
        run_scenario(SupernodeSender::Discipline::kDeadline, seed, 1);
    const std::uint64_t unlimited =
        run_scenario(SupernodeSender::Discipline::kDeadline, seed,
                     std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(unlimited, per_packet) << "seed " << seed;
  }
}

TEST(SenderBurstOracle, FifoDisciplineMatchesPerPacketTimeline) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::uint64_t per_packet =
        run_scenario(SupernodeSender::Discipline::kFifo, seed, 1);
    const std::uint64_t unlimited =
        run_scenario(SupernodeSender::Discipline::kFifo, seed,
                     std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(unlimited, per_packet) << "seed " << seed;
  }
}

TEST(SenderBurstOracle, IntermediateBurstLimitsMatchToo) {
  // The train-break rule is limit-agnostic: any cap yields the same
  // timeline, it only changes how many completions ride one event.
  const std::uint64_t oracle =
      run_scenario(SupernodeSender::Discipline::kDeadline, 3, 1);
  for (std::size_t limit : {2u, 7u, 64u}) {
    EXPECT_EQ(run_scenario(SupernodeSender::Discipline::kDeadline, 3, limit),
              oracle)
        << "burst_limit " << limit;
  }
}

TEST(SenderBurstOracle, InputHorizonMatchesPerPacketTimeline) {
  // With the hook a train ignores the noise events and stops only before
  // the next load tick, and a submit on an idle uplink starts it inline.
  // At burst limit 1 the pump still arms its event, so every run below
  // reproduces the one-event-per-packet reference.
  const HorizonSetup reference{.noise = true, .sparse_rounds = true};
  const HorizonSetup hooked{.noise = true, .hook = true, .sparse_rounds = true};
  for (const auto discipline : {SupernodeSender::Discipline::kDeadline,
                                SupernodeSender::Discipline::kFifo}) {
    Coverage total;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::uint64_t per_packet =
          run_scenario(discipline, seed, 1, reference);
      Coverage at_limit_one;
      EXPECT_EQ(run_scenario(discipline, seed, 1, hooked, &at_limit_one),
                per_packet)
          << "seed " << seed << " at burst limit 1";
      EXPECT_EQ(at_limit_one.noise_crossings + at_limit_one.inline_submits,
                0u);
      Coverage got;
      EXPECT_EQ(run_scenario(discipline, seed,
                             std::numeric_limits<std::size_t>::max(), hooked,
                             &got),
                per_packet)
          << "seed " << seed;
      total.noise_crossings += got.noise_crossings;
      total.inline_submits += got.inline_submits;
    }
    // Not vacuous: trains cross noise events, and submits finish their
    // first packet inline.
    EXPECT_GT(total.noise_crossings, 10'000u);
    EXPECT_GT(total.inline_submits, 100u);
  }
}

TEST(SenderBurstOracle, DirectSubmitsOutsideTheRunLoopStaySerialised) {
  // Between run_*() calls the run horizon is -infinity, so submits from
  // driver code always arm one event per packet — a second direct submit
  // at the same sim time must queue behind the first, never double-book
  // the uplink (the regression the run-horizon gate exists to prevent).
  sim::Simulator sim;
  std::vector<PacketDelivery> deliveries;
  SupernodeSender sender(
      sim, 1'200.0, SupernodeSender::Discipline::kFifo,
      DeadlineSchedulerConfig{}, [](NodeId, util::Rng&) { return 5.0; },
      [&deliveries](const PacketDelivery& d) { deliveries.push_back(d); },
      util::Rng(3));
  stream::VideoSegment seg;
  seg.id = 1;
  seg.player = 7;
  seg.game = 4;
  seg.quality_level = 3;
  seg.duration_ms = 33.3;
  seg.size_kbit = 12.0;  // 10 ms on the wire
  seg.action_time_ms = 0.0;
  seg.deadline_ms = 1'000.0;
  seg.loss_tolerance = game::game_by_id(4).loss_tolerance;
  sender.submit(seg);
  seg.id = 2;
  sender.submit(seg);
  sim.run_all();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(deliveries[0].sent_ms, 10.0);
  EXPECT_DOUBLE_EQ(deliveries[1].sent_ms, 20.0);
}

TEST(SenderBurstOracle, DirectSubmitsWithAnInputHorizonStaySerialised) {
  // The hook promises no further input, but outside a run loop the run
  // horizon still gates every train: the second direct submit at the same
  // sim time queues behind the first.
  sim::Simulator sim;
  std::vector<PacketDelivery> deliveries;
  SupernodeSender sender(
      sim, 1'200.0, SupernodeSender::Discipline::kFifo,
      DeadlineSchedulerConfig{}, [](NodeId, util::Rng&) { return 5.0; },
      [&deliveries](const PacketDelivery& d) { deliveries.push_back(d); },
      util::Rng(3));
  sender.set_input_horizon(
      [] { return std::numeric_limits<TimeMs>::infinity(); });
  stream::VideoSegment seg;
  seg.id = 1;
  seg.player = 7;
  seg.game = 4;
  seg.quality_level = 3;
  seg.duration_ms = 33.3;
  seg.size_kbit = 24.0;  // two packets, 10 ms each on the wire
  seg.action_time_ms = 0.0;
  seg.deadline_ms = 1'000.0;
  seg.loss_tolerance = game::game_by_id(4).loss_tolerance;
  sender.submit(seg);
  EXPECT_TRUE(deliveries.empty());  // nothing completes inline
  seg.id = 2;
  sender.submit(seg);
  sim.run_all();
  ASSERT_EQ(deliveries.size(), 4u);
  for (std::size_t k = 0; k < deliveries.size(); ++k) {
    EXPECT_DOUBLE_EQ(deliveries[k].sent_ms, 10.0 * static_cast<double>(k + 1));
  }
  EXPECT_EQ(deliveries[2].segment_id, 2u);
}

}  // namespace
}  // namespace cloudfog::core
