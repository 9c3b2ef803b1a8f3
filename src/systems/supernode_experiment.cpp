#include "systems/supernode_experiment.h"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rate_adaptation.h"
#include "core/supernode_sender.h"
#include "metrics/qoe.h"
#include "sim/simulator.h"
#include "stream/queued_sender.h"
#include "stream/receiver_buffer.h"
#include "stream/video.h"
#include "systems/pending_arrivals.h"
#include "systems/segment_ledger.h"
#include "util/check.h"
#include "util/stats.h"

namespace cloudfog::systems {

double SupernodeExperimentResult::offered_load() const {
  return uplink_kbps > 0.0 ? offered_kbps / uplink_kbps : 0.0;
}

namespace {

struct Player {
  game::GameProfile profile;
  TimeMs prop_mean_ms = 0.0;
  std::size_t primary = 0;  // supernode index: 0 = A, 1 = B
  int level = 0;
  Kbit arrived_at_last_tick = 0.0;
  std::optional<core::RateAdaptationController> controller;
  std::optional<stream::ReceiverBuffer> buffer;
  PendingArrivals arrivals;  // deliveries the buffer has not seen yet
  std::optional<stream::EncoderModel> encoder;
  metrics::PlayerQoE qoe;
  /// Only reported players count towards the population aggregates.
  bool qoe_reported = false;
};

/// Splits a segment's packets into the even-index and odd-index halves,
/// rebuilt as two smaller segments sharing the deadline and delivery tag —
/// the striping unit a cooperating pair transmits in parallel.
std::array<stream::VideoSegment, 2> stripe(const stream::VideoSegment& seg) {
  const auto packets = stream::packetize(seg);
  std::array<stream::VideoSegment, 2> halves{seg, seg};
  halves[0].size_kbit = 0.0;
  halves[1].size_kbit = 0.0;
  for (const auto& p : packets) {
    halves[static_cast<std::size_t>(p.index % 2)].size_kbit += p.size_kbit;
  }
  return halves;
}

}  // namespace

SupernodeExperimentResult run_supernode_experiment(
    const SupernodeExperimentConfig& config) {
  CF_CHECK_MSG(config.supernodes == 1 || config.supernodes == 2,
               "the experiment runs one or two supernodes");
  CF_CHECK_MSG(config.num_players >= config.supernodes,
               "need at least one player per supernode");
  CF_CHECK_MSG(config.uplink_kbps > 0.0, "uplink must be positive");
  CF_CHECK_MSG(config.primary_skew >= 0.0 && config.primary_skew <= 1.0,
               "skew must be a probability");
  CF_CHECK_MSG(!config.enable_striping || config.supernodes == 2,
               "striping needs two supernodes");

  sim::Simulator sim;
  util::Rng rng(config.seed);
  util::Rng setup_rng = rng.fork("setup");
  util::Rng jitter_rng = rng.fork("jitter");
  stream::SegmentFactory factory;
  std::vector<Player> players(config.num_players);
  SegmentLedger ledger;
  const auto qoe_of = [&players](std::size_t i) -> metrics::PlayerQoE& {
    players[i].qoe_reported = true;
    return players[i].qoe;
  };
  util::RunningStats level_stats;
  std::uint64_t submitted = 0;

  const TimeMs period = config.segment_period_ms();
  const TimeMs window_end = config.warmup_ms + config.duration_ms;
  // Optional bounded render stage ("kbit" = megapixels, "kbps" = Mpx/s).
  std::optional<stream::QueuedSender> render_stage;
  if (config.render_capacity_mpx_per_s > 0.0) {
    render_stage.emplace(config.render_capacity_mpx_per_s);
  }
  auto in_window = [&](TimeMs t0) {
    return t0 >= config.warmup_ms && t0 < window_end;
  };

  // Player setup: balanced game mix, lognormal per-player propagation mean,
  // skewed primary supernode.
  const auto num_games = game::game_catalog().size();
  Kbps offered = 0.0;
  std::vector<Kbps> offered_by_supernode(config.supernodes, 0.0);
  for (std::size_t i = 0; i < players.size(); ++i) {
    Player& p = players[i];
    p.profile = game::game_by_id(static_cast<game::GameId>(i % num_games));
    p.prop_mean_ms =
        config.prop_mean_ms * setup_rng.lognormal(0.0, config.prop_spread_sigma);
    if (config.supernodes == 2)
      p.primary = setup_rng.bernoulli(config.primary_skew) ? 0 : 1;
    p.level = p.profile.target_quality_level;
    const Kbps rate = game::quality_for_level(p.level).bitrate_kbps;
    offered += rate;
    offered_by_supernode[p.primary] += rate;
    if (config.use_gop_encoder) {
      auto enc_config = config.encoder;
      enc_config.fps = config.fps;
      p.encoder.emplace(enc_config, p.level);
    }
    if (config.adaptation) {
      p.controller.emplace(p.profile, config.cloudfog.adaptation);
      p.buffer.emplace(game::quality_for_level(p.level).bitrate_kbps);
      p.buffer->on_arrival(
          0.0, game::quality_for_level(p.level).bitrate_kbps * period / 1000.0);
    }
  }

  auto on_delivery = [&](const core::PacketDelivery& d) {
    const std::size_t who = ledger.on_delivery(d, qoe_of);
    if (who == SegmentLedger::kUnknown || d.lost || !players[who].buffer)
      return;
    // Only the adaptation tick reads the buffer: the arrival waits for it.
    Player& p = players[who];
    p.arrivals.add(*p.buffer, sim.now(), std::max(d.arrival_ms, sim.now()),
                   d.size_kbit);
  };
  // Completion events capture sender addresses: reserve so the vector
  // never moves them.
  std::vector<core::SupernodeSender> senders;
  senders.reserve(config.supernodes);
  for (std::size_t s = 0; s < config.supernodes; ++s) {
    // RNG stream names: "prop" for one supernode, "prop0"/"prop1" for two.
    std::string prop_stream = "prop";
    if (config.supernodes == 2) prop_stream += std::to_string(s);
    core::SupernodeSender& sender = senders.emplace_back(
        sim, config.uplink_kbps,
        config.scheduling ? core::SupernodeSender::Discipline::kDeadline
                          : core::SupernodeSender::Discipline::kFifo,
        config.cloudfog.scheduler,
        [&](NodeId player, util::Rng& prop_rng) {
          return players[player].prop_mean_ms *
                 prop_rng.lognormal(0.0, config.prop_jitter_sigma);
        },
        on_delivery, rng.fork(prop_stream));
    if (config.network_loss_rate > 0.0) {
      sender.set_loss_model(
          [&](NodeId, std::uint64_t) { return config.network_loss_rate; });
    }
    sender.set_drop_observer([&](const stream::VideoSegment& seg, int) {
      ledger.on_drop(seg.delivery_tag, qoe_of);
    });
  }

  // Per-player action/segment cadence. The event callbacks capture one
  // reference to these named stages plus the (player, t0) identity — the
  // full [&] capture set would outgrow the sim's inline callback budget.
  TimeMs last_render_enqueue = 0.0;
  auto submit_segment = [&](NodeId player, TimeMs t0) {
    Player& p = players[player];
    stream::VideoSegment seg =
        factory.make(player, p.profile.id, p.level, period, t0);
    if (p.encoder.has_value()) {
      // Structured GOP sizes; the frame's actual (actuated) level wins.
      const auto frame = p.encoder->next_frame(jitter_rng);
      seg.size_kbit = frame.size_kbit *
                      static_cast<double>(config.frames_per_segment);
      seg.quality_level = frame.level;
    } else if (config.segment_size_sigma > 0.0) {
      const double sigma = config.segment_size_sigma;
      seg.size_kbit *= jitter_rng.lognormal(-0.5 * sigma * sigma, sigma);
    }
    const int packets = stream::packet_count(seg.size_kbit);
    const bool measured = in_window(t0);
    if (measured) {
      submitted += static_cast<std::uint64_t>(packets);
      level_stats.add(static_cast<double>(p.level));
    }
    seg.delivery_tag = ledger.open(player, t0, packets, measured, qoe_of);
    if (!config.enable_striping) {
      senders[p.primary].submit(seg);
      return;
    }
    // The halves share the segment's delivery tag, so its response latency
    // is the arrival of the LAST packet across both paths. Their wire ids
    // stay distinct: the deadline scheduler breaks ties on segment id.
    auto halves = stripe(seg);
    for (std::size_t s = 0; s < 2; ++s) {
      if (halves[s].size_kbit <= 0.0) continue;
      halves[s].id = seg.id * 2'000'000 + s;
      // Half s goes to (primary + s) mod 2: the primary gets the even
      // half, the partner the odd one.
      senders[(p.primary + s) % 2].submit(halves[s]);
    }
  };
  auto player_tick = [&](NodeId player) {
    const TimeMs t0 = sim.now();
    if (t0 >= window_end) return;
    TimeMs pipeline =
        config.pipeline_ms *
        jitter_rng.lognormal(0.0, config.pipeline_jitter_sigma);
    if (render_stage.has_value()) {
      // The frame renders after the update arrives, queueing behind the
      // other players' frames on the shared GPU.
      const auto& q = game::quality_for_level(players[player].level);
      const double megapixels =
          static_cast<double>(q.width) * static_cast<double>(q.height) / 1e6;
      // QueuedSender requires monotone enqueue times; pipeline jitter can
      // reorder frame-ready instants, so clamp to the last enqueue.
      const TimeMs ready = std::max(sim.now() + pipeline, last_render_enqueue);
      const auto sched = render_stage->enqueue(ready, megapixels);
      last_render_enqueue = sched.enqueued;
      pipeline = sched.end - sim.now();
    }
    sim.schedule_after(pipeline, [&submit_segment, player, t0] {
      submit_segment(player, t0);
    });
  };
  for (std::size_t i = 0; i < players.size(); ++i) {
    const auto player = static_cast<NodeId>(i);
    const TimeMs phase = setup_rng.uniform(0.0, period);
    sim.schedule_every(phase, period,
                       [&player_tick, player] { player_tick(player); });
    if (config.adaptation) {
      const TimeMs tick_phase = setup_rng.uniform(0.0, config.adaptation_tick_ms);
      sim.schedule_every(tick_phase, config.adaptation_tick_ms, [&, player] {
        Player& p = players[player];
        p.arrivals.before_tick(*p.buffer, sim.now());
        const Kbps playback = game::quality_for_level(p.level).bitrate_kbps;
        const Kbit tau = playback * period / 1000.0;
        // Windowed download rate d(t_k): data received since the last tick.
        const Kbit arrived = p.buffer->total_arrived_kbit();
        const Kbps download = (arrived - p.arrived_at_last_tick) /
                              config.adaptation_tick_ms * 1000.0;
        p.arrived_at_last_tick = arrived;
        if (p.controller->observe_rates(config.adaptation_tick_ms, download,
                                        playback, tau) !=
            core::RateAdaptationController::Decision::kHold) {
          p.level = p.controller->level();
          if (p.encoder.has_value()) {
            // GOP semantics: the switch actuates at the next I-frame; the
            // playback (consumption) rate follows the *encoded* level, which
            // next_frame() reports per segment.
            p.encoder->request_level(p.level);
          }
          p.buffer->set_playback_rate(
              sim.now(), game::quality_for_level(p.level).bitrate_kbps);
        }
      });
    }
  }

  const TimeMs horizon = window_end + config.drain_ms;
  sim.run_until(horizon);
  // No buffer is read after the run; the flush completes the buffers' stall
  // accounting with every arrival the run reached.
  for (Player& p : players) {
    if (p.buffer) p.arrivals.flush(*p.buffer, horizon);
  }

  // Players are dense 0..N-1: index order is the canonical reduce order.
  metrics::QoESummary qoe;
  for (const Player& p : players) {
    if (p.qoe_reported) qoe.add(p.qoe);
  }
  SupernodeExperimentResult result;
  result.satisfied_fraction = qoe.satisfied_fraction();
  result.mean_continuity = qoe.mean_continuity();
  result.mean_response_latency_ms = qoe.mean_response_latency_ms();
  result.mean_quality_level = level_stats.mean();
  result.packets_submitted = submitted;
  result.packets_on_time = ledger.on_time_packets();
  result.packets_dropped = ledger.dropped_packets();
  result.offered_kbps = offered;
  result.uplink_kbps = config.uplink_kbps;
  for (const Kbps kbps : offered_by_supernode)
    result.supernode_load.push_back(kbps / config.uplink_kbps);
  return result;
}

std::vector<SupernodeExperimentResult> run_supernode_experiments(
    const std::vector<SupernodeExperimentConfig>& configs,
    exec::RunExecutor& executor) {
  std::vector<
      std::pair<std::string, std::function<SupernodeExperimentResult()>>>
      tasks;
  tasks.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SupernodeExperimentConfig& config = configs[i];
    tasks.emplace_back("run=" + std::to_string(i) +
                           " players=" + std::to_string(config.num_players) +
                           " seed=" + std::to_string(config.seed),
                       [&config] { return run_supernode_experiment(config); });
  }
  return executor.map(std::move(tasks));
}

}  // namespace cloudfog::systems
