// cloudfog_e2e — runs one end-to-end benchmark workload in this process and
// prints one JSON document with the raw measurements on stdout. run.py turns
// that document into the metrics and correctness verdicts; README.md lists
// the workloads, the metrics and the layer each per-layer number belongs to.
//
//   cloudfog_e2e --workload=NAME [--seed=S] (--repeats=N | --seconds=T)
//                [--traced] [--trace-out=PATH] [--smoke]
//
// A repeat is one simulation run to completion. Every invocation runs one
// unmeasured warm-up repeat, then measured repeats: exactly N with
// --repeats, otherwise at least kMinRepeats and until T seconds have passed.
// --traced adds one last repeat with a metrics registry and a trace
// recorder installed; its counters give the per-layer numbers and its wall
// time against the untraced ones gives the tracing overhead. A SpeedProbe
// runs before the first and after every measured repeat. Only public
// entry points are driven: Scenario::build and run_streaming for the
// streaming workloads, sim::Simulator and core::SupernodeSender for
// packet-train.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/supernode_sender.h"
#include "game/game.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "stream/video.h"
#include "systems/scenario.h"
#include "systems/streaming_sim.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace cloudfog;

namespace {

// --- workloads --------------------------------------------------------------

/// Streaming window (simulated): warm-up, measured window, drain.
constexpr TimeMs kWarmupMs = 2'000.0;
constexpr TimeMs kWindowMs = 3'000.0;
constexpr TimeMs kDrainMs = 1'000.0;
/// Set-ups timed back to back, so set-up time is a median.
constexpr int kSetupSamples = 5;
constexpr std::size_t kMinRepeats = 3;
/// Every smoke workload is this many times smaller than the full one.
constexpr std::size_t kSmokeDivisor = 8;

struct StreamingWorkload {
  systems::SystemKind kind = systems::SystemKind::kCloudFogB;
  std::size_t population = 0;  // players = population / 2
  std::size_t shards = 1;
  bool cache_churn = false;    // segment cache, coop lookups and churn
};

struct PacketWorkload {
  std::size_t players = 32;
  Kbps uplink_kbps = 380'000.0;
  TimeMs interval_ms = 33.3;  // one segment per player per round
  TimeMs duration_ms = 0.0;   // segment generation stops here; the queue drains
};

struct Workload {
  std::string name;
  std::optional<StreamingWorkload> streaming;
  std::optional<PacketWorkload> packet;
};

std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  const std::size_t div = smoke ? kSmokeDivisor : 1;
  Workload w;
  w.name = name;
  if (name == "fluid-40k") {
    w.streaming = StreamingWorkload{systems::SystemKind::kCloudFogB,
                                    40'000 / div, 1, false};
  } else if (name == "deadline-20k") {
    w.streaming = StreamingWorkload{systems::SystemKind::kCloudFogA,
                                    20'000 / div, 1, false};
  } else if (name == "cache-churn-k4") {
    w.streaming = StreamingWorkload{systems::SystemKind::kCloudFogAdapt,
                                    40'000 / div, 4, true};
  } else if (name == "packet-train") {
    PacketWorkload p;
    p.duration_ms = 800'000.0 / static_cast<double>(div);
    w.packet = p;
  } else {
    return std::nullopt;
  }
  return w;
}

/// bench_shard's population scaling: fleets and datacenter provisioning
/// grow with the population, so per-player strain stays comparable. The
/// world is the same for every seed: a seed that also redrew the topology
/// would change how many players a supernode serves, and with it the work
/// per segment, by more than the bounds allow.
systems::ScenarioParams scenario_params(const StreamingWorkload& w) {
  systems::ScenarioParams p = systems::ScenarioParams::simulation_defaults(1);
  const double f = static_cast<double>(w.population) / 10'000.0;
  p.num_players = w.population;
  p.num_supernodes = std::max<std::size_t>(30, static_cast<std::size_t>(600.0 * f));
  p.num_edge_servers = std::max<std::size_t>(5, static_cast<std::size_t>(45.0 * f));
  p.dc_uplink_kbps *= f;
  p.sim_shards = w.shards;
  if (w.cache_churn) {
    p.use_segment_cache = true;
    p.cache_kbit_per_slot = 1'000.0;
    p.cache_coop_neighbors = 3;
  }
  return p;
}

systems::StreamingOptions streaming_options(const StreamingWorkload& w,
                                            const systems::Scenario& scenario,
                                            std::uint64_t seed) {
  systems::StreamingOptions o;
  o.num_players = w.population / 2;
  o.seed_salt = seed;  // which players play, their assignment, the jitter
  o.warmup_ms = kWarmupMs;
  o.duration_ms = kWindowMs;
  o.drain_ms = kDrainMs;
  o.shard_workers = std::min<std::size_t>(w.shards, 2);
  if (w.cache_churn) {
    // Every 20th supernode leaves 1.0-1.6 s into the window, back 2 s later.
    util::Rng rng = util::Rng(seed).fork("e2e.churn");
    const std::vector<std::size_t>& sns = scenario.supernode_players();
    for (std::size_t i = 0; i < sns.size(); i += 20) {
      const TimeMs leave = kWarmupMs + rng.uniform(1'000.0, 1'600.0);
      o.supernode_churn.push_back({leave, sns[i], true});
      o.supernode_churn.push_back({leave + 2'000.0, sns[i], false});
    }
  }
  return o;
}

// --- measurement records ----------------------------------------------------

using Fields = std::vector<std::pair<std::string, double>>;

struct Repeat {
  bool traced = false;
  double wall_s = 0.0;            // run_streaming / Simulator::run_all
  double setup_s = 0.0;           // this repeat's own set-up
  std::uint64_t segments = 0;     // generated (streaming) / submitted (packet)
  std::uint64_t packets = 0;      // sent (packet-train only)
  std::string digest;
  Fields facts;   // inputs to run.py's correctness checks
  Fields layers;  // traced repeat only; absent names read as 0 in run.py
  double slowdown = 1.0;  // host speed around this repeat, see SpeedProbe
};

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

void fold(std::uint64_t& digest, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    digest ^= (value >> shift) & 0xffull;
    digest *= 1099511628211ull;  // FNV-1a prime
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double seconds_since(std::uint64_t start_us) {
  return static_cast<double>(obs::wall_now_us() - start_us) / 1e6;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double counter(const obs::MetricsRegistry& r, const char* name) {
  const obs::Counter* c = r.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

double timer_ms(const obs::MetricsRegistry& r, const char* name) {
  const obs::Histogram* h = r.find_histogram(name);
  return h != nullptr ? h->sum() : 0.0;
}

// --- host speed -------------------------------------------------------------

/// Fixed reference work that no change to src/ can speed up: an event-heap
/// loop with lookups in a 2 MiB table, the simulator's own mix of heap
/// traffic and cache misses. On a shared host the neighbours' load can slow
/// a run by half or more for minutes at a time; the probe slows down with
/// it, so every repeat is bracketed by probes and run.py divides the time
/// metrics by the slowdown.
class SpeedProbe {
 public:
  SpeedProbe() : table_(kTableWords) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    }
  }

  /// Runs the reference work once: its wall time over kReferenceS, the
  /// time it takes on a quiet 2.0 GHz Xeon vCPU.
  double slowdown() {
    using Event = std::pair<double, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::uint64_t x = 88172645463325252ull;  // xorshift64
    const auto draw = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    const std::uint64_t t0 = obs::wall_now_us();
    for (int i = 0; i < 4'096; ++i) {
      heap.push({static_cast<double>(draw() % 1'000), static_cast<std::uint32_t>(x)});
    }
    std::uint64_t sum = 0;
    for (int step = 0; step < kSteps; ++step) {
      const Event e = heap.top();
      heap.pop();
      sum += table_[(e.second * 2654435761u) & (kTableWords - 1)];
      heap.push({e.first + static_cast<double>(draw() % 1'000),
                 static_cast<std::uint32_t>(x)});
    }
    sink_ = sum;
    return seconds_since(t0) / kReferenceS;
  }

 private:
  static constexpr std::size_t kTableWords = std::size_t{1} << 19;
  static constexpr int kSteps = 1'500'000;
  static constexpr double kReferenceS = 0.2;
  std::vector<std::uint32_t> table_;
  volatile std::uint64_t sink_ = 0;  // keeps the loop from being elided
};

// --- streaming workloads ----------------------------------------------------

/// bench_shard's digest fields, folded bit-exactly.
std::string streaming_digest(const systems::StreamingResult& r) {
  std::vector<double> d = {r.mean_response_latency_ms,
                           r.p95_response_latency_ms,
                           r.mean_continuity,
                           r.satisfied_fraction,
                           r.cloud_uplink_mbps,
                           r.mean_quality_level,
                           static_cast<double>(r.segments_generated),
                           static_cast<double>(r.packets_dropped),
                           static_cast<double>(r.supernode_supported),
                           static_cast<double>(r.edge_supported)};
  for (std::size_t g = 0; g < 5; ++g) {
    d.push_back(static_cast<double>(r.players_by_game[g]));
    d.push_back(r.continuity_by_game[g]);
    d.push_back(r.satisfied_by_game[g]);
  }
  std::uint64_t h = kFnvBasis;
  for (double x : d) fold(h, std::bit_cast<std::uint64_t>(x));
  return hex64(h);
}

/// `metrics` is the registry installed for a traced repeat, else null.
Repeat streaming_repeat(const StreamingWorkload& w, std::uint64_t seed,
                        const obs::MetricsRegistry* metrics) {
  Repeat rep;
  std::optional<systems::Scenario> scenario;
  systems::StreamingOptions options;
  systems::StreamingResult r;
  {
    obs::ScopedTimer repeat_span("e2e.repeat");
    {
      obs::ScopedTimer span("e2e.setup");
      const std::uint64_t t0 = obs::wall_now_us();
      scenario.emplace(systems::Scenario::build(scenario_params(w)));
      options = streaming_options(w, *scenario, seed);
      rep.setup_s = seconds_since(t0);
    }
    obs::ScopedTimer span("e2e.run_streaming");
    const std::uint64_t t0 = obs::wall_now_us();
    r = systems::run_streaming(w.kind, *scenario, options);
    rep.wall_s = seconds_since(t0);
  }
  rep.segments = r.segments_generated;
  rep.digest = streaming_digest(r);
  const cache::CacheTotals& c = r.cache;
  const double cache_hit_ratio = ratio(static_cast<double>(c.hits),
                                       static_cast<double>(c.hits + c.misses));
  rep.facts = {{"players", static_cast<double>(options.num_players)},
               {"window_ms", options.duration_ms},
               {"period_ms", scenario->params().segment_period_ms()},
               {"segments", static_cast<double>(r.segments_generated)},
               {"mean_latency_ms", r.mean_response_latency_ms},
               {"p95_latency_ms", r.p95_response_latency_ms},
               {"continuity", r.mean_continuity},
               {"satisfied", r.satisfied_fraction},
               {"quality", r.mean_quality_level},
               {"cache_hit_ratio", cache_hit_ratio}};
  if (metrics == nullptr) return rep;

  // The sequential engine and the sharded one time their phases under
  // different scopes; whichever ran supplies the engine split.
  const obs::MetricsRegistry& m = *metrics;
  const bool sharded = m.find_histogram("timers.systems.shard_event_loop") != nullptr;
  const double setup_ms = timer_ms(
      m, sharded ? "timers.systems.shard_setup" : "timers.systems.setup");
  const double loop_ms = timer_ms(
      m, sharded ? "timers.systems.shard_event_loop" : "timers.systems.event_loop");
  const double run_ms = rep.wall_s * 1e3;
  const auto segments = static_cast<double>(rep.segments);
  rep.layers = {
      {"cache.hit_ratio", cache_hit_ratio},
      {"cache.evictions_per_segment",
       ratio(static_cast<double>(c.evictions), segments)},
      {"cache.coop_hit_ratio", ratio(static_cast<double>(c.coop_hits),
                                     static_cast<double>(c.coop_probes))},
      {"cache.transcodes", static_cast<double>(c.transcodes)},
      {"cache.cancelled_jobs", static_cast<double>(c.cancelled_jobs)},
      {"systems.event_loop_ms", loop_ms},
      {"systems.run_setup_frac", ratio(setup_ms, run_ms)},
      {"systems.assemble_frac", ratio(run_ms - setup_ms - loop_ms, run_ms)}};
  return rep;
}

// --- packet-train -----------------------------------------------------------

/// What the packet-train hooks observe. The timing fields are filled only
/// on the traced repeat.
struct PacketState {
  bool traced = false;
  std::uint64_t digest = kFnvBasis;
  std::uint64_t deliveries = 0;
  std::uint64_t on_time = 0;
  std::uint64_t inline_deliveries = 0;  // completed mid-train
  std::uint64_t segments = 0;
  std::uint64_t hook_us = 0;    // delivery hook
  std::uint64_t tick_us = 0;    // segment-generation callback
  std::uint64_t submit_us = 0;  // SupernodeSender::submit, inside the tick
};

core::SupernodeSender make_sender(sim::Simulator& sim, PacketState& st,
                                  const PacketWorkload& w, std::uint64_t seed) {
  core::SupernodeSender sender(
      sim, w.uplink_kbps, core::SupernodeSender::Discipline::kDeadline,
      core::DeadlineSchedulerConfig{},
      [](NodeId player, util::Rng& rng) {
        return 4.0 + rng.uniform(0.0, 4.0) + 0.1 * static_cast<double>(player % 7);
      },
      [&st, &sim](const core::PacketDelivery& d) {
        const std::uint64_t t0 = st.traced ? obs::wall_now_us() : 0;
        fold(st.digest, d.segment_id);
        fold(st.digest, static_cast<std::uint64_t>(d.packet_index));
        fold(st.digest, std::bit_cast<std::uint64_t>(d.sent_ms));
        fold(st.digest, std::bit_cast<std::uint64_t>(
                            d.lost ? d.deadline_ms : d.arrival_ms));
        fold(st.digest, d.lost ? 1 : 0);
        ++st.deliveries;
        if (d.on_time()) ++st.on_time;
        if (st.traced) {
          // A delivery ahead of the sim clock was completed inside a train.
          if (d.sent_ms > sim.now()) ++st.inline_deliveries;
          st.hook_us += obs::wall_now_us() - t0;
        }
      },
      util::Rng(seed).fork("e2e.packet.sender"));
  const Kbps uplink = w.uplink_kbps;
  // Every 4th player sits behind a WAN bottleneck at half the uplink; every
  // 5th sees 1% network loss.
  sender.set_rate_cap([uplink](NodeId player, std::uint64_t) {
    return player % 4 == 0 ? uplink / 2.0 : 0.0;
  });
  sender.set_loss_model(
      [](NodeId player, std::uint64_t) { return player % 5 == 0 ? 0.01 : 0.0; });
  sender.set_drop_observer(
      [&st](const stream::VideoSegment& seg, int packet_index) {
        fold(st.digest, seg.id);
        fold(st.digest, static_cast<std::uint64_t>(packet_index));
        fold(st.digest, 0xd0ull);  // domain-separate drops from deliveries
      });
  return sender;
}

/// Offered load, round-major: every player submits a 240-480 kbit segment
/// per round, about 0.9 of the uplink; every 8th round is a 2.5x overload
/// that drives the scheduler into Eq (12)-(14) drops.
std::vector<Kbit> packet_load(const PacketWorkload& w, std::uint64_t seed) {
  // One spare round: the ticker's accumulated clock may land just short
  // of the duration once more than duration / interval predicts.
  const auto rounds = static_cast<std::size_t>(w.duration_ms / w.interval_ms) + 1;
  util::Rng rng = util::Rng(seed).fork("e2e.packet.load");
  std::vector<Kbit> sizes(rounds * w.players);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double burst = (i / w.players + 1) % 8 == 0 ? 2.5 : 1.0;
    sizes[i] = rng.uniform(240.0, 480.0) * burst;
  }
  return sizes;
}

/// `metrics` is the registry installed for a traced repeat, else null.
Repeat packet_repeat(const PacketWorkload& w, std::uint64_t seed,
                     const obs::MetricsRegistry* metrics) {
  Repeat rep;
  const bool traced = metrics != nullptr;
  PacketState st;
  st.traced = traced;
  sim::Simulator sim;
  std::optional<core::SupernodeSender> sender;
  std::vector<Kbit> load;
  {
    obs::ScopedTimer repeat_span("e2e.repeat");
    {
      obs::ScopedTimer span("e2e.setup");
      const std::uint64_t t0 = obs::wall_now_us();
      load = packet_load(w, seed);
      sender.emplace(make_sender(sim, st, w, seed));
      rep.setup_s = seconds_since(t0);
    }

    // Games cycle through the catalog so deadlines and loss tolerances
    // differ between players.
    std::uint64_t round = 0;
    sim::EventId ticker = sim::kInvalidEvent;
    ticker = sim.schedule_every(w.interval_ms, w.interval_ms, [&] {
      const std::uint64_t t_tick = traced ? obs::wall_now_us() : 0;
      const TimeMs now = sim.now();
      if (now >= w.duration_ms) {  // stop generating; let the queue drain
        sim.cancel(ticker);
        return;
      }
      CF_CHECK_LE((round + 1) * w.players, load.size());
      const Kbit* sizes = load.data() + round * w.players;
      ++round;
      for (std::size_t p = 0; p < w.players; ++p) {
        const auto game_id = static_cast<game::GameId>(p % 5);
        const game::GameProfile& game = game::game_by_id(game_id);
        stream::VideoSegment seg;
        seg.id = round * 1000 + p;
        seg.player = static_cast<NodeId>(p + 1);
        seg.game = game_id;
        seg.quality_level = 3;
        seg.duration_ms = w.interval_ms;
        seg.size_kbit = sizes[p];
        seg.action_time_ms = now;
        seg.deadline_ms = now + game.latency_requirement_ms;
        seg.loss_tolerance = game.loss_tolerance;
        const std::uint64_t t_submit = traced ? obs::wall_now_us() : 0;
        sender->submit(seg);
        if (traced) st.submit_us += obs::wall_now_us() - t_submit;
        ++st.segments;
      }
      if (traced) st.tick_us += obs::wall_now_us() - t_tick;
    });

    obs::ScopedTimer span("e2e.run_all");
    const std::uint64_t t0 = obs::wall_now_us();
    sim.run_all();
    rep.wall_s = seconds_since(t0);
  }
  rep.segments = st.segments;
  rep.packets = sender->packets_sent();
  rep.digest = hex64(st.digest);
  const auto submitted = static_cast<double>(sender->packets_submitted());
  const auto dropped = static_cast<double>(sender->packets_dropped());
  const auto deliveries = static_cast<double>(st.deliveries);
  rep.facts = {{"submitted", submitted},
               {"sent", static_cast<double>(rep.packets)},
               {"dropped", dropped},
               {"deliveries", deliveries},
               {"on_time_frac", ratio(static_cast<double>(st.on_time), deliveries)},
               {"drop_frac", ratio(dropped, submitted)}};
  if (!traced) return rep;

  // Every train starts with a delivery from a sim event; the rest of the
  // train completes inline. Self time is run_all minus the bench's hooks.
  const double run_us = rep.wall_s * 1e6;
  const auto inline_deliveries = static_cast<double>(st.inline_deliveries);
  rep.layers = {
      {"sim.events_per_packet",
       ratio(counter(*metrics, "sim.events.executed"),
             static_cast<double>(rep.packets))},
      {"core.sender.inline_frac", ratio(inline_deliveries, deliveries)},
      {"core.sender.train_len_mean",
       ratio(deliveries, deliveries - inline_deliveries)},
      {"core.sender.submit_frac", ratio(static_cast<double>(st.submit_us), run_us)},
      {"core.sender.run_self_frac",
       ratio(run_us - static_cast<double>(st.hook_us + st.tick_us), run_us)},
      {"systems.event_loop_ms", rep.wall_s * 1e3}};
  return rep;
}

// --- main -------------------------------------------------------------------

/// Engine, latency-model, scheduler, adaptation and buffer counters, read
/// the same way on every workload.
void add_registry_layers(Repeat& rep, const obs::MetricsRegistry& m) {
  const double executed = counter(m, "sim.events.executed");
  const double cancelled = counter(m, "sim.events.cancelled");
  const auto segments = static_cast<double>(rep.segments);
  const double memo_hits = counter(m, "net.latency.pair_memo.hits");
  const double memo_misses = counter(m, "net.latency.pair_memo.misses");
  rep.layers.insert(
      rep.layers.end(),
      {{"sim.events_per_segment", ratio(executed, segments)},
       {"sim.cancelled_frac", ratio(cancelled, executed + cancelled)},
       {"net.latency.samples_per_segment",
        ratio(counter(m, "net.latency.samples"), segments)},
       {"net.latency.pair_memo.hit_ratio",
        ratio(memo_hits, memo_hits + memo_misses)},
       {"core.scheduler.drops_per_segment",
        ratio(counter(m, "core.scheduler.packets_dropped"),
              counter(m, "core.scheduler.segments_enqueued"))},
       {"core.scheduler.deadline_misses",
        counter(m, "core.scheduler.deadline_misses")},
       {"core.adaptation.switches", counter(m, "core.adaptation.switches_up") +
                                        counter(m, "core.adaptation.switches_down")},
       {"stream.buffer.stalls", counter(m, "stream.buffer.stalls")},
       {"systems.build_ms", rep.setup_s * 1e3}});
}

/// One set-up of the workload, timed and dropped: what setup_s measures.
double time_setup(const Workload& w, std::uint64_t seed) {
  const std::uint64_t t0 = obs::wall_now_us();
  if (w.streaming) {
    const systems::Scenario scenario =
        systems::Scenario::build(scenario_params(*w.streaming));
    const systems::StreamingOptions options =
        streaming_options(*w.streaming, scenario, seed);
    return seconds_since(t0);
  }
  const std::vector<Kbit> load = packet_load(*w.packet, seed);
  sim::Simulator sim;
  PacketState st;
  const core::SupernodeSender sender = make_sender(sim, st, *w.packet, seed);
  return seconds_since(t0);
}

Repeat run_repeat(const Workload& w, std::uint64_t seed, bool traced,
                  const std::string& trace_out) {
  if (!traced) {
    return w.streaming ? streaming_repeat(*w.streaming, seed, nullptr)
                       : packet_repeat(*w.packet, seed, nullptr);
  }
  obs::MetricsRegistry metrics;
  obs::TraceRecorder recorder;
  Repeat rep;
  {
    const obs::ScopedRegistry registry_scope(metrics);
    const obs::ScopedTracer tracer_scope(recorder);
    rep = w.streaming ? streaming_repeat(*w.streaming, seed, &metrics)
                      : packet_repeat(*w.packet, seed, &metrics);
  }
  rep.traced = true;
  add_registry_layers(rep, metrics);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << recorder.to_chrome_json();
    CF_CHECK_MSG(out.good(), "cannot write " + trace_out);
  }
  return rep;
}

double peak_rss_mb() {
  rusage usage{};
  CF_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_fields(std::ostream& out, const Fields& fields) {
  out << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << obs::json::escape(fields[i].first)
        << "\":" << obs::json::num(fields[i].second);
  }
  out << '}';
}

struct Report {
  std::vector<double> setup_s;  // back-to-back set-ups in the fresh process
  double setup_slowdown = 1.0;  // host speed around them
  double peak_rss_mb = 0.0;
  std::vector<Repeat> repeats;  // measured
};

void write_report(std::ostream& out, const Workload& w, const Report& report) {
  out << "{\"workload\":\"" << obs::json::escape(w.name) << "\",\"setup_s\":[";
  for (std::size_t s = 0; s < report.setup_s.size(); ++s) {
    if (s > 0) out << ',';
    out << obs::json::num(report.setup_s[s]);
  }
  out << "],\"setup_slowdown\":" << obs::json::num(report.setup_slowdown)
      << ",\"peak_rss_mb\":" << obs::json::num(report.peak_rss_mb)
      << ",\"repeats\":[";
  for (std::size_t i = 0; i < report.repeats.size(); ++i) {
    const Repeat& r = report.repeats[i];
    if (i > 0) out << ',';
    out << "{\"traced\":" << (r.traced ? "true" : "false")
        << ",\"slowdown\":" << obs::json::num(r.slowdown)
        << ",\"wall_s\":" << obs::json::num(r.wall_s)
        << ",\"segments\":" << r.segments << ",\"packets\":" << r.packets
        << ",\"digest\":\"" << r.digest << "\",\"facts\":";
    write_fields(out, r.facts);
    out << ",\"layers\":";
    write_fields(out, r.layers);
    out << '}';
  }
  out << "]}\n";
}

int run(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::vector<std::string> unknown = flags.unknown(
      {"workload", "seed", "repeats", "seconds", "traced", "trace-out", "smoke"});
  const bool smoke = flags.get_bool("smoke", false);
  const std::optional<Workload> workload =
      find_workload(flags.get("workload"), smoke);
  const std::int64_t seed = flags.get_int("seed", 1);
  const std::int64_t repeats = flags.get_int("repeats", 0);
  const double seconds = flags.get_double("seconds", 0.0);
  if (!unknown.empty() || !flags.positional().empty() || !workload || seed < 0 ||
      repeats < 0 || seconds < 0.0 || (repeats == 0) == (seconds == 0.0)) {
    std::cerr << "usage: cloudfog_e2e --workload={fluid-40k,deadline-20k,"
                 "cache-churn-k4,packet-train} [--seed=S] "
                 "(--repeats=N | --seconds=T) [--traced] [--trace-out=PATH] "
                 "[--smoke]\n";
    return 2;
  }
  const auto s = static_cast<std::uint64_t>(seed);

  Report report;
  SpeedProbe probe;
  // Set-up is timed before any repeat has shaped the heap: after one, a
  // build can run 40% slower depending on what the repeat left behind.
  // Warm-up: the first two set-ups fault in fresh pages and grow the heap.
  for (int i = 0; i < 2; ++i) time_setup(*workload, s);
  double before = probe.slowdown();
  for (int i = 0; i < kSetupSamples; ++i) {
    report.setup_s.push_back(time_setup(*workload, s));
  }
  report.setup_slowdown = 0.5 * (before + probe.slowdown());
  run_repeat(*workload, s, false, "");  // warm-up: caches, allocator, pages
  // The footprint of one repeat in a fresh process. Later repeats reuse a
  // fragmented heap, and how far it grows depends on how many ran.
  report.peak_rss_mb = peak_rss_mb();
  before = probe.slowdown();
  const auto measure = [&](bool traced, const std::string& trace_out) {
    Repeat rep = run_repeat(*workload, s, traced, trace_out);
    const double after = probe.slowdown();
    rep.slowdown = 0.5 * (before + after);
    before = after;
    report.repeats.push_back(std::move(rep));
  };
  const std::uint64_t start_us = obs::wall_now_us();
  while (repeats > 0 ? report.repeats.size() < static_cast<std::size_t>(repeats)
                     : report.repeats.size() < kMinRepeats ||
                           seconds_since(start_us) < seconds) {
    measure(false, "");
  }
  if (flags.get_bool("traced", false)) measure(true, flags.get("trace-out"));
  write_report(std::cout, *workload, report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cloudfog_e2e: " << e.what() << "\n";
    return 1;
  }
}
