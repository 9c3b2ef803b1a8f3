// Google-benchmark microbenchmarks of the hot substrate paths: event queue
// throughput, latency-model evaluation, the fluid senders and the deadline
// scheduler. These bound how large a scenario the simulator can sustain on
// one core.
//
// Besides google-benchmark's own flags, the obs harness flags are accepted
// (--bench-json / --metrics-out / --trace-out / --bench-warmup /
// --bench-repeats; see obs/bench_harness.h) and are stripped from argv
// before benchmark::Initialize sees them.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "obs/bench_harness.h"
#include "util/flags.h"

#include "core/deadline_scheduler.h"
#include "core/supernode_manager.h"
#include "net/latency_model.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "stream/queued_sender.h"
#include "stream/video.h"
#include "systems/scenario.h"
#include "util/rng.h"
#include "world/interest.h"
#include "world/partition.h"

namespace cloudfog {
namespace {

/// Console reporter that additionally publishes every case's adjusted real
/// time (ns/op) into the obs registry, so `--bench-json` artifacts carry a
/// per-benchmark "benchmarks" section scripts/bench_compare.py can diff.
class ObsRecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      obs::record_bench_result(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

void BM_SimulatorScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [] {});
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleAndRun)->Arg(1'000)->Arg(10'000);

void BM_SimulatorPeriodicEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_every(static_cast<double>(i), 10.0, [] {});
    }
    sim.run_until(1'000.0);
    benchmark::DoNotOptimize(sim.executed());
  }
}
BENCHMARK(BM_SimulatorPeriodicEvents);

void BM_SimulatorSteadyState(benchmark::State& state) {
  // One schedule + one fire per iteration on a long-lived simulator: the
  // engine's steady-state hot path (slab warm, no growth).
  sim::Simulator sim;
  for (int i = 0; i < 64; ++i) sim.schedule_at(0.0, [] {});
  sim.run_all();
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    sim.schedule_after(1.0, [&ticks] { ++ticks; });
    sim.step();
  }
  benchmark::DoNotOptimize(ticks);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorSteadyState);

void BM_SimulatorCancelChurn(benchmark::State& state) {
  // Schedule a batch, cancel half of it, run the survivors — exercises
  // handle lookup, tombstoning and the eager tombstone purge.
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(1'000);
    for (int i = 0; i < 1'000; ++i) {
      ids.push_back(sim.schedule_at(static_cast<double>(i % 89), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    sim.run_all();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_SimulatorCancelChurn);

void BM_SimulatorRoster(benchmark::State& state) {
  // The streaming engine's event mix with no model: one periodic segment
  // tick per player at a random phase, each fire scheduling a one-shot
  // follow-up (the segment's delivery) 20-120 ms later. About two events
  // stay pending per player, so the pending set grows with the roster.
  // One iteration fires one event.
  constexpr TimeMs kPeriod = 1000.0 / 15.0;
  sim::Simulator sim;
  util::Rng rng(7);
  std::uint64_t delivered = 0;
  for (std::int64_t p = 0; p < state.range(0); ++p) {
    sim.schedule_every(rng.uniform(0.0, kPeriod), kPeriod,
                       [&sim, &rng, &delivered] {
                         sim.schedule_after(rng.uniform(20.0, 120.0),
                                            [&delivered] { ++delivered; });
                       });
  }
  sim.run_until(4 * kPeriod);  // warm: every follow-up stream in flight
  for (auto _ : state) {
    sim.step();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorRoster)->Arg(1'000)->Arg(20'000)->Arg(100'000);

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(1);
  double total = 0.0;
  for (auto _ : state) total += rng.uniform();
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void BM_RngPareto(benchmark::State& state) {
  util::Rng rng(1);
  double total = 0.0;
  for (auto _ : state) total += rng.pareto_with_mean(5.0, 1.0);
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_RngPareto);

// The node-capacity draw as Population makes it: the Pareto scale solved
// once, then one capped sample per player.
void BM_CappedParetoDraw(benchmark::State& state) {
  util::Rng rng(1);
  const auto capacity = util::CappedPareto::with_mean(5.0, 1.0);
  double total = 0.0;
  for (auto _ : state) total += capacity(rng);
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CappedParetoDraw);

// Whole scenario set-up (topology, population, social graph, supernode
// pick, game join) at the e2e bench's population scaling: fleets and
// datacenter provisioning grow with the population from the 10k shape.
void BM_ScenarioBuild(benchmark::State& state) {
  const auto players = static_cast<std::size_t>(state.range(0));
  systems::ScenarioParams p = systems::ScenarioParams::simulation_defaults(1);
  const double f = static_cast<double>(players) / 10'000.0;
  p.num_players = players;
  p.num_supernodes = std::max<std::size_t>(30, static_cast<std::size_t>(600.0 * f));
  p.num_edge_servers = std::max<std::size_t>(5, static_cast<std::size_t>(45.0 * f));
  p.dc_uplink_kbps *= f;
  for (auto _ : state) {
    const systems::Scenario scenario = systems::Scenario::build(p);
    benchmark::DoNotOptimize(scenario.player_games().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScenarioBuild)->Arg(40'000)->Unit(benchmark::kMillisecond);

void BM_LatencyExpectedOneWay(benchmark::State& state) {
  const net::LatencyModel model(net::LatencyParams::simulation_profile(1));
  const net::Endpoint a{1, {40.7, -74.0}, 10.0};
  const net::Endpoint b{2, {34.0, -118.2}, 8.0};
  double total = 0.0;
  for (auto _ : state) total += model.expected_one_way_ms(a, b);
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyExpectedOneWay);

void BM_LatencyPairBias(benchmark::State& state) {
  const net::LatencyModel model(net::LatencyParams::simulation_profile(1));
  double total = 0.0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    // 64 distinct unordered pairs, round-robin; every call derives its
    // pair's bias afresh.
    total += model.pair_bias(i & 7u, 8u + ((i >> 3) & 7u));
    ++i;
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyPairBias);

void BM_LatencySampleOneWay(benchmark::State& state) {
  const net::LatencyModel model(net::LatencyParams::simulation_profile(1));
  util::Rng rng(3);
  std::vector<net::Endpoint> eps;
  for (NodeId id = 0; id < 16; ++id) {
    eps.push_back(net::Endpoint{id,
                                {30.0 + rng.uniform(0.0, 18.0),
                                 -120.0 + rng.uniform(0.0, 45.0)},
                                rng.uniform(1.0, 20.0)});
  }
  double total = 0.0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    total += model.sample_one_way_ms(eps[i & 15u], eps[(i >> 4) & 15u], rng);
    ++i;
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencySampleOneWay);

/// A 40k-host roster and one distinct pair per host — the streaming run's
/// per-player pairs.
constexpr std::size_t kRosterSize = 40'000;

std::vector<net::Endpoint> roster_endpoints() {
  util::Rng rng(5);
  std::vector<net::Endpoint> eps;
  eps.reserve(kRosterSize);
  for (std::size_t i = 0; i < kRosterSize; ++i) {
    const net::GeoPoint pos{30.0 + rng.uniform(0.0, 18.0),
                            -120.0 + rng.uniform(0.0, 45.0)};
    eps.push_back(net::Endpoint{static_cast<NodeId>(i), pos,
                                rng.uniform(1.0, 20.0), net::cos_lat(pos)});
  }
  return eps;
}

std::size_t roster_peer(std::size_t i) { return (i + 20'011) % kRosterSize; }

void BM_LatencySampleRoster(benchmark::State& state) {
  // Unresolved samples cycling over the roster's pairs, each evaluating its
  // pair from scratch: the cost a per-sample caller would pay.
  const net::LatencyModel model(net::LatencyParams::simulation_profile(1));
  const std::vector<net::Endpoint> eps = roster_endpoints();
  util::Rng rng(3);
  double total = 0.0;
  std::size_t i = 0;
  for (auto _ : state) {
    total += model.sample_one_way_ms(eps[i], eps[roster_peer(i)], rng);
    if (++i == kRosterSize) i = 0;
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencySampleRoster);

void BM_LatencyPathSample(benchmark::State& state) {
  // The same pairs resolved once into LatencyPaths (untimed), then sampled
  // round-robin: the streaming engine's per-segment cost.
  const net::LatencyModel model(net::LatencyParams::simulation_profile(1));
  const std::vector<net::Endpoint> eps = roster_endpoints();
  std::vector<net::LatencyPath> paths;
  paths.reserve(kRosterSize);
  for (std::size_t i = 0; i < kRosterSize; ++i)
    paths.push_back(model.path(eps[i], eps[roster_peer(i)]));
  const double sigma = model.params().jitter_sigma;
  util::Rng rng(3);
  double total = 0.0;
  std::size_t i = 0;
  for (auto _ : state) {
    total += paths[i].sample(rng, sigma);
    if (++i == kRosterSize) i = 0;
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyPathSample);

void BM_SupernodeAssign(benchmark::State& state) {
  // Section III-A3 assignment against a roster of S supernodes; each
  // iteration assigns one player and releases the slot so the roster state
  // is identical every iteration.
  const auto S = static_cast<std::size_t>(state.range(0));
  net::PlacementConfig config;
  config.num_players = 2'048 + S;
  config.num_datacenters = 2;
  const net::Topology topo =
      net::build_topology(config, net::LatencyParams::simulation_profile(1));
  const auto players = topo.hosts_with_role(net::HostRole::kPlayer);
  core::SupernodeManager mgr(topo, core::SupernodeManagerConfig{},
                             util::Rng(7));
  for (std::size_t i = 0; i < S; ++i) {
    mgr.add_supernode(players[i], 64, 10'000.0);
  }
  std::size_t i = 0;
  const std::size_t callers = players.size() - S;
  for (auto _ : state) {
    const NodeId p = players[S + (i % callers)];
    core::Assignment a = mgr.assign(p, 150.0);
    if (!a.direct_to_cloud()) mgr.release(a.supernode);
    benchmark::DoNotOptimize(a.delay_ms);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SupernodeAssign)->Arg(64)->Arg(512);

void BM_TopologyNearestOf25(benchmark::State& state) {
  net::PlacementConfig config;
  config.num_players = 100;
  config.num_datacenters = 25;
  const net::Topology topo =
      net::build_topology(config, net::LatencyParams::simulation_profile(1));
  const auto dcs = topo.hosts_with_role(net::HostRole::kDatacenter);
  const auto players = topo.hosts_with_role(net::HostRole::kPlayer);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.nearest(players[i % players.size()], dcs));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopologyNearestOf25);

void BM_QueuedSenderEnqueue(benchmark::State& state) {
  stream::QueuedSender sender(1'000'000.0);
  double now = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sender.enqueue(now, 53.0));
    now += 0.01;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueuedSenderEnqueue);

void BM_DeadlineSchedulerEnqueuePop(benchmark::State& state) {
  stream::SegmentFactory factory;
  for (auto _ : state) {
    core::DeadlineScheduler sched(30'000.0, core::DeadlineSchedulerConfig{});
    double now = 0.0;
    for (int i = 0; i < 64; ++i) {
      sched.enqueue(
          factory.make(static_cast<NodeId>(i % 8), i % 5, 3, 33.3, now), now);
      now += 4.0;
    }
    while (sched.pop_packet(now).has_value()) {
    }
    benchmark::DoNotOptimize(sched.total_dropped_packets());
  }
}
BENCHMARK(BM_DeadlineSchedulerEnqueuePop);

void BM_PacketizeSegment(benchmark::State& state) {
  stream::SegmentFactory factory;
  const auto seg = factory.make(1, 4, 5, 100.0, 0.0);  // 180 kbit, 15 packets
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream::packetize(seg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketizeSegment);

void BM_WorldTick(benchmark::State& state) {
  world::WorldConfig config;
  config.width = config.height = 4'000.0;
  world::VirtualWorld w(config);
  util::Rng rng(1);
  std::vector<world::AvatarId> avatars;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) avatars.push_back(w.spawn(rng));
  for (auto _ : state) {
    for (auto a : avatars) {
      w.submit({a, world::ActionType::kMove, 1.0, 0.5});
    }
    benchmark::DoNotOptimize(w.tick(rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorldTick)->Arg(500)->Arg(2'000);

void BM_KdPartitionBuild(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<world::Position> population;
  for (int i = 0; i < 10'000; ++i) {
    population.push_back(
        {rng.uniform(0.0, 4'000.0), rng.uniform(0.0, 4'000.0)});
  }
  for (auto _ : state) {
    world::KdPartition kd(population, 4);
    benchmark::DoNotOptimize(kd.servers());
  }
}
BENCHMARK(BM_KdPartitionBuild);

void BM_InterestRefresh(benchmark::State& state) {
  world::WorldConfig config;
  config.width = config.height = 4'000.0;
  config.region_size = 250.0;
  world::VirtualWorld w(config);
  util::Rng rng(3);
  world::InterestManager interest(w, 1);
  for (NodeId sn = 0; sn < 100; ++sn) {
    for (int p = 0; p < 5; ++p) interest.track(sn, w.spawn(rng));
  }
  for (auto _ : state) {
    interest.refresh();
    benchmark::DoNotOptimize(interest.supernodes());
  }
}
BENCHMARK(BM_InterestRefresh);

}  // namespace
}  // namespace cloudfog

int main(int argc, char** argv) {
  // Partition argv: the obs harness flags go to util::Flags, everything
  // else (--benchmark_filter, ...) stays for google-benchmark.
  std::vector<char*> bench_argv{argv[0]};
  std::vector<char*> obs_argv{argv[0]};
  const auto is_harness_flag = [](const char* arg) {
    for (const std::string& key : cloudfog::obs::bench_flag_keys()) {
      const std::string flag = "--" + key;
      if (arg == flag || std::string(arg).rfind(flag + "=", 0) == 0) return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if (is_harness_flag(argv[i])) {
      obs_argv.push_back(argv[i]);
      // `--key value` form: the value token travels with the flag.
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc &&
          argv[i + 1][0] != '-') {
        obs_argv.push_back(argv[++i]);
      }
    } else {
      bench_argv.push_back(argv[i]);
    }
  }

  const cloudfog::util::Flags flags(static_cast<int>(obs_argv.size()),
                                    obs_argv.data());
  cloudfog::obs::BenchHarness harness(
      "microbench",
      cloudfog::obs::bench_options_from_flags(flags, "microbench"));
  return harness.run([&bench_argv]() -> int {
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data()))
      return 1;
    cloudfog::ObsRecordingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
  });
}
