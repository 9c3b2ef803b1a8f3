#include "obs/bench_harness.h"

#include <algorithm>
#include <iostream>

#include "obs/exporters.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/flags.h"

namespace cloudfog::obs {

const std::string kBenchResultPrefix = "bench.result.";
const std::string kSweepResultPrefix = "bench.sweep.";

const std::vector<std::string>& bench_flag_keys() {
  static const std::vector<std::string> keys{
      "metrics-out", "trace-out", "bench-json", "bench-warmup",
      "bench-repeats"};
  return keys;
}

BenchOptions bench_options_from_flags(const util::Flags& flags,
                                      const std::string& bench_name) {
  BenchOptions o;
  o.metrics_out = flags.get("metrics-out", "");
  o.trace_out = flags.get("trace-out", "");
  if (flags.has("bench-json")) {
    o.bench_json = flags.get("bench-json", "");
    if (o.bench_json.empty()) o.bench_json = "BENCH_" + bench_name + ".json";
  }
  o.warmup = static_cast<int>(flags.get_int("bench-warmup", 0));
  o.repeats = static_cast<int>(flags.get_int("bench-repeats", 1));
  return o;
}

std::string bench_flags_help() {
  return "  --bench-json[=PATH]    emit BENCH_<name>.json (wall time, events/sec,\n"
         "                         peak queue depth, timer breakdown)\n"
         "  --metrics-out=PATH     metrics dump (.json / .csv / .jsonl)\n"
         "  --trace-out=PATH       Chrome trace_event JSON (open in Perfetto)\n"
         "  --bench-warmup=N       unmeasured warmup runs            [0]\n"
         "  --bench-repeats=N      measured runs                     [1]\n";
}

namespace {

std::string bench_json_document(const std::string& name,
                                const BenchOptions& options,
                                const std::vector<double>& wall_ms,
                                const MetricsRegistry& registry) {
  std::string out = "{\"schema_version\":1,\"bench\":\"" + json::escape(name) +
                    "\",\"warmup\":" + std::to_string(options.warmup) +
                    ",\"repeats\":" + std::to_string(options.repeats);

  double total = 0.0, lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < wall_ms.size(); ++i) {
    total += wall_ms[i];
    lo = i == 0 ? wall_ms[i] : std::min(lo, wall_ms[i]);
    hi = i == 0 ? wall_ms[i] : std::max(hi, wall_ms[i]);
  }
  const double mean =
      wall_ms.empty() ? 0.0 : total / static_cast<double>(wall_ms.size());
  out += ",\"wall_ms\":{\"runs\":[";
  for (std::size_t i = 0; i < wall_ms.size(); ++i) {
    if (i > 0) out += ",";
    out += json::num(wall_ms[i]);
  }
  out += "],\"mean\":" + json::num(mean) + ",\"min\":" + json::num(lo) +
         ",\"max\":" + json::num(hi) + "}";

  // Events/sec and peak queue depth come from the instrumented simulator;
  // both read 0 when the bench never runs one.
  const Counter* executed = registry.find_counter("sim.events.executed");
  const Gauge* depth = registry.find_gauge("sim.queue.depth");
  const std::uint64_t events = executed != nullptr ? executed->value() : 0;
  const double last_ms = wall_ms.empty() ? 0.0 : wall_ms.back();
  const double per_sec =
      last_ms > 0.0 ? static_cast<double>(events) / (last_ms / 1000.0) : 0.0;
  out += ",\"events\":{\"executed\":" + std::to_string(events) +
         ",\"per_sec\":" + json::num(per_sec) + "}";
  out += ",\"peak_queue_depth\":" +
         json::num(depth != nullptr ? depth->max() : 0.0);

  std::string counters, timers, results, sweeps;
  registry.for_each([&](const std::string& metric, const Counter* c,
                        const Gauge* g, const Histogram* h) {
    if (c != nullptr) {
      if (!counters.empty()) counters += ",";
      counters += "\"";
      counters += json::escape(metric);
      counters += "\":";
      counters += std::to_string(c->value());
    } else if (g != nullptr && metric.rfind(kBenchResultPrefix, 0) == 0) {
      // Per-benchmark results published by the body (google-benchmark
      // reporters, custom timing loops) via record_bench_result().
      if (!results.empty()) results += ",";
      results += "\"";
      results += json::escape(metric.substr(kBenchResultPrefix.size()));
      results += "\":";
      results += json::num(g->value());
    } else if (g != nullptr && metric.rfind(kSweepResultPrefix, 0) == 0) {
      // Per-sweep wall time published via record_sweep_wall_ms().
      if (!sweeps.empty()) sweeps += ",";
      sweeps += "\"";
      sweeps += json::escape(metric.substr(kSweepResultPrefix.size()));
      sweeps += "\":";
      sweeps += json::num(g->value());
    } else if (h != nullptr && metric.rfind("timers.", 0) == 0) {
      if (!timers.empty()) timers += ",";
      timers += "\"";
      timers += json::escape(metric);
      timers += "\":{\"count\":" + std::to_string(h->count()) +
                ",\"total\":" + json::num(h->sum()) +
                ",\"mean\":" + json::num(h->mean()) +
                ",\"p95\":" + json::num(h->quantile(0.95)) + "}";
    }
  });
  out += ",\"counters\":{" + counters + "},\"timers_ms\":{" + timers +
         "},\"benchmarks\":{" + results + "},\"sweeps\":{" + sweeps + "}}";
  return out;
}

}  // namespace

void record_bench_result(const std::string& name, double ns_per_op) {
  CF_OBS_GAUGE_SET((kBenchResultPrefix + name), ns_per_op);
}

void record_sweep_wall_ms(const std::string& label, double wall_ms) {
  CF_OBS_GAUGE_SET((kSweepResultPrefix + label), wall_ms);
}

BenchHarness::BenchHarness(std::string name, BenchOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  CF_CHECK_GE(options_.warmup, 0);
  CF_CHECK_GE(options_.repeats, 1);
}

int BenchHarness::run(const std::function<int()>& body) {
  const bool collect = !options_.metrics_out.empty() ||
                       !options_.trace_out.empty() ||
                       !options_.bench_json.empty();
  if (!collect) return body();

  MetricsRegistry registry;
  TraceRecorder recorder;
  ScopedRegistry install_registry(registry);
  ScopedTracer install_tracer(recorder);

  for (int i = 0; i < options_.warmup; ++i) {
    const int rc = body();
    if (rc != 0) return rc;
  }
  registry.reset();
  recorder.clear();

  std::vector<double> wall_ms;
  wall_ms.reserve(static_cast<std::size_t>(options_.repeats));
  for (int i = 0; i < options_.repeats; ++i) {
    // Artifacts snapshot the final repeat; earlier measured repeats
    // contribute wall time only.
    if (i > 0) registry.reset();
    const std::uint64_t start_us = wall_now_us();
    const int rc = body();
    wall_ms.push_back(static_cast<double>(wall_now_us() - start_us) / 1000.0);
    if (rc != 0) return rc;
  }

  int exit_code = 0;
  if (!options_.bench_json.empty()) {
    const std::string doc =
        bench_json_document(name_, options_, wall_ms, registry);
    if (write_file(options_.bench_json, doc)) {
      std::cout << "wrote " << options_.bench_json << "\n";
    } else {
      std::cerr << "cannot write " << options_.bench_json << "\n";
      exit_code = 1;
    }
  }
  if (!options_.metrics_out.empty()) {
    if (write_metrics(registry, options_.metrics_out)) {
      std::cout << "wrote " << options_.metrics_out << "\n";
    } else {
      std::cerr << "cannot write " << options_.metrics_out << "\n";
      exit_code = 1;
    }
  }
  if (!options_.trace_out.empty()) {
    if (write_file(options_.trace_out, recorder.to_chrome_json())) {
      std::cout << "wrote " << options_.trace_out << "\n";
    } else {
      std::cerr << "cannot write " << options_.trace_out << "\n";
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace cloudfog::obs
