#include "obs/exporters.h"

#include <fstream>

#include "obs/json.h"

namespace cloudfog::obs {

namespace {

std::string histogram_json(const Histogram& h) {
  std::string out = "{\"count\":" + std::to_string(h.count());
  out += ",\"sum\":" + json::num(h.sum());
  out += ",\"mean\":" + json::num(h.mean());
  out += ",\"min\":" + json::num(h.min());
  out += ",\"max\":" + json::num(h.max());
  out += ",\"p50\":" + json::num(h.quantile(0.50));
  out += ",\"p95\":" + json::num(h.quantile(0.95));
  out += ",\"p99\":" + json::num(h.quantile(0.99));
  out += ",\"buckets\":[";
  bool first = true;
  for (const auto& [edge, count] : h.nonzero_buckets()) {
    if (!first) out += ",";
    first = false;
    out += "[";
    out += json::num(edge);
    out += ",";
    out += std::to_string(count);
    out += "]";
  }
  out += "]}";
  return out;
}

}  // namespace

std::string metrics_to_json(const MetricsRegistry& registry) {
  std::string counters, gauges, histograms;
  registry.for_each([&](const std::string& name, const Counter* c,
                        const Gauge* g, const Histogram* h) {
    if (c != nullptr) {
      if (!counters.empty()) counters += ",";
      counters += "\"";
      counters += json::escape(name);
      counters += "\":";
      counters += std::to_string(c->value());
    } else if (g != nullptr) {
      if (!gauges.empty()) gauges += ",";
      gauges += "\"";
      gauges += json::escape(name);
      gauges += "\":{\"value\":" + json::num(g->value()) +
                ",\"max\":" + json::num(g->max()) + "}";
    } else if (h != nullptr) {
      if (!histograms.empty()) histograms += ",";
      histograms += "\"";
      histograms += json::escape(name);
      histograms += "\":";
      histograms += histogram_json(*h);
    }
  });
  return "{\"schema_version\":1,\"counters\":{" + counters + "},\"gauges\":{" +
         gauges + "},\"histograms\":{" + histograms + "}}";
}

std::string metrics_to_csv(const MetricsRegistry& registry) {
  std::string out = "kind,name,field,value\n";
  const auto row = [&out](const char* kind, const std::string& name,
                          const char* field, const std::string& value) {
    out += kind;
    out += ",";
    // Metric names are identifier-like by convention; quote defensively if
    // one ever contains a comma.
    if (name.find(',') != std::string::npos) {
      out += "\"" + name + "\"";
    } else {
      out += name;
    }
    out += ",";
    out += field;
    out += ",";
    out += value;
    out += "\n";
  };
  registry.for_each([&](const std::string& name, const Counter* c,
                        const Gauge* g, const Histogram* h) {
    if (c != nullptr) {
      row("counter", name, "value", std::to_string(c->value()));
    } else if (g != nullptr) {
      row("gauge", name, "value", json::num(g->value()));
      row("gauge", name, "max", json::num(g->max()));
    } else if (h != nullptr) {
      row("histogram", name, "count", std::to_string(h->count()));
      row("histogram", name, "mean", json::num(h->mean()));
      row("histogram", name, "min", json::num(h->min()));
      row("histogram", name, "max", json::num(h->max()));
      row("histogram", name, "p50", json::num(h->quantile(0.50)));
      row("histogram", name, "p95", json::num(h->quantile(0.95)));
      row("histogram", name, "p99", json::num(h->quantile(0.99)));
    }
  });
  return out;
}

std::string metrics_to_jsonl(const MetricsRegistry& registry) {
  std::string out;
  registry.for_each([&](const std::string& name, const Counter* c,
                        const Gauge* g, const Histogram* h) {
    std::string quoted = "\"";
    quoted += json::escape(name);
    quoted += "\"";
    if (c != nullptr) {
      out += "{\"kind\":\"counter\",\"name\":" + quoted +
             ",\"value\":" + std::to_string(c->value()) + "}\n";
    } else if (g != nullptr) {
      out += "{\"kind\":\"gauge\",\"name\":" + quoted +
             ",\"value\":" + json::num(g->value()) +
             ",\"max\":" + json::num(g->max()) + "}\n";
    } else if (h != nullptr) {
      out += "{\"kind\":\"histogram\",\"name\":" + quoted +
             ",\"stats\":" + histogram_json(*h) + "}\n";
    }
  });
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) return false;
  os << content;
  os.flush();
  return os.good();
}

bool write_metrics(const MetricsRegistry& registry, const std::string& path) {
  const auto ends_with = [&path](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".csv")) return write_file(path, metrics_to_csv(registry));
  if (ends_with(".jsonl")) return write_file(path, metrics_to_jsonl(registry));
  return write_file(path, metrics_to_json(registry));
}

}  // namespace cloudfog::obs
