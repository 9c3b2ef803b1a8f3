#include "net/topology.h"

#include "net/trace.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudfog::net {

const char* to_string(HostRole role) {
  switch (role) {
    case HostRole::kPlayer: return "player";
    case HostRole::kDatacenter: return "datacenter";
    case HostRole::kEdgeServer: return "edge-server";
  }
  return "?";
}

NodeId Topology::add_host(HostRole role, GeoPoint position, TimeMs last_mile_ms,
                          std::string label, TimeMs server_last_mile_ms) {
  CF_CHECK_MSG(last_mile_ms >= 0.0, "last-mile delay must be non-negative");
  Host h;
  h.id = static_cast<NodeId>(hosts_.size());
  h.role = role;
  h.position = position;
  h.last_mile_ms = last_mile_ms;
  h.server_last_mile_ms =
      server_last_mile_ms < 0.0 ? last_mile_ms : server_last_mile_ms;
  h.cos_lat = cos_lat(position);
  h.label = std::move(label);
  hosts_.push_back(std::move(h));
  return hosts_.back().id;
}

const Host& Topology::host(NodeId id) const {
  CF_CHECK_MSG(id < hosts_.size(), "unknown host id");
  return hosts_[id];
}

std::vector<NodeId> Topology::hosts_with_role(HostRole role) const {
  std::vector<NodeId> out;
  for (const auto& h : hosts_)
    if (h.role == role) out.push_back(h.id);
  return out;
}

Endpoint Topology::endpoint(NodeId id) const {
  const Host& h = host(id);
  return Endpoint{h.id, h.position, h.last_mile_ms, h.cos_lat};
}

Endpoint Topology::server_endpoint(NodeId id) const {
  const Host& h = host(id);
  return Endpoint{h.id, h.position, h.server_last_mile_ms, h.cos_lat};
}

TimeMs Topology::expected_server_one_way_ms(NodeId server, NodeId client) const {
  TimeMs traced = 0.0;
  // A trace measures end-to-end paths; the server-interface refinement only
  // applies to the synthetic model.
  if (trace_lookup(server, client, &traced)) return traced;
  return model_.expected_one_way_ms(server_endpoint(server), endpoint(client));
}

TimeMs Topology::expected_server_one_way_ms(NodeId server, NodeId client,
                                            double distance_km) const {
  TimeMs traced = 0.0;
  if (trace_lookup(server, client, &traced)) return traced;
  return model_.expected_one_way_ms(server_endpoint(server), endpoint(client),
                                    distance_km);
}

TimeMs Topology::expected_server_one_way_ms(NodeId server,
                                            const Endpoint& client,
                                            double distance_km) const {
  TimeMs traced = 0.0;
  if (trace_lookup(server, client.id, &traced)) return traced;
  return model_.expected_one_way_ms(server_endpoint(server), client,
                                    distance_km);
}

TimeMs Topology::sample_server_one_way_ms(NodeId server, NodeId client,
                                          util::Rng& rng) const {
  return server_path(server, client).sample(rng, jitter_sigma());
}

LatencyPath Topology::path(NodeId a, NodeId b) const {
  TimeMs traced = 0.0;
  if (trace_lookup(a, b, &traced)) return LatencyPath::traced(traced);
  return model_.path(endpoint(a), endpoint(b));
}

LatencyPath Topology::server_path(NodeId server, NodeId client) const {
  TimeMs traced = 0.0;
  if (trace_lookup(server, client, &traced)) return LatencyPath::traced(traced);
  return model_.path(server_endpoint(server), endpoint(client));
}

void Topology::attach_trace(const LatencyTrace* trace) { trace_ = trace; }

bool Topology::trace_lookup(NodeId a, NodeId b, TimeMs* out) const {
  if (trace_ == nullptr || a >= trace_->size() || b >= trace_->size())
    return false;
  *out = trace_->one_way_ms(a, b);
  return true;
}

double Topology::loss_probability(NodeId a, NodeId b) const {
  return model_.loss_probability(endpoint(a), endpoint(b));
}

double Topology::server_loss_probability(NodeId server, NodeId client) const {
  return model_.loss_probability(server_endpoint(server), endpoint(client));
}

TimeMs Topology::expected_one_way_ms(NodeId a, NodeId b) const {
  TimeMs traced = 0.0;
  if (trace_lookup(a, b, &traced)) return traced;
  return model_.expected_one_way_ms(endpoint(a), endpoint(b));
}

TimeMs Topology::expected_rtt_ms(NodeId a, NodeId b) const {
  // Via expected_one_way_ms so an attached trace is honoured.
  return 2.0 * expected_one_way_ms(a, b);
}

TimeMs Topology::sample_one_way_ms(NodeId a, NodeId b, util::Rng& rng) const {
  return path(a, b).sample(rng, jitter_sigma());
}

NodeId Topology::nearest(NodeId from, const std::vector<NodeId>& candidates) const {
  CF_CHECK_MSG(!candidates.empty(), "nearest() requires candidates");
  NodeId best = candidates.front();
  TimeMs best_lat = expected_one_way_ms(from, best);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const TimeMs lat = expected_one_way_ms(from, candidates[i]);
    if (lat < best_lat || (lat == best_lat && candidates[i] < best)) {
      best_lat = lat;
      best = candidates[i];
    }
  }
  return best;
}

namespace {

/// Scatters a point around a metro center by a Gaussian with the given
/// radius (km), converted to degrees (approximate, fine at US latitudes).
GeoPoint scatter(const GeoPoint& center, double radius_km, util::Rng& rng) {
  constexpr double kKmPerDegLat = 111.0;
  const double dlat = rng.normal(0.0, radius_km / kKmPerDegLat);
  const double cos_lat = std::max(0.2, std::cos(center.lat_deg * 3.14159265 / 180.0));
  const double dlon = rng.normal(0.0, radius_km / (kKmPerDegLat * cos_lat));
  return GeoPoint{center.lat_deg + dlat, center.lon_deg + dlon};
}

std::vector<double> metro_weights() {
  std::vector<double> w;
  w.reserve(us_metros().size());
  for (const auto& m : us_metros()) w.push_back(m.population_millions);
  return w;
}

}  // namespace

Topology build_topology(const PlacementConfig& config, const LatencyParams& params) {
  Topology topo{LatencyModel{params}};
  util::Rng rng(config.seed);
  util::Rng placement_rng = rng.fork("placement");
  util::Rng lastmile_rng = rng.fork("last-mile");

  const auto& metros = us_metros();
  const auto weights = metro_weights();

  // Datacenters at real cloud hub sites in deployment-priority order.
  const auto& dc_sites = us_datacenter_sites();
  CF_CHECK_MSG(config.num_datacenters <= dc_sites.size(),
               "more datacenters than hub sites available");
  for (std::size_t i = 0; i < config.num_datacenters; ++i) {
    topo.add_host(HostRole::kDatacenter, dc_sites[i].center,
                  config.server_last_mile_ms, "DC:" + dc_sites[i].name);
  }

  // Edge servers at randomly chosen metros (paper: "randomly distributed").
  for (std::size_t i = 0; i < config.num_edge_servers; ++i) {
    const std::size_t m = placement_rng.index(metros.size());
    topo.add_host(HostRole::kEdgeServer,
                  scatter(metros[m].center, 10.0, placement_rng),
                  config.server_last_mile_ms, "Edge:" + metros[m].name);
  }

  // Players sampled population-weighted with residential scatter and
  // exponential last-mile access delay.
  for (std::size_t i = 0; i < config.num_players; ++i) {
    const std::size_t m = placement_rng.weighted_index(weights);
    const GeoPoint pos =
        scatter(metros[m].center, config.player_scatter_km, placement_rng);
    double last_mile;
    if (config.planetlab_hosts) {
      // University hosts: small, tight access delay.
      last_mile = 0.5 + lastmile_rng.exponential(1.0 / 1.5);
    } else if (lastmile_rng.bernoulli(config.poor_connectivity_fraction)) {
      // Poorly connected players (rural links, congested towers): the heavy
      // tail behind the paper's low baseline coverage.
      last_mile = config.player_last_mile_min_ms +
                  config.poor_last_mile_median_ms * lastmile_rng.lognormal(0.0, 0.5);
    } else {
      // Residential access delay: lognormal around the configured median
      // with a heavy tail (DSL/cable/Wi-Fi), floored at the minimum.
      last_mile = config.player_last_mile_min_ms +
                  config.player_last_mile_mean_ms *
                      lastmile_rng.lognormal(0.0, 0.7);
    }
    // Wired (server-side) interface: bounded, tight — supernode vetting
    // screens for well-provisioned uplinks.
    const double wired =
        std::min(last_mile, 2.0 + lastmile_rng.exponential(1.0 / 2.0));
    topo.add_host(HostRole::kPlayer, pos, last_mile, metros[m].name, wired);
  }
  return topo;
}

Topology build_planetlab_topology(std::size_t num_hosts, std::uint64_t seed) {
  Topology topo{LatencyModel{LatencyParams::planetlab_profile(seed)}};
  util::Rng rng(seed);
  util::Rng placement_rng = rng.fork("pl-placement");
  util::Rng lastmile_rng = rng.fork("pl-last-mile");

  // The two cloud hosts the paper names: Princeton and UCLA.
  topo.add_host(HostRole::kDatacenter, princeton_coords(), 0.5,
                "DC:Princeton (128.112.139.43)");
  topo.add_host(HostRole::kDatacenter, ucla_coords(), 0.5,
                "DC:UCLA (131.179.150.72)");

  const auto& metros = us_metros();
  for (std::size_t i = 0; i < num_hosts; ++i) {
    // PlanetLab sites skew towards university towns; uniform metro choice
    // (rather than population-weighted) approximates that spread.
    const std::size_t m = placement_rng.index(metros.size());
    const GeoPoint pos = [&] {
      constexpr double kKmPerDegLat = 111.0;
      const double r = 15.0 / kKmPerDegLat;
      return GeoPoint{metros[m].center.lat_deg + placement_rng.normal(0.0, r),
                      metros[m].center.lon_deg + placement_rng.normal(0.0, r)};
    }();
    const double last_mile = 0.5 + lastmile_rng.exponential(1.0 / 1.5);
    topo.add_host(HostRole::kPlayer, pos, last_mile, metros[m].name);
  }
  return topo;
}

}  // namespace cloudfog::net
