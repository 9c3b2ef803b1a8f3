// Host registry and placement: who exists, where they sit, and how far apart
// any two hosts are in latency terms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/geo.h"
#include "net/latency_model.h"
#include "net/trace_fwd.h"
#include "util/rng.h"
#include "util/types.h"

namespace cloudfog::net {

/// Role a host plays in the infrastructure. Supernode capability of players
/// is decided by upper layers; the topology only distinguishes structural
/// roles.
enum class HostRole : std::uint8_t { kPlayer, kDatacenter, kEdgeServer };

const char* to_string(HostRole role);

/// Static description of one simulated host.
struct Host {
  NodeId id = kInvalidNode;
  HostRole role = HostRole::kPlayer;
  GeoPoint position;
  TimeMs last_mile_ms = 0.0;
  /// Access delay when this host acts as a *server* (streaming side). For
  /// datacenters/edge servers this equals last_mile_ms; for players it is
  /// the wired-interface delay — supernode eligibility screens for
  /// well-provisioned uplinks, so a contributed machine serves over its
  /// wired access, not the Wi-Fi path its owner games over.
  TimeMs server_last_mile_ms = 0.0;
  /// cos(latitude), precomputed once at add_host time and forwarded into
  /// every Endpoint so the latency model's haversine skips its two cos
  /// calls (bit-identical — see net::cos_lat).
  double cos_lat = 1.0;
  std::string label;  // metro name or datacenter name, for reports
};

/// Placement parameters for building a topology.
struct PlacementConfig {
  std::size_t num_players = 10'000;
  std::size_t num_datacenters = 5;
  std::size_t num_edge_servers = 0;
  double player_scatter_km = 30.0;       // Gaussian scatter around metro center
  double player_last_mile_mean_ms = 12.0; // median residential access delay
  double player_last_mile_min_ms = 1.0;
  double poor_connectivity_fraction = 0.2;  // rural / congested players
  double poor_last_mile_median_ms = 35.0;
  double server_last_mile_ms = 0.5;      // datacenters/edge servers: wired
  bool planetlab_hosts = false;          // true: university-grade last mile
  std::uint64_t seed = 1;
};

/// The world: hosts plus the latency model between them.
///
/// A measured LatencyTrace can be attached, after which pair latencies come
/// from the trace (with per-packet jitter on top) instead of the geographic
/// model — the workflow the paper used: PeerSim driven by a PlanetLab
/// trace. Loss probabilities and host metadata still come from the model.
class Topology {
 public:
  explicit Topology(LatencyModel model) : model_(std::move(model)) {}

  /// Attaches a measured trace overriding pairwise latencies for hosts with
  /// ids below trace->size(). The trace must outlive the topology (or be
  /// detached with nullptr).
  void attach_trace(const LatencyTrace* trace);
  bool has_trace() const { return trace_ != nullptr; }

  /// Registers a host; its id is assigned sequentially and returned.
  /// `server_last_mile_ms` < 0 (default) means "same as last_mile_ms".
  NodeId add_host(HostRole role, GeoPoint position, TimeMs last_mile_ms,
                  std::string label = {}, TimeMs server_last_mile_ms = -1.0);

  std::size_t size() const { return hosts_.size(); }
  const Host& host(NodeId id) const;
  const std::vector<Host>& hosts() const { return hosts_; }
  const LatencyModel& model() const { return model_; }

  /// All hosts with the given role.
  std::vector<NodeId> hosts_with_role(HostRole role) const;

  Endpoint endpoint(NodeId id) const;
  /// Endpoint using the host's server-side (wired) access delay.
  Endpoint server_endpoint(NodeId id) const;

  TimeMs expected_one_way_ms(NodeId a, NodeId b) const;
  TimeMs expected_rtt_ms(NodeId a, NodeId b) const;
  TimeMs sample_one_way_ms(NodeId a, NodeId b, util::Rng& rng) const;

  /// The pair's latency path, resolved once (an attached trace included):
  /// path(a, b).sample(rng, jitter_sigma()) is sample_one_way_ms(a, b, rng)
  /// bit for bit, minus the per-sample host lookups and pair evaluation.
  LatencyPath path(NodeId a, NodeId b) const;
  /// As path(), for the serving direction: sample_server_one_way_ms.
  LatencyPath server_path(NodeId server, NodeId client) const;
  /// The per-packet jitter sigma every LatencyPath::sample takes.
  double jitter_sigma() const { return model_.params().jitter_sigma; }

  /// Latency of the serving path between `server` (using its wired
  /// server-side interface) and `client` (using its access interface).
  TimeMs expected_server_one_way_ms(NodeId server, NodeId client) const;
  /// As above, with the pair's great-circle distance already in hand (e.g.
  /// from the supernode grid's candidate list). `distance_km` must be the
  /// exact haversine_km double for the two hosts' positions; the result is
  /// then bit-identical to the two-argument overload (a trace, when
  /// attached, still takes precedence and ignores the distance).
  TimeMs expected_server_one_way_ms(NodeId server, NodeId client,
                                    double distance_km) const;
  /// As above with the client endpoint already resolved (endpoint(client)).
  /// A probe loop over k candidate servers resolves the client once.
  TimeMs expected_server_one_way_ms(NodeId server, const Endpoint& client,
                                    double distance_km) const;
  TimeMs expected_server_rtt_ms(NodeId server, NodeId client) const {
    return 2.0 * expected_server_one_way_ms(server, client);
  }
  TimeMs sample_server_one_way_ms(NodeId server, NodeId client,
                                  util::Rng& rng) const;

  /// Per-packet loss probability between two hosts / along a serving path.
  double loss_probability(NodeId a, NodeId b) const;
  double server_loss_probability(NodeId server, NodeId client) const;

  /// The single nearest candidate (by expected one-way latency); requires a
  /// non-empty candidate list.
  NodeId nearest(NodeId from, const std::vector<NodeId>& candidates) const;

 private:
  /// Trace lookup helper: the trace value when both ids are covered.
  bool trace_lookup(NodeId a, NodeId b, TimeMs* out) const;

  LatencyModel model_;
  std::vector<Host> hosts_;
  const LatencyTrace* trace_ = nullptr;
};

/// Builds a topology per the config: datacenters at the largest metros
/// (round-robin spread), players sampled population-weighted with Gaussian
/// scatter, optional edge servers at random metros.
Topology build_topology(const PlacementConfig& config, const LatencyParams& params);

/// Builds the PlanetLab-profile topology the paper used: 750 university
/// hosts nationwide and 2 datacenters (Princeton, UCLA).
Topology build_planetlab_topology(std::size_t num_hosts = 750,
                                  std::uint64_t seed = 1);

}  // namespace cloudfog::net
