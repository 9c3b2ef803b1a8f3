// Experiment scenario: everything the Section-IV experiments share — the
// topology (simulation or PlanetLab profile), the player population, the
// social graph, the selected supernodes and a friend-driven static game
// assignment. Systems (Cloud / EdgeCloud / CloudFog) are evaluated over the
// same scenario so their comparison is apples-to-apples, exactly as in the
// paper.
#pragma once

#include <cstdint>
#include <vector>

#include "game/game.h"
#include "net/topology.h"
#include "p2p/population.h"
#include "p2p/social_graph.h"
#include "util/rng.h"
#include "util/types.h"

namespace cloudfog::systems {

/// All scenario knobs with the paper's Section-IV defaults.
struct ScenarioParams {
  bool planetlab = false;
  std::size_t num_players = 10'000;
  std::size_t num_datacenters = 5;     // paper default (sim); 2 on PlanetLab
  std::size_t num_edge_servers = 45;   // EdgeCloud extra servers (sim); 8 PL
  std::size_t num_supernodes = 600;    // randomly selected capable players
  std::uint64_t seed = 1;

  // --- capacity / bandwidth model -----------------------------------------
  /// Datacenter streaming uplink (kbps). Bandwidth is the provider's major
  /// expense (paper Section I), so clouds are provisioned close to expected
  /// demand; this knob sets the per-DC provisioning.
  Kbps dc_uplink_kbps = 1'250'000.0;
  Kbps edge_uplink_kbps = 25'000.0;    // per EdgeCloud server
  std::size_t edge_capacity = 8;       // players per EdgeCloud server
  /// A supernode's uplink per unit of its Pareto capacity: a capacity-5
  /// machine offers 5 slots x this rate.
  Kbps supernode_kbps_per_slot = 6'000.0;
  Kbps update_stream_kbps = 100.0;     // Lambda: cloud->supernode update feed
  /// Per-flow WAN throughput cap: effective TCP window over the path RTT
  /// (long paths stream slower — the downstream-rate effect the paper's
  /// design targets). 0 disables the cap.
  Kbit tcp_window_kbit = 256.0;

  // --- supernode segment cache (DESIGN.md §11) -----------------------------
  /// Enables the supernode segment-cache + transcoding subsystem. With the
  /// flag off every existing output is byte-identical to the legacy model —
  /// the cache-off run is the oracle path, like use_spatial_index.
  bool use_segment_cache = false;
  /// Cache capacity per supernode capacity slot (kbit); total capacity is
  /// slots x this. 0 keeps the subsystem engaged but admits nothing — the
  /// ablation's fetch-everything baseline.
  double cache_kbit_per_slot = 4'000.0;
  /// Content-reuse period in segments (0 = every segment unique forever).
  std::uint64_t cache_content_loop_segments = 24;
  /// Cloud -> supernode fetch link and fixed request overhead.
  Kbps cache_fetch_kbps = 100'000.0;
  TimeMs cache_fetch_base_ms = 0.5;
  /// Linear transcode CPU-cost model (see cache::TranscodeModel).
  TimeMs cache_transcode_base_ms = 2.0;
  double cache_transcode_ms_per_kbit = 0.01;
  /// Price of a kbit of cloud egress in equivalent delay-ms — the joint
  /// admission trade-off weight (0 = delay-optimal only).
  double cache_egress_cost_ms_per_kbit = 0.05;

  // --- space-parallel streaming engine (DESIGN.md §13) ---------------------
  /// Geographic shards the streaming run is split across (src/shard). The
  /// QoE digest is invariant in the shard count: 1 (default) runs one event
  /// engine and is the oracle every K > 1 run byte-matches.
  std::size_t sim_shards = 1;
  /// Cooperative cross-supernode cache lookups: on a local miss that would
  /// hit the cloud, probe this many nearest peer supernodes first (needs
  /// use_segment_cache). 0 disables the protocol. The probe/response edges
  /// that cross shards are what gives the shard windows a finite lookahead.
  std::size_t cache_coop_neighbors = 0;
  /// Supernode-to-supernode transfer rate for cooperative cache hits.
  Kbps cache_coop_kbps = 50'000.0;

  // --- pipeline timing ------------------------------------------------------
  TimeMs compute_ms = 4.0;  // game-state computation at the cloud
  TimeMs render_ms = 4.0;   // video rendering (cloud, edge or supernode)

  // --- video ---------------------------------------------------------------
  double fps = 30.0;             // OnLive's frame rate (paper Section IV)
  int frames_per_segment = 2;    // ~67 ms segments in system-level runs
  /// VBR size variation: per-segment lognormal sigma (I-frames vs P-frames).
  double segment_size_sigma = 0.30;

  TimeMs segment_period_ms() const {
    return static_cast<double>(frames_per_segment) / fps * 1000.0;
  }

  /// Paper simulation-profile defaults (10,000 players, 5 DCs, 45 edge
  /// servers, 600 supernodes).
  static ScenarioParams simulation_defaults(std::uint64_t seed = 1);

  /// Paper PlanetLab-profile defaults (750 nodes, 2 DCs at Princeton/UCLA,
  /// 8 edge servers, supernodes drawn from 300 capable hosts).
  static ScenarioParams planetlab_defaults(std::uint64_t seed = 1);
};

/// A fully built world shared by all systems under comparison.
class Scenario {
 public:
  static Scenario build(const ScenarioParams& params);

  const ScenarioParams& params() const { return params_; }
  const net::Topology& topology() const { return topology_; }
  const p2p::Population& population() const { return population_; }
  const p2p::SocialGraph& social() const { return social_; }

  /// Population indices selected as supernodes (size <= num_supernodes,
  /// limited by the number of capable players).
  const std::vector<std::size_t>& supernode_players() const {
    return supernode_players_;
  }

  /// Static friend-driven game assignment for every player.
  const std::vector<game::GameId>& player_games() const { return player_games_; }

  NodeId player_host(std::size_t pop_index) const;
  game::GameId player_game(std::size_t pop_index) const;
  bool is_supernode_player(std::size_t pop_index) const;

  /// Supernode slot count: its Pareto capacity rounded to >= 1.
  int supernode_capacity(std::size_t pop_index) const;
  /// Supernode uplink: slots x supernode_kbps_per_slot.
  Kbps supernode_uplink_kbps(std::size_t pop_index) const;

  std::vector<NodeId> datacenters() const;
  std::vector<NodeId> edge_servers() const;

  /// A fresh deterministic RNG stream for an experiment component.
  util::Rng fork_rng(std::string_view label) const;

 private:
  Scenario(ScenarioParams params, net::Topology topology,
           p2p::Population population, p2p::SocialGraph social);

  ScenarioParams params_;
  net::Topology topology_;
  p2p::Population population_;
  p2p::SocialGraph social_;
  std::vector<std::size_t> supernode_players_;
  std::vector<bool> is_supernode_;
  std::vector<game::GameId> player_games_;
};

}  // namespace cloudfog::systems
