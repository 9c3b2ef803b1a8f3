#include "systems/scenario.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudfog::systems {

ScenarioParams ScenarioParams::simulation_defaults(std::uint64_t seed) {
  ScenarioParams p;
  p.seed = seed;
  return p;
}

ScenarioParams ScenarioParams::planetlab_defaults(std::uint64_t seed) {
  ScenarioParams p;
  p.planetlab = true;
  p.num_players = 750;
  p.num_datacenters = 2;
  p.num_edge_servers = 8;
  p.num_supernodes = 200;  // drawn from the 300 capable hosts
  p.dc_uplink_kbps = 300'000.0;  // two well-connected university hosts
  p.edge_uplink_kbps = 25'000.0;
  p.edge_capacity = 8;
  p.seed = seed;
  return p;
}

namespace {

net::Topology make_topology(const ScenarioParams& params) {
  if (params.planetlab) {
    // PlanetLab: 750 hosts + Princeton/UCLA datacenters built in; extra
    // edge servers for the EdgeCloud comparison are appended below via the
    // generic builder path, so here we extend the built topology.
    net::Topology topo = net::build_planetlab_topology(params.num_players, params.seed);
    util::Rng rng(params.seed);
    util::Rng edge_rng = rng.fork("pl-edges");
    const auto& metros = net::us_metros();
    // Datacenter sweeps beyond the two built-in hosts (Princeton/UCLA)
    // promote additional sites at the largest metros.
    for (std::size_t i = 2; i < params.num_datacenters; ++i) {
      topo.add_host(net::HostRole::kDatacenter, metros[i - 2].center, 0.5,
                    "DC:" + metros[i - 2].name);
    }
    for (std::size_t i = 0; i < params.num_edge_servers; ++i) {
      const auto& m = metros[edge_rng.index(metros.size())];
      topo.add_host(net::HostRole::kEdgeServer, m.center, 0.5, "Edge:" + m.name);
    }
    return topo;
  }
  net::PlacementConfig placement;
  placement.num_players = params.num_players;
  placement.num_datacenters = params.num_datacenters;
  placement.num_edge_servers = params.num_edge_servers;
  placement.seed = params.seed;
  return net::build_topology(placement,
                             net::LatencyParams::simulation_profile(params.seed));
}

}  // namespace

Scenario::Scenario(ScenarioParams params, net::Topology topology,
                   p2p::Population population, p2p::SocialGraph social)
    : params_(params),
      topology_(std::move(topology)),
      population_(std::move(population)),
      social_(std::move(social)) {}

Scenario Scenario::build(const ScenarioParams& params) {
  CF_CHECK_MSG(params.num_players >= 1, "scenario needs players");
  CF_CHECK_MSG(params.num_datacenters >= 1, "scenario needs a datacenter");

  net::Topology topology = make_topology(params);
  const std::vector<NodeId> player_hosts =
      topology.hosts_with_role(net::HostRole::kPlayer);
  CF_CHECK_MSG(player_hosts.size() == params.num_players,
               "topology/player count mismatch");

  util::Rng rng(params.seed);
  util::Rng pop_rng = rng.fork("population");
  util::Rng social_rng = rng.fork("social");
  util::Rng game_rng = rng.fork("games");
  util::Rng sn_rng = rng.fork("supernode-selection");

  p2p::PopulationConfig pop_config;
  if (params.planetlab) {
    // Paper: 300 of the 750 PlanetLab nodes have supernode capacity.
    pop_config.supernode_capable_fraction =
        std::min(1.0, 300.0 / static_cast<double>(params.num_players));
  }
  p2p::Population population(player_hosts, pop_config, pop_rng);
  p2p::SocialGraph social(population.size(), p2p::SocialGraphConfig{}, social_rng);

  Scenario scenario(params, std::move(topology), std::move(population),
                    std::move(social));

  // Randomly select supernodes among the capable players (paper: "We
  // randomly selected 600 supernodes").
  auto capable = scenario.population_.supernode_capable_indices();
  sn_rng.shuffle(capable);
  const std::size_t count = std::min(params.num_supernodes, capable.size());
  scenario.supernode_players_.assign(capable.begin(),
                                     capable.begin() + static_cast<std::ptrdiff_t>(count));
  std::sort(scenario.supernode_players_.begin(), scenario.supernode_players_.end());
  scenario.is_supernode_.assign(scenario.population_.size(), false);
  for (std::size_t i : scenario.supernode_players_) scenario.is_supernode_[i] = true;

  // Friend-driven static game assignment, mirroring the paper's join rule:
  // players "join" in random order; each picks the majority game among its
  // already-joined friends, or a uniform game when none has joined yet.
  // (A global majority-adoption pass would cascade the whole population
  // onto one game; the sequential rule preserves the paper's mix of
  // clustered-but-diverse game communities.)
  const std::size_t n = scenario.population_.size();
  auto& games = scenario.player_games_;
  games.assign(n, -1);
  std::vector<std::uint32_t> join_order(n);
  for (std::size_t i = 0; i < n; ++i) join_order[i] = static_cast<std::uint32_t>(i);
  game_rng.shuffle(join_order);
  std::vector<game::GameId> friend_games;  // one buffer for every join
  for (std::uint32_t i : join_order) {
    friend_games.clear();
    for (std::uint32_t f : scenario.social_.friends(i)) {
      if (games[f] >= 0) friend_games.push_back(games[f]);
    }
    games[i] = game::choose_game(friend_games, game_rng);
  }
  return scenario;
}

NodeId Scenario::player_host(std::size_t pop_index) const {
  return population_.player(pop_index).host;
}

game::GameId Scenario::player_game(std::size_t pop_index) const {
  CF_CHECK_MSG(pop_index < player_games_.size(), "player index out of range");
  return player_games_[pop_index];
}

bool Scenario::is_supernode_player(std::size_t pop_index) const {
  CF_CHECK_MSG(pop_index < is_supernode_.size(), "player index out of range");
  return is_supernode_[pop_index];
}

int Scenario::supernode_capacity(std::size_t pop_index) const {
  const double c = population_.player(pop_index).capacity;
  return std::max(1, static_cast<int>(std::lround(c)));
}

Kbps Scenario::supernode_uplink_kbps(std::size_t pop_index) const {
  return static_cast<double>(supernode_capacity(pop_index)) *
         params_.supernode_kbps_per_slot;
}

std::vector<NodeId> Scenario::datacenters() const {
  return topology_.hosts_with_role(net::HostRole::kDatacenter);
}

std::vector<NodeId> Scenario::edge_servers() const {
  return topology_.hosts_with_role(net::HostRole::kEdgeServer);
}

util::Rng Scenario::fork_rng(std::string_view label) const {
  return util::Rng(params_.seed).fork(label);
}

}  // namespace cloudfog::systems
