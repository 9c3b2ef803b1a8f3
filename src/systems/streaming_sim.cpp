// The streaming engine — DESIGN.md §13.
//
// One run, any number of cores, one digest: the world is split into K
// geographic shards along supernode geography (shard/partition.h; K =
// ScenarioParams::sim_shards, default 1), each shard owns a private slab
// event engine plus private copies of every piece of mutable state its
// entities touch (sender/buffer slabs, cache service), and a
// shard::ShardCluster advances all K in
// conservative time windows whose lookahead is the minimum latency any
// cross-shard message can carry. K = 1 is the ordinary run and the oracle
// every K > 1 digest is pinned to.
//
// Sharding invariants:
//   * A supernode and every player it serves live on the same shard, so
//     the only cross-shard traffic is the cooperative cache protocol
//     (probe + response between supernode pairs; systems/coop_probes.h,
//     whose ProbeRound pool is shard-local: a probe carries the content
//     key, so no shard reads another shard's round). With cooperation off
//     there are no cross-shard edges at all, the lookahead is infinite and
//     the run is embarrassingly parallel (a single window).
//   * Each supernode has a dense slot among its shard's supernodes, in
//     NodeId order: its cache, byte ledger and probe rank order are
//     vectors by that slot, so the serve path hashes nothing.
//   * Every stochastic entity draws from its own RNG stream (player:
//     jitter/p<pop>, packet sender: jitter/sn<node>), so its sample
//     sequence is a function of its own event order only — the reason the
//     digest is invariant in the shard count.
//   * Every latency the run samples is a net::LatencyPath resolved at
//     setup (a player's uplink, feed and stream path, an at-risk player's
//     failover path). Once the cluster runs no shard reads the topology;
//     all K share the Scenario's, which is immutable.
//   * All result reduction happens in a canonical order: per-player
//     accumulators (QoE records included) in global slot order, which is
//     population-index order, and per-supernode byte ledgers in NodeId
//     order. Remaining caveat: two *different* entities
//     colliding on an identical event timestamp could order differently
//     across shard counts — phases are continuous uniforms, so ties are
//     measure-zero.
//
// Events per segment. A generated segment costs one engine event, its
// pipeline completion (uplink, compute and render done). Its segment tick,
// which draws that pipeline, is an event only when it has to be:
//   * A tick reads only its own player's state (RNG stream, resolved paths,
//     failed_over), so it runs inline at the end of the player's last
//     pending action before it: a pipeline completion, or a cache delivery,
//     which draws the fluid propagation sample. With no other action of the
//     player in flight, the ticks before the earliest completion they create
//     run there too (run_ticks).
//   * It is an event at its own time when it is the player's first, when
//     another action of the player is still in flight, and always for a
//     player at risk of churn, whose failed_over a leave or join may flip
//     between the earlier action and the tick's time.
//   * No tick runs or is armed at or after the window end.
// The per-player draw order is unchanged, so every output is. One ordering
// caveat: a completion an inline tick schedules takes its seq at the
// earlier action, so against a *different* entity's event at an identical
// timestamp it may order differently than before; as above, such ties are
// measure-zero. Adaptation ticks stay periodic events: they write the
// quality level the completion reads.
//
// Sender trains: a packet sender without a segment cache stops a burst
// train only before its own earliest input (InputBlock: its players' next
// segment and adaptation ticks and pending completions, its supernode's
// next churn), not at any engine event, and a submit on an idle uplink
// starts the train at once. So a sender costs an event per train, not per
// packet. Senders with a cache keep the any-event rule: a cache delivery
// is an input at a time no block knows.
//
// Receive buffers: a delivery is not an event. It waits in the player's
// pending-arrival list (systems/pending_arrivals.h) until the player's
// adaptation tick, the only reader of the buffer, applies it in the order
// one event per arrival would have; the run's end flushes what reached the
// horizon.
//
// Supernode churn: scripted leave/join toggles.
// Leave releases the node's cache (cancelling in-flight jobs) and fails
// its players over to a per-player fluid queue at their home datacenter,
// provisioned at setup with a static share of the DC uplink (base DC load
// plus every at-risk player homed there); join re-registers an empty cache
// and the players return. Churn is shard-local by the co-location
// invariant. Under the packet-level scheduler kinds a leave additionally
// drains the departed sender's queued backlog and streams each segment's
// unsent remainder through the owning player's failover fluid queue (the
// in-flight packet, if any, still completes on the old path).
#include "systems/streaming_sim.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/edge_cache_service.h"
#include "core/rate_adaptation.h"
#include "core/supernode_sender.h"
#include "metrics/qoe.h"
#include "obs/metrics.h"
#include "obs/sim_hook.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "shard/cluster.h"
#include "shard/partition.h"
#include "sim/simulator.h"
#include "stream/queued_sender.h"
#include "stream/receiver_buffer.h"
#include "stream/stream_store.h"
#include "stream/video.h"
#include "systems/coop_probes.h"
#include "systems/pending_arrivals.h"
#include "systems/segment_ledger.h"
#include "util/check.h"
#include "util/stats.h"

namespace cloudfog::systems {

namespace {

/// Sentinel of the engine's 32-bit side-table indexes.
inline constexpr std::uint32_t kNoIndex =
    std::numeric_limits<std::uint32_t>::max();

/// What the run reads of a player's PlayerAssignment, and the cache slot of
/// its supernode (supernode players, with a segment cache only).
struct AssignedServer {
  NodeId server = kInvalidNode;
  ServerType type = ServerType::kDatacenter;
  NodeId home_dc = kInvalidNode;
  cache::CacheSlot cache_slot = cache::kNoSlot;
};

/// One streaming player. Kept lean — a run holds one per active player:
/// the game profile is a pointer into the static catalog, and the rate
/// adaptation state lives in StreamingEngine::adaptation_ (adaptive kinds
/// only). The host pairs a player samples every segment are resolved once
/// at setup, so the per-segment path reads no host table and evaluates no
/// pair.
struct ShardPlayer {
  NodeId host = kInvalidNode;
  int level = 0;
  const game::GameProfile* profile = nullptr;
  AssignedServer assignment;
  Kbps wan_cap_kbps = 0.0;
  double loss_prob = 0.0;
  stream::StoreHandle buffer = stream::kNullHandle;
  /// Fluid queue: private at a DC/edge server, the supernode's shared one
  /// for supernode players of the fluid kinds.
  stream::StoreHandle queue = stream::kNullHandle;
  bool failed_over : 1 = false;
  bool qoe_reported : 1 = false;  // see report_qoe()
  /// The next segment tick is an engine event (see run_ticks()).
  bool tick_armed : 1 = false;
  /// This player's input times are in its packet sender's InputBlock.
  bool in_input_block : 1 = false;
  /// Pending actions that draw from `rng`: pipeline completions and cache
  /// deliveries (players not at risk of churn only).
  std::uint16_t in_flight = 0;
  /// Index of this player's churn fallback in StreamingEngine::failover_
  /// (at-risk players only).
  std::uint32_t failover = kNoIndex;
  /// Handle of this player's supernode packet sender in the owning shard's
  /// packet_store (scheduling kinds only) — submit never hashes.
  stream::StoreHandle packet_sender = stream::kNullHandle;
  net::LatencyPath uplink;  // host -> edge server, or host -> home DC
  net::LatencyPath feed;    // home DC -> supernode (supernode players only)
  net::LatencyPath stream;  // server -> host
  /// Private sample stream: every stochastic draw this player causes
  /// (pipeline jitter, VBR size, fluid propagation) comes from here.
  util::Rng rng{0};
  std::uint32_t shard = 0;
  // K-invariant accumulators, reduced in global slot order after the run.
  std::uint32_t segments = 0;
  /// Action time of the next segment tick, accumulated period by period.
  TimeMs next_tick = 0.0;
  Kbit cloud_kbit = 0.0;
  double level_sum = 0.0;  // over the `segments` measured segments
  metrics::PlayerQoE qoe;

  /// The QoE record, marked reported: only reported players count towards
  /// the population aggregates (the collector's create-on-first-use).
  metrics::PlayerQoE& report_qoe() {
    qoe_reported = true;
    return qoe;
  }
};

/// Churn fallback of one at-risk player, provisioned at setup: a private
/// fluid queue at the home DC, the loss of the DC -> host path and the path
/// itself.
struct FailoverRoute {
  stream::StoreHandle queue = stream::kNullHandle;
  double loss_prob = 0.0;
  net::LatencyPath path;  // home DC -> host
};

/// Receiver-driven rate adaptation state of one player (Section III-B).
struct PlayerAdaptation {
  explicit PlayerAdaptation(core::RateAdaptationController c)
      : controller(std::move(c)) {}

  core::RateAdaptationController controller;
  Kbit arrived_at_last_tick = 0.0;
  PendingArrivals arrivals;  // deliveries the buffer has not seen yet
};

/// The inputs of one packet sender (DESIGN.md §13, "Sender trains"): the
/// times at which anything other than its own burst train may change its
/// queue. Each of its players' next segment tick and next adaptation tick,
/// their pending pipeline completions, and the supernode's next churn
/// instant. Inputs that will never run (a tick at or after the window end,
/// churn after the last) are left out. A multiset: an entry stands for
/// whichever input has its time, so two inputs at one time need no
/// bookkeeping of which is which.
class InputBlock {
 public:
  void add(TimeMs t) {
    times_.insert(std::upper_bound(times_.begin(), times_.end(), t,
                                   std::greater<TimeMs>()),
                  t);
  }
  /// The input at `from` moved to `to`: one rotate carries it from its old
  /// place to where add(to) would have put it.
  void replace(TimeMs from, TimeMs to) {
    const auto it = find(from);
    *it = to;
    if (to > from) {
      std::rotate(std::upper_bound(times_.begin(), it, to,
                                   std::greater<TimeMs>()),
                  it, it + 1);
    } else {
      std::rotate(it, it + 1,
                  std::upper_bound(it + 1, times_.end(), to,
                                   std::greater<TimeMs>()));
    }
  }
  void remove(TimeMs t) { times_.erase(find(t)); }
  /// The sender's input horizon.
  TimeMs earliest() const {
    return times_.empty() ? std::numeric_limits<TimeMs>::infinity()
                          : times_.back();
  }

 private:
  std::vector<TimeMs>::iterator find(TimeMs t) {
    // Most inputs leave or move as they run, when they are the earliest.
    if (!times_.empty() && times_.back() == t) return times_.end() - 1;
    const auto it = std::lower_bound(times_.begin(), times_.end(), t,
                                     std::greater<TimeMs>());
    CF_INVARIANT(it != times_.end() && *it == t,
                 "sender input block lost an input");
    return it;
  }

  // Descending: the earliest input, which each train reads and which an
  // input removes as it runs, is the last element.
  std::vector<TimeMs> times_;
};

/// Per-supernode byte ledger, filled in the node's own event order by the
/// cache serve observer and reduced in NodeId order — the K-invariant
/// replacement for the service's fleet-order byte accumulators.
struct NodeLedger {
  double edge_kbit = 0.0;
  double cloud_kbit = 0.0;
  double peer_kbit = 0.0;
  double window_cloud_kbit = 0.0;  // cloud fetches inside the window
};

/// Everything one shard's entities may mutate at run time. No instance of
/// anything below is ever touched by two shards: the window barrier is the
/// only synchronisation the run needs.
struct Shard {
  sim::Simulator* sim = nullptr;  // owned by the cluster
  stream::FluidSenderStore fluid_store;
  stream::ReceiverBufferStore buffer_store;
  stream::SegmentFactory factory;
  std::optional<cache::EdgeCacheService> cache;
  // Packet senders by value; completion events capture sender addresses,
  // so the slab must not grow once the first event runs — every sender is
  // created in setup_senders().
  stream::SlabStore<core::SupernodeSender> packet_store;
  // Each packet sender's inputs, created in step with packet_store so a
  // sender's handle names its block too. Filled only without a cache.
  stream::SlabStore<InputBlock> input_blocks;
  // Open packet-level segments, keyed by VideoSegment::delivery_tag; slots
  // are global player slots.
  SegmentLedger segments;
  // By supernode slot; assemble() reduces them in NodeId order.
  std::vector<NodeLedger> ledger;
};

struct SupernodeInfo {
  NodeId server = kInvalidNode;
  int slots = 0;
  Kbps uplink_kbps = 0.0;
  std::size_t shard = 0;
  /// Dense index among its shard's supernodes, in NodeId order: the slot of
  /// its cache, ledger and probe rank order.
  cache::CacheSlot slot = cache::kNoSlot;
  /// The node's packet sender in its shard's packet_store (scheduling
  /// kinds only).
  stream::StoreHandle sender = stream::kNullHandle;
  std::vector<std::size_t> player_slots;  // global slots, ascending
  bool initially_absent = false;
  std::vector<SupernodeChurnEvent> churn;  // sorted, alternation-checked
};

class StreamingEngine {
 public:
  StreamingEngine(SystemKind kind, const Scenario& scenario,
                  const StreamingOptions& options)
      : kind_(kind), scenario_(scenario), options_(options) {}

  StreamingResult run();

 private:
  /// Returns the assignment plan's active supernodes (population indices).
  std::vector<std::size_t> setup_players();
  void setup_supernode_infos(const std::vector<std::size_t>& active);
  void setup_partition();
  void setup_coop();
  void build_shards();
  void setup_cache_services();
  void setup_senders();
  void setup_failover();
  void setup_churn();
  /// Arms each player's first segment tick at its phase.
  void start_segment_ticks();
  /// Periodic adaptation ticks; they write the level the completion reads.
  void start_adaptation_ticks();
  /// The TCP-window cap of the server -> host path: one window per
  /// expected round trip, floored at 1 ms.
  Kbps tcp_window_cap_kbps(NodeId server, NodeId host) const;

  /// Runs the player's segment tick at next_tick, and, with no other action
  /// of the player in flight, every later tick before the earliest pipeline
  /// completion these ticks create. Leaves the next tick armed as an event
  /// unless one of those completions will run it.
  void run_ticks(std::size_t slot);
  /// One segment tick: draws the action pipeline, schedules its completion
  /// and advances next_tick by a period. Returns the completion time.
  TimeMs segment_tick(std::size_t slot);
  /// Schedules the next segment tick as an engine event, unless it falls at
  /// or after the window end.
  void arm_tick(std::size_t slot);
  /// A pipeline completion or cache delivery has drawn its last sample: if
  /// it was the player's last action in flight, the next tick runs inline.
  void end_action(std::size_t slot);
  void enqueue_segment(std::size_t slot, TimeMs t0);
  void submit_fluid(std::size_t slot, const stream::VideoSegment& seg);
  void submit_packet(std::size_t slot, stream::VideoSegment seg);
  void on_packet_delivery(std::size_t s, const core::PacketDelivery& d);
  void adaptation_tick(std::size_t slot);
  void apply_churn(NodeId server, bool leave);
  void fail_over_segment(Shard& sh,
                         const core::DeadlineScheduler::PendingSegment& pending);
  /// Queues `size` kbit for the player's receive buffer at `when` (adaptive
  /// kinds only; a no-op without a buffer). Schedules no event.
  void schedule_buffer_arrival(std::size_t slot, TimeMs when, Kbit size);
  /// Applies every pending arrival the event loop reached: run_until fires
  /// events at `horizon` itself.
  void flush_buffer_arrivals(TimeMs horizon);
  /// The segment ledgers' QoE accessor: a player's record, marked reported.
  auto qoe_of() {
    return [this](std::size_t slot) -> metrics::PlayerQoE& {
      return players_[slot].report_qoe();
    };
  }
  TimeMs window_end() const {
    return options_.warmup_ms + options_.duration_ms;
  }
  bool in_window(TimeMs t0) const {
    return t0 >= options_.warmup_ms && t0 < window_end();
  }
  /// Players at risk of churn keep every segment tick an engine event: a
  /// leave or join may flip `failed_over`, which the tick reads, between
  /// an earlier action and the tick's own time.
  static bool folds_ticks(const ShardPlayer& ps) {
    return ps.failover == kNoIndex;
  }
  /// The input block of the player's packet sender (in_input_block only).
  InputBlock& inputs_of(const ShardPlayer& ps) {
    return shards_[ps.shard]->input_blocks.get(ps.packet_sender);
  }
  static void begin_action(ShardPlayer& ps) {
    if (!folds_ticks(ps)) return;
    CF_CHECK_MSG(ps.in_flight < std::numeric_limits<std::uint16_t>::max(),
                 "too many actions of one player in flight");
    ++ps.in_flight;
  }
  StreamingResult assemble();

  SystemKind kind_;
  const Scenario& scenario_;
  StreamingOptions options_;

  // Declared before shards_ (destroyed after them): per-shard caches and
  // senders reference the cluster's simulators and must tear down first.
  std::optional<shard::ShardCluster> cluster_;
  std::vector<std::unique_ptr<Shard>> shards_;

  util::Rng jitter_base_{0};  // parent of every per-entity stream
  double jitter_sigma_ = 0.0;  // of the scenario's latency model
  std::vector<ShardPlayer> players_;
  std::vector<FailoverRoute> failover_;  // at-risk players only
  /// Host -> slot of the supernode player on it: the packet senders'
  /// propagation hook (scheduling kinds only).
  std::vector<std::uint32_t> packet_slot_;
  std::vector<PlayerAdaptation> adaptation_;  // by slot; adaptive kinds only
  std::map<NodeId, SupernodeInfo> sn_infos_;  // NodeId order everywhere
  std::optional<CoopProbes> coop_;  // cooperative lookups, when enabled
  std::vector<shard::PartitionSite> sites_;  // parallel to sn_infos_ order
  shard::Partition partition_;
  TimeMs lookahead_ = std::numeric_limits<double>::infinity();
  std::size_t shard_count_ = 1;
};

std::vector<std::size_t> StreamingEngine::setup_players() {
  util::Rng rng = scenario_.fork_rng("streaming");
  const std::string salt = std::to_string(options_.seed_salt);
  jitter_base_ = rng.fork("jitter" + salt);
  util::Rng select_rng = rng.fork("select" + salt);

  std::vector<std::size_t> active;
  if (!options_.explicit_players.empty()) {
    active = options_.explicit_players;
    for (std::size_t p : active)
      CF_CHECK_MSG(p < scenario_.population().size(), "unknown player index");
    std::vector<std::size_t> sorted = active;
    std::sort(sorted.begin(), sorted.end());
    CF_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) ==
                     sorted.end(),
                 "explicit players must not repeat a population index");
  } else {
    CF_CHECK_MSG(options_.num_players <= scenario_.population().size(),
                 "more players requested than the population holds");
    const auto sample = select_rng.sample_indices(scenario_.population().size(),
                                                  options_.num_players);
    active.assign(sample.begin(), sample.end());
  }

  util::Rng assign_rng = rng.fork("assign" + salt);
  AssignmentPlan plan = assign_players(kind_, scenario_, active, assign_rng);
  CF_CHECK_MSG(plan.players.size() < kNoIndex, "too many players");

  const ScenarioParams& params = scenario_.params();
  const net::Topology& topo = scenario_.topology();
  jitter_sigma_ = topo.jitter_sigma();
  players_.reserve(plan.players.size());
  for (const PlayerAssignment& pa : plan.players) {
    ShardPlayer ps;
    ps.host = scenario_.player_host(pa.pop_index);
    ps.profile = &game::game_by_id(scenario_.player_game(pa.pop_index));
    ps.assignment = {pa.server, pa.type, pa.home_dc};
    ps.level = ps.profile->target_quality_level;
    std::string stream_name = "p";
    stream_name += std::to_string(pa.pop_index);
    ps.rng = jitter_base_.fork(stream_name);
    ps.loss_prob = topo.server_loss_probability(pa.server, ps.host);
    if (params.tcp_window_kbit > 0.0)
      ps.wan_cap_kbps = tcp_window_cap_kbps(pa.server, ps.host);
    ps.uplink = topo.path(
        ps.host, pa.type == ServerType::kEdge ? pa.server : pa.home_dc);
    if (pa.type == ServerType::kSupernode)
      ps.feed = topo.server_path(pa.server, pa.home_dc);
    ps.stream = topo.server_path(pa.server, ps.host);
    players_.push_back(std::move(ps));
  }
  return std::move(plan.active_supernodes);
}

void StreamingEngine::setup_supernode_infos(
    const std::vector<std::size_t>& active) {
  for (std::size_t sn : active) {
    const NodeId server = scenario_.player_host(sn);
    SupernodeInfo& info = sn_infos_[server];
    info.server = server;
    info.slots = scenario_.supernode_capacity(sn);
    info.uplink_kbps = scenario_.supernode_uplink_kbps(sn);
  }
  for (std::size_t slot = 0; slot < players_.size(); ++slot) {
    const ShardPlayer& ps = players_[slot];
    if (ps.assignment.type != ServerType::kSupernode) continue;
    sn_infos_.at(ps.assignment.server).player_slots.push_back(slot);
  }

  for (const SupernodeChurnEvent& ev : options_.supernode_churn) {
    CF_CHECK_MSG(scenario_.is_supernode_player(ev.pop_index),
                 "churn event names a non-supernode player");
    const NodeId server = scenario_.player_host(ev.pop_index);
    const auto it = sn_infos_.find(server);
    // A supernode that serves nobody under this run's assignment plan has
    // no state to toggle; its events are inert (the caller cannot know the
    // plan up front, so scripting churn over all supernodes must be legal).
    if (it == sn_infos_.end()) continue;
    it->second.churn.push_back(ev);
  }
  for (auto& [server, info] : sn_infos_) {
    if (info.churn.empty()) continue;
    std::sort(info.churn.begin(), info.churn.end(),
              [](const SupernodeChurnEvent& a, const SupernodeChurnEvent& b) {
                return a.when_ms < b.when_ms;
              });
    for (std::size_t i = 1; i < info.churn.size(); ++i) {
      CF_CHECK_MSG(info.churn[i].when_ms > info.churn[i - 1].when_ms,
                   "churn events for one supernode must be strictly ordered");
      CF_CHECK_MSG(info.churn[i].leave != info.churn[i - 1].leave,
                   "churn events for one supernode must alternate");
    }
    info.initially_absent = !info.churn.front().leave;
  }
}

void StreamingEngine::setup_partition() {
  for (const auto& [server, info] : sn_infos_) {
    sites_.push_back({server, scenario_.topology().host(server).position,
                      static_cast<double>(info.player_slots.size())});
  }
  const std::size_t want =
      std::max<std::size_t>(1, scenario_.params().sim_shards);
  partition_ = shard::partition_sites(sites_, want);
  std::size_t site = 0;
  for (auto& [server, info] : sn_infos_) {
    info.shard = partition_.site_shard[site];
    ++site;
  }
  if (partition_.shard_count > 1) {
    const shard::AnchorIndex anchors(sites_, partition_);
    for (ShardPlayer& ps : players_) {
      if (ps.assignment.type == ServerType::kSupernode) {
        ps.shard = static_cast<std::uint32_t>(
            sn_infos_.at(ps.assignment.server).shard);
      } else {
        ps.shard = static_cast<std::uint32_t>(
            anchors.shard_of(scenario_.topology().host(ps.host).position));
      }
    }
  }
}

void StreamingEngine::setup_coop() {
  const ScenarioParams& params = scenario_.params();
  // Each supernode's m nearest others by (expected one-way latency, NodeId),
  // in sn_infos_ order.
  std::vector<std::vector<std::pair<TimeMs, NodeId>>> nearest;
  if (params.use_segment_cache && params.cache_coop_neighbors > 0) {
    std::vector<NodeId> supernodes;
    supernodes.reserve(sn_infos_.size());
    for (const auto& [server, info] : sn_infos_) supernodes.push_back(server);
    nearest = rank_coop_neighbors(scenario_.topology(), supernodes,
                                  params.cache_coop_neighbors);
  }

  // Lookahead: the minimum latency any cross-shard message can carry. The
  // only cross-shard edges are coop probes/responses, each at least the
  // pair's expected one-way latency after its sending event; with no edges
  // the lookahead is infinite (a single window). Derived from the actual
  // edge set, not net::LatencyModel::min_route_ms() — the pair bias is
  // multiplicative and may undercut that closed-form floor.
  if (!nearest.empty()) {
    auto near = nearest.begin();
    for (const auto& [a, info] : sn_infos_) {
      for (const auto& [latency, b] : *near++) {
        if (sn_infos_.at(b).shard != info.shard)
          lookahead_ = std::min(lookahead_, latency);
      }
    }
  }
  shard_count_ =
      shard::effective_shard_count(partition_.shard_count, lookahead_);
  if (shard_count_ < partition_.shard_count) {
    // Zero-lookahead degenerate case: collapse to one shard (no windows,
    // no cross-shard edges). Unreachable with the current latency model
    // (expected one-way latencies are strictly positive) but kept sound.
    for (ShardPlayer& ps : players_) ps.shard = 0;
    for (auto& [server, info] : sn_infos_) info.shard = 0;
    lookahead_ = std::numeric_limits<double>::infinity();
  }

  // Dense supernode slots: per shard, in NodeId order.
  std::vector<std::uint32_t> next_slot(shard_count_, 0);
  for (auto& [server, info] : sn_infos_)
    info.slot = cache::CacheSlot{next_slot[info.shard]++};

  if (nearest.empty()) return;
  coop_.emplace(shard_count_, params.cache_coop_kbps);
  auto near = nearest.begin();
  for (const auto& [a, info] : sn_infos_) {
    std::vector<CoopNeighbor> list;
    list.reserve(near->size());
    for (const auto& [latency, b] : *near++) {
      const SupernodeInfo& nb = sn_infos_.at(b);
      list.push_back({nb.slot, static_cast<std::uint32_t>(nb.shard), latency});
    }
    coop_->set_neighbors(info.shard, info.slot, std::move(list));
  }
}

void StreamingEngine::build_shards() {
  cluster_.emplace(shard_count_, options_.shard_workers);
  shards_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[s]->sim = &cluster_->sim(s);
  }
}

void StreamingEngine::setup_cache_services() {
  const ScenarioParams& params = scenario_.params();
  if (!params.use_segment_cache) return;
  cache::EdgeCacheServiceConfig cfg;
  cfg.kbit_per_slot = params.cache_kbit_per_slot;
  cfg.content_loop_segments = params.cache_content_loop_segments;
  cfg.admission.transcode.base_ms = params.cache_transcode_base_ms;
  cfg.admission.transcode.ms_per_kbit = params.cache_transcode_ms_per_kbit;
  cfg.admission.fetch_kbps = params.cache_fetch_kbps;
  cfg.admission.fetch_base_ms = params.cache_fetch_base_ms;
  cfg.admission.egress_cost_ms_per_kbit = params.cache_egress_cost_ms_per_kbit;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& sh = *shards_[s];
    sh.cache.emplace(*sh.sim, cfg);
    sh.cache->set_serve_observer(
        [this, s](cache::CacheSlot node, const stream::VideoSegment& seg,
                  const cache::EdgeCacheService::ServeOutcome& outcome) {
          NodeLedger& led = shards_[s]->ledger[cache::to_index(node)];
          switch (outcome.source) {
            case cache::ServeSource::kCacheHit:
            case cache::ServeSource::kTranscode:
              led.edge_kbit += outcome.content_kbit;
              break;
            case cache::ServeSource::kCloudFetch:
              led.cloud_kbit += outcome.content_kbit;
              if (in_window(seg.action_time_ms))
                led.window_cloud_kbit += outcome.content_kbit;
              break;
            case cache::ServeSource::kPeerHit:
              led.peer_kbit += outcome.content_kbit;
              break;
            case cache::ServeSource::kPeerProbe:
              break;  // bytes accounted at resolution (peer hit or fallback)
          }
        });
    if (coop_) coop_->attach(*cluster_, s, *sh.cache);
  }
  for (const auto& [server, info] : sn_infos_) {
    Shard& sh = *shards_[info.shard];
    CF_CHECK_MSG(sh.cache->reserve_slot(server) == info.slot,
                 "cache slots out of step with the supernode slots");
    sh.ledger.emplace_back();
    if (!info.initially_absent) sh.cache->add_supernode(server, info.slots);
    for (std::size_t slot : info.player_slots)
      players_[slot].assignment.cache_slot = info.slot;
  }
}

void StreamingEngine::setup_senders() {
  const ScenarioParams& params = scenario_.params();
  std::unordered_map<NodeId, std::size_t> load;
  for (const ShardPlayer& ps : players_) ++load[ps.assignment.server];

  if (uses_adaptation(kind_)) adaptation_.reserve(players_.size());
  for (std::size_t slot = 0; slot < players_.size(); ++slot) {
    ShardPlayer& ps = players_[slot];
    Shard& sh = *shards_[ps.shard];
    if (uses_adaptation(kind_)) {
      adaptation_.emplace_back(core::RateAdaptationController(
          *ps.profile, options_.cloudfog.adaptation));
      ps.buffer =
          sh.buffer_store.create(game::quality_for_level(ps.level).bitrate_kbps);
    }
    if (ps.assignment.type == ServerType::kSupernode) continue;
    const Kbps uplink = ps.assignment.type == ServerType::kDatacenter
                            ? params.dc_uplink_kbps
                            : params.edge_uplink_kbps;
    Kbps share = uplink / static_cast<double>(load.at(ps.assignment.server));
    if (ps.wan_cap_kbps > 0.0) share = std::min(share, ps.wan_cap_kbps);
    ps.queue = sh.fluid_store.create(share);
  }

  if (uses_scheduling(kind_))
    packet_slot_.assign(scenario_.topology().size(), kNoIndex);
  for (auto& [server, info] : sn_infos_) {
    const std::size_t s = info.shard;
    Shard& sh = *shards_[s];
    if (uses_scheduling(kind_)) {
      // Packets go to this node's players only, so a player's resolved
      // stream path is exactly the (server, player) pair being sampled.
      const stream::StoreHandle handle = sh.packet_store.create(
          *sh.sim, info.uplink_kbps,
          core::SupernodeSender::Discipline::kDeadline,
          options_.cloudfog.scheduler,
          core::SupernodeSender::PropagationFn(
              [this](NodeId player, util::Rng& rng) {
                return players_[packet_slot_[player]].stream.sample(
                    rng, jitter_sigma_);
              }),
          core::SupernodeSender::DeliveryFn(
              [this, s](const core::PacketDelivery& d) {
                on_packet_delivery(s, d);
              }),
          jitter_base_.fork("sn" + std::to_string(server)));
      CF_CHECK_MSG(sh.input_blocks.create() == handle,
                   "sender input blocks out of step with the senders");
      core::SupernodeSender& sender = sh.packet_store.get(handle);
      // The delivery tag is the segment ledger's slab handle: every
      // per-packet hook reaches its player's state with two array indexes,
      // never a hash.
      sender.set_rate_cap([this, s](NodeId, std::uint64_t tag) {
        return players_[shards_[s]->segments.slot(tag)].wan_cap_kbps;
      });
      sender.set_loss_model([this, s](NodeId, std::uint64_t tag) {
        return players_[shards_[s]->segments.slot(tag)].loss_prob;
      });
      sender.set_drop_observer(
          [this, s](const stream::VideoSegment& seg, int) {
            shards_[s]->segments.on_drop(seg.delivery_tag, qoe_of());
          });
      info.sender = handle;
      for (std::size_t slot : info.player_slots) {
        players_[slot].packet_sender = handle;
        packet_slot_[players_[slot].host] = static_cast<std::uint32_t>(slot);
      }
      if (sh.cache) {
        // Cache deliveries are inputs too, at times no block knows: these
        // senders keep the any-event rule.
        sender.attach_segment_cache(&*sh.cache, server);
      } else {
        sender.set_input_horizon([this, s, handle] {
          return shards_[s]->input_blocks.get(handle).earliest();
        });
        if (!info.churn.empty())
          sh.input_blocks.get(handle).add(info.churn.front().when_ms);
        for (std::size_t slot : info.player_slots)
          players_[slot].in_input_block = true;
      }
    } else {
      const stream::StoreHandle queue = sh.fluid_store.create(info.uplink_kbps);
      for (std::size_t slot : info.player_slots) players_[slot].queue = queue;
    }
  }
}

void StreamingEngine::setup_failover() {
  const ScenarioParams& params = scenario_.params();
  const net::Topology& topo = scenario_.topology();
  std::unordered_map<NodeId, std::size_t> dc_base;
  std::unordered_map<NodeId, std::size_t> at_risk;
  for (const ShardPlayer& ps : players_) {
    if (ps.assignment.type == ServerType::kDatacenter)
      ++dc_base[ps.assignment.server];
  }
  for (const auto& [server, info] : sn_infos_) {
    if (info.churn.empty()) continue;
    for (std::size_t slot : info.player_slots)
      ++at_risk[players_[slot].assignment.home_dc];
  }
  for (const auto& [server, info] : sn_infos_) {
    if (info.churn.empty()) continue;
    for (std::size_t slot : info.player_slots) {
      ShardPlayer& ps = players_[slot];
      Shard& sh = *shards_[ps.shard];
      const NodeId dc = ps.assignment.home_dc;
      // Static provisioning: the DC splits its uplink across its baseline
      // load plus every player that could fail over to it, so the share is
      // a setup-time constant (a dynamic share would couple all at-risk
      // players' state across shards).
      Kbps share = params.dc_uplink_kbps /
                   static_cast<double>(dc_base[dc] + at_risk[dc]);
      if (params.tcp_window_kbit > 0.0)
        share = std::min(share, tcp_window_cap_kbps(dc, ps.host));
      ps.failover = static_cast<std::uint32_t>(failover_.size());
      failover_.push_back({sh.fluid_store.create(share),
                           topo.server_loss_probability(dc, ps.host),
                           topo.server_path(dc, ps.host)});
      if (info.initially_absent) ps.failed_over = true;
    }
  }
}

void StreamingEngine::setup_churn() {
  for (const auto& [server, info] : sn_infos_) {
    for (const SupernodeChurnEvent& ev : info.churn) {
      shards_[info.shard]->sim->schedule_at(
          ev.when_ms, [this, srv = info.server, leave = ev.leave] {
            apply_churn(srv, leave);
          });
    }
  }
}

void StreamingEngine::start_segment_ticks() {
  const TimeMs period = scenario_.params().segment_period_ms();
  for (std::size_t slot = 0; slot < players_.size(); ++slot) {
    ShardPlayer& ps = players_[slot];
    ps.next_tick = ps.rng.uniform(0.0, period);
    if (ps.in_input_block && ps.next_tick < window_end())
      inputs_of(ps).add(ps.next_tick);
    arm_tick(slot);
  }
}

void StreamingEngine::start_adaptation_ticks() {
  if (!uses_adaptation(kind_)) return;
  const TimeMs period = scenario_.params().segment_period_ms();
  for (std::size_t slot = 0; slot < players_.size(); ++slot) {
    ShardPlayer& ps = players_[slot];
    Shard& sh = *shards_[ps.shard];
    const Kbit tau =
        game::quality_for_level(ps.level).bitrate_kbps * period / 1000.0;
    sh.buffer_store.get(ps.buffer).on_arrival(0.0, tau);
    // Drawn after the phase of start_segment_ticks from the same stream.
    const TimeMs tick_phase = ps.rng.uniform(0.0, options_.adaptation_tick_ms);
    if (ps.in_input_block) inputs_of(ps).add(sh.sim->now() + tick_phase);
    sh.sim->schedule_every(tick_phase, options_.adaptation_tick_ms,
                           [this, slot] { adaptation_tick(slot); });
  }
}

Kbps StreamingEngine::tcp_window_cap_kbps(NodeId server, NodeId host) const {
  const TimeMs rtt =
      std::max(1.0, scenario_.topology().expected_server_rtt_ms(server, host));
  return scenario_.params().tcp_window_kbit / (rtt / 1000.0);
}

void StreamingEngine::run_ticks(std::size_t slot) {
  ShardPlayer& ps = players_[slot];
  const bool fold = ps.in_flight == 0 && folds_ticks(ps);
  TimeMs first_done = std::numeric_limits<TimeMs>::infinity();
  do {
    first_done = std::min(first_done, segment_tick(slot));
  } while (fold && ps.next_tick < window_end() && ps.next_tick < first_done);
  if (!fold) arm_tick(slot);
}

TimeMs StreamingEngine::segment_tick(std::size_t slot) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  const TimeMs t0 = ps.next_tick;
  const ScenarioParams& params = scenario_.params();
  TimeMs pipeline = 0.0;
  if (ps.failed_over) {
    // Fallback pipeline: the home DC computes and renders; no update feed.
    // Only supernode players fail over, and their uplink already leads to
    // the home DC.
    pipeline += ps.uplink.sample(ps.rng, jitter_sigma_);
    pipeline += params.compute_ms + params.render_ms;
  } else {
    pipeline += ps.uplink.sample(ps.rng, jitter_sigma_);
    pipeline += params.compute_ms;
    if (ps.assignment.type == ServerType::kSupernode) {
      pipeline += ps.feed.sample(ps.rng, jitter_sigma_);
    }
    pipeline += params.render_ms;
  }
  ps.next_tick = t0 + params.segment_period_ms();
  begin_action(ps);
  const TimeMs done = t0 + pipeline;
  if (ps.in_input_block) {
    InputBlock& inputs = inputs_of(ps);
    inputs.add(done);
    if (ps.next_tick < window_end()) {
      inputs.replace(t0, ps.next_tick);
    } else {
      inputs.remove(t0);
    }
  }
  sh.sim->schedule_at(done, [this, slot, t0] { enqueue_segment(slot, t0); });
  return done;
}

void StreamingEngine::arm_tick(std::size_t slot) {
  ShardPlayer& ps = players_[slot];
  if (ps.next_tick >= window_end()) return;
  ps.tick_armed = true;
  shards_[ps.shard]->sim->schedule_at(ps.next_tick, [this, slot] {
    players_[slot].tick_armed = false;
    run_ticks(slot);
  });
}

void StreamingEngine::end_action(std::size_t slot) {
  ShardPlayer& ps = players_[slot];
  if (!folds_ticks(ps)) return;
  --ps.in_flight;
  if (ps.tick_armed || ps.next_tick >= window_end()) return;
  if (ps.in_flight == 0) {
    run_ticks(slot);
  } else {
    arm_tick(slot);
  }
}

void StreamingEngine::enqueue_segment(std::size_t slot, TimeMs t0) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  // Out of the block before the submit, whose train reads the horizon.
  if (ps.in_input_block) inputs_of(ps).remove(sh.sim->now());
  const TimeMs period = scenario_.params().segment_period_ms();
  stream::VideoSegment seg =
      sh.factory.make(ps.host, ps.profile->id, ps.level, period, t0);
  const double sigma = scenario_.params().segment_size_sigma;
  if (sigma > 0.0) {
    seg.size_kbit *= ps.rng.lognormal(-0.5 * sigma * sigma, sigma);
  }
  if (in_window(t0)) {
    ++ps.segments;
    ps.level_sum += static_cast<double>(ps.level);
    if (ps.assignment.type == ServerType::kDatacenter || ps.failed_over) {
      ps.cloud_kbit += seg.size_kbit;
    }
  }
  if (ps.failed_over) {
    submit_fluid(slot, seg);  // streams from the home DC, cache bypassed
  } else if (ps.assignment.type == ServerType::kSupernode &&
             uses_scheduling(kind_)) {
    submit_packet(slot, seg);
  } else if (ps.assignment.type == ServerType::kSupernode && sh.cache) {
    // The delivery draws the propagation sample, so it is an action of its
    // own. A hit delivers inline and ends this completion's action; any
    // other source delivers later, one more action in flight.
    const auto served = sh.cache->request(
        ps.assignment.cache_slot, seg, [this, slot, seg] {
          submit_fluid(slot, seg);
          end_action(slot);
        });
    if (served.source == cache::ServeSource::kCacheHit) return;
    begin_action(ps);
  } else {
    submit_fluid(slot, seg);
  }
  end_action(slot);
}

void StreamingEngine::submit_fluid(std::size_t slot,
                                   const stream::VideoSegment& seg) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  const bool failed = ps.failed_over;
  const FailoverRoute* route = failed ? &failover_[ps.failover] : nullptr;
  const bool shared_queue =
      !failed && ps.assignment.type == ServerType::kSupernode;
  stream::QueuedSender& sender =
      sh.fluid_store.get(failed ? route->queue : ps.queue);
  stream::SendSchedule sched = sender.enqueue(sh.sim->now(), seg.size_kbit);
  if (shared_queue && ps.wan_cap_kbps > 0.0 &&
      ps.wan_cap_kbps < sender.capacity()) {
    sched.end = sched.start + transmission_ms(seg.size_kbit, ps.wan_cap_kbps);
  }
  const double loss = failed ? route->loss_prob : ps.loss_prob;
  const TimeMs prop = (failed ? route->path : ps.stream)
                          .sample(ps.rng, jitter_sigma_);
  const TimeMs last_arrival = sched.end + prop;
  if (in_window(seg.action_time_ms)) {
    metrics::PlayerQoE& qoe = ps.report_qoe();
    metrics::add_latency(qoe, last_arrival - seg.action_time_ms);
    const Kbit on_time =
        sched.sent_by(seg.deadline_ms - prop, seg.size_kbit) * (1.0 - loss);
    metrics::add_units(qoe, seg.size_kbit, on_time);
  }
  schedule_buffer_arrival(slot, last_arrival, seg.size_kbit);
}

void StreamingEngine::submit_packet(std::size_t slot,
                                    stream::VideoSegment seg) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  seg.delivery_tag = sh.segments.open(
      slot, seg.action_time_ms, stream::packet_count(seg.size_kbit),
      in_window(seg.action_time_ms), qoe_of());
  sh.packet_store.get(ps.packet_sender).submit(seg);
}

void StreamingEngine::on_packet_delivery(std::size_t s,
                                         const core::PacketDelivery& d) {
  Shard& sh = *shards_[s];
  const std::size_t slot = sh.segments.on_delivery(d, qoe_of());
  if (slot == SegmentLedger::kUnknown || d.lost) return;
  schedule_buffer_arrival(slot, std::max(d.arrival_ms, sh.sim->now()),
                          d.size_kbit);
}

void StreamingEngine::schedule_buffer_arrival(std::size_t slot, TimeMs when,
                                              Kbit size) {
  const ShardPlayer& ps = players_[slot];
  if (ps.buffer == stream::kNullHandle) return;
  Shard& sh = *shards_[ps.shard];
  adaptation_[slot].arrivals.add(sh.buffer_store.get(ps.buffer), sh.sim->now(),
                                 when, size);
}

void StreamingEngine::flush_buffer_arrivals(TimeMs horizon) {
  for (std::size_t slot = 0; slot < adaptation_.size(); ++slot) {
    const ShardPlayer& ps = players_[slot];
    adaptation_[slot].arrivals.flush(
        shards_[ps.shard]->buffer_store.get(ps.buffer), horizon);
  }
}

void StreamingEngine::adaptation_tick(std::size_t slot) {
  ShardPlayer& ps = players_[slot];
  Shard& sh = *shards_[ps.shard];
  stream::ReceiverBuffer& buffer = sh.buffer_store.get(ps.buffer);
  PlayerAdaptation& adapt = adaptation_[slot];
  // The periodic event re-armed itself at now + period before running.
  if (ps.in_input_block) {
    inputs_of(ps).replace(sh.sim->now(),
                       sh.sim->now() + options_.adaptation_tick_ms);
  }
  adapt.arrivals.before_tick(buffer, sh.sim->now());
  const TimeMs period = scenario_.params().segment_period_ms();
  const Kbps playback = game::quality_for_level(ps.level).bitrate_kbps;
  const Kbit tau = playback * period / 1000.0;
  const Kbit arrived = buffer.total_arrived_kbit();
  const Kbps download = (arrived - adapt.arrived_at_last_tick) /
                        options_.adaptation_tick_ms * 1000.0;
  adapt.arrived_at_last_tick = arrived;
  const auto decision = adapt.controller.observe_rates(
      options_.adaptation_tick_ms, download, playback, tau);
  if (decision != core::RateAdaptationController::Decision::kHold) {
    ps.level = adapt.controller.level();
    buffer.set_playback_rate(sh.sim->now(),
                             game::quality_for_level(ps.level).bitrate_kbps);
  }
}

void StreamingEngine::apply_churn(NodeId server, bool leave) {
  const SupernodeInfo& info = sn_infos_.at(server);
  Shard& sh = *shards_[info.shard];
  if (uses_scheduling(kind_) && !sh.cache) {
    const TimeMs now = sh.sim->now();
    const auto next = std::upper_bound(
        info.churn.begin(), info.churn.end(), now,
        [](TimeMs t, const SupernodeChurnEvent& ev) { return t < ev.when_ms; });
    InputBlock& inputs = sh.input_blocks.get(info.sender);
    if (next != info.churn.end()) {
      inputs.replace(now, next->when_ms);
    } else {
      inputs.remove(now);
    }
  }
  if (leave) {
    if (sh.cache && sh.cache->has_supernode(server)) {
      sh.cache->remove_supernode(server);
    }
    for (std::size_t slot : info.player_slots)
      players_[slot].failed_over = true;
    if (uses_scheduling(kind_)) {
      // The departing sender abandons its queued backlog; each segment's
      // unsent remainder streams from the owning player's home DC through
      // the failover fluid queue. The in-flight packet (if any) still
      // completes on the old path and settles its segment normally.
      core::SupernodeSender& sender = sh.packet_store.get(info.sender);
      for (const core::DeadlineScheduler::PendingSegment& pending :
           sender.drain_pending()) {
        fail_over_segment(sh, pending);
      }
    }
  } else {
    if (sh.cache && !sh.cache->has_supernode(server)) {
      sh.cache->add_supernode(server, info.slots);
    }
    for (std::size_t slot : info.player_slots)
      players_[slot].failed_over = false;
  }
}

void StreamingEngine::fail_over_segment(
    Shard& sh, const core::DeadlineScheduler::PendingSegment& pending) {
  const stream::VideoSegment& seg = pending.segment;
  if (!sh.segments.contains(seg.delivery_tag)) return;
  const std::size_t slot = sh.segments.slot(seg.delivery_tag);
  ShardPlayer& ps = players_[slot];
  const FailoverRoute& route = failover_[ps.failover];
  stream::QueuedSender& fluid = sh.fluid_store.get(route.queue);
  const stream::SendSchedule sched =
      fluid.enqueue(sh.sim->now(), pending.remaining_kbit);
  const TimeMs prop = route.path.sample(ps.rng, jitter_sigma_);
  const TimeMs last_arrival = sched.end + prop;
  if (in_window(seg.action_time_ms)) ps.cloud_kbit += pending.remaining_kbit;
  // Fluid on-time fraction scaled to packet units and discounted by the
  // fallback path's loss — the fluid analogue of per-packet on_time().
  double on_time_units = 0.0;
  if (pending.remaining_kbit > 0.0) {
    const Kbit on_time_kbit =
        sched.sent_by(seg.deadline_ms - prop, pending.remaining_kbit);
    on_time_units = on_time_kbit / pending.remaining_kbit *
                    static_cast<double>(pending.remaining_packets) *
                    (1.0 - route.loss_prob);
  }
  schedule_buffer_arrival(slot, last_arrival, pending.remaining_kbit);
  sh.segments.on_failover(seg.delivery_tag, pending.remaining_packets,
                          last_arrival, on_time_units, qoe_of());
}

StreamingResult StreamingEngine::assemble() {
  // Segments still in flight at the horizon stay open in their shard's
  // ledger; the ledgers die with the shards. Supernode byte ledgers reduce
  // in NodeId order, which is sn_infos_ order.
  const bool cached = scenario_.params().use_segment_cache;
  const auto ledger_of = [this](const SupernodeInfo& info) -> const auto& {
    return shards_[info.shard]->ledger[cache::to_index(info.slot)];
  };

  Kbit cloud_kbit = 0.0;
  double level_sum = 0.0;
  std::uint64_t segments = 0;
  for (const ShardPlayer& ps : players_) {
    cloud_kbit += ps.cloud_kbit;
    level_sum += ps.level_sum;
    segments += ps.segments;
  }
  if (cached) {
    for (const auto& [node, info] : sn_infos_)
      cloud_kbit += ledger_of(info).window_cloud_kbit;
  }
  std::uint64_t drops = 0;
  for (const auto& sh : shards_) drops += sh->segments.dropped_packets();

  // QoE records reduce in slot order, which is population-index order.
  metrics::QoESummary qoe;
  util::SampleSet per_player;
  for (const ShardPlayer& ps : players_) {
    if (!ps.qoe_reported) continue;
    qoe.add(ps.qoe);
    if (ps.qoe.response_latency_ms.count() > 0)
      per_player.add(ps.qoe.response_latency_ms.mean());
  }
  StreamingResult result;
  result.mean_response_latency_ms = qoe.mean_response_latency_ms();
  result.p95_response_latency_ms =
      per_player.empty() ? 0.0 : per_player.percentile(95.0);
  result.mean_continuity = qoe.mean_continuity();
  result.satisfied_fraction = qoe.satisfied_fraction();
  // Update-feed cost stays nominal (sn_infos_ is the assignment plan's
  // active set): churned supernodes keep their slot in the plan.
  const Kbps update_feed = scenario_.params().update_stream_kbps *
                           static_cast<double>(sn_infos_.size());
  result.cloud_uplink_mbps =
      (cloud_kbit / (options_.duration_ms / 1000.0) + update_feed) / 1000.0;
  result.mean_quality_level =
      segments > 0 ? level_sum / static_cast<double>(segments) : 0.0;
  result.segments_generated = segments;
  result.packets_dropped = drops;
  std::size_t sn_served = 0, edge_served = 0;
  for (const ShardPlayer& ps : players_) {
    if (ps.assignment.type == ServerType::kSupernode) ++sn_served;
    if (ps.assignment.type == ServerType::kEdge) ++edge_served;
  }
  result.supernode_supported = sn_served;
  result.edge_supported = edge_served;

  if (cached) {
    cache::CacheTotals totals;
    for (const auto& sh : shards_) {
      const cache::CacheTotals& t = sh->cache->totals();
      totals.hits += t.hits;
      totals.misses += t.misses;
      totals.transcodes += t.transcodes;
      totals.evictions += t.evictions;
      totals.cancelled_jobs += t.cancelled_jobs;
      totals.coop_probes += t.coop_probes;
      totals.coop_hits += t.coop_hits;
    }
    // Byte totals from the NodeId-ordered ledgers, not the services' own
    // fleet-order accumulators — canonical summation order.
    for (const auto& [node, info] : sn_infos_) {
      const NodeLedger& led = ledger_of(info);
      totals.bytes_edge_kbit += led.edge_kbit;
      totals.bytes_cloud_kbit += led.cloud_kbit;
      totals.bytes_peer_kbit += led.peer_kbit;
    }
    result.cache = totals;
  }

  std::array<double, 5> continuity_sum{};
  std::array<std::size_t, 5> satisfied_count{};
  for (const ShardPlayer& ps : players_) {
    const auto g = static_cast<std::size_t>(ps.profile->id);
    ++result.players_by_game[g];
    continuity_sum[g] += ps.qoe.continuity();
    if (ps.qoe.satisfied()) ++satisfied_count[g];
  }
  for (std::size_t g = 0; g < 5; ++g) {
    if (result.players_by_game[g] > 0) {
      const auto n = static_cast<double>(result.players_by_game[g]);
      result.continuity_by_game[g] = continuity_sum[g] / n;
      result.satisfied_by_game[g] =
          static_cast<double>(satisfied_count[g]) / n;
    }
  }
  CF_OBS_COUNT("systems.streaming.segments_generated", segments);
  return result;
}

StreamingResult StreamingEngine::run() {
  CF_TIMED_SCOPE("timers.systems.run_streaming");
  {
    CF_TIMED_SCOPE("timers.systems.setup");
    setup_supernode_infos(setup_players());
    setup_partition();
    setup_coop();
    build_shards();
    setup_cache_services();
    setup_senders();
    setup_failover();
    setup_churn();
    start_segment_ticks();
    start_adaptation_ticks();
  }
  // Periodic queue-depth/throughput sampling for the trace and metrics —
  // a pure observer (see obs/sim_hook.h), so it may be installed only when
  // collection is on without perturbing the QoE digest.
  if (obs::registry() != nullptr || obs::tracer() != nullptr) {
    obs::trace_sim_instant("streaming.start", "systems", 0.0);
    for (const auto& sh : shards_) {
      obs::install_sim_sampler(*sh->sim, options_.adaptation_tick_ms);
    }
  }
  const TimeMs horizon =
      options_.warmup_ms + options_.duration_ms + options_.drain_ms;
  {
    CF_TIMED_SCOPE("timers.systems.event_loop");
    cluster_->run(horizon, lookahead_);
  }
  // No buffer is read after the run. The flush is there so the buffers'
  // stall accounting covers every arrival the run reached.
  flush_buffer_arrivals(horizon);
  obs::trace_sim_instant("streaming.end", "systems", horizon);
  CF_OBS_COUNT("systems.streaming.runs", 1);
  return assemble();
}

}  // namespace

StreamingResult run_streaming(SystemKind kind, const Scenario& scenario,
                              const StreamingOptions& options) {
  CF_CHECK_MSG(options.num_players >= 1, "need at least one player");
  CF_CHECK_MSG(options.duration_ms > 0.0, "measurement window must be positive");
  StreamingEngine engine(kind, scenario, options);
  return engine.run();
}

std::vector<StreamingResult> run_streaming_batch(
    const std::vector<StreamingRunSpec>& runs, exec::RunExecutor& executor) {
  std::vector<std::pair<std::string, std::function<StreamingResult()>>> tasks;
  tasks.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const StreamingRunSpec& spec = runs[i];
    tasks.emplace_back(
        "run=" + std::to_string(i) + " kind=" + std::string(to_string(spec.kind)) +
            " seed=" + std::to_string(spec.scenario.seed) +
            " salt=" + std::to_string(spec.options.seed_salt),
        [&spec] {
          const Scenario scenario = Scenario::build(spec.scenario);
          return run_streaming(spec.kind, scenario, spec.options);
        });
  }
  return executor.map(std::move(tasks));
}

}  // namespace cloudfog::systems
