// End-to-end streaming simulation — drives paper Figures 8 (response
// latency) and 9 (playback continuity).
//
// Pipeline per player segment (period = frames_per_segment / fps):
//
//   action t0 at the player
//     -> action uplink to the state server (home DC; the edge server for
//        EdgeCloud-served players)                    [sampled one-way]
//     -> game-state computation                       [compute_ms]
//     -> CloudFog only: update feed to the supernode  [sampled one-way]
//     -> video rendering                              [render_ms]
//     -> segment enqueued at the streaming server's sender buffer
//     -> transmission (queuing + serialisation on the uplink)
//     -> propagation to the player                    [sampled one-way]
//
// Senders:
//   * datacenters, edge servers, and supernodes under CloudFog/B or
//     CloudFog-adapt use the fluid FIFO QueuedSender;
//   * supernodes under CloudFog-schedule or CloudFog/A use the packet-level
//     SupernodeSender with the Section III-C deadline scheduler.
//
// CloudFog-adapt / CloudFog/A players additionally run the Section III-B
// receiver-driven rate adaptation: a ReceiverBuffer tracks s(t) (Eq 7) and
// a RateAdaptationController steps the encoding level from r (Eqs 8-11).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cache/edge_cache_service.h"
#include "core/cloudfog_config.h"
#include "exec/run_executor.h"
#include "systems/assignment.h"
#include "systems/scenario.h"

namespace cloudfog::systems {

/// One scripted supernode membership toggle: at `when_ms` the supernode
/// hosted by player `pop_index` leaves (its players fail over to a
/// provisioned queue at their home datacenter and its cache is released,
/// cancelling in-flight jobs) or (re)joins (cache re-registered empty,
/// players return). Events for one supernode must alternate; a supernode
/// whose first event is a join starts the run absent.
struct SupernodeChurnEvent {
  TimeMs when_ms = 0.0;
  std::size_t pop_index = 0;
  bool leave = true;
};

struct StreamingOptions {
  std::size_t num_players = 2'000;
  /// When non-empty, these population indices play (num_players ignored) —
  /// lets scenarios model localized load spikes. An index may not repeat.
  std::vector<std::size_t> explicit_players;
  TimeMs warmup_ms = 3'000.0;
  TimeMs duration_ms = 15'000.0;   // measurement window after warmup
  TimeMs drain_ms = 2'000.0;       // extra run so in-flight packets land
  TimeMs adaptation_tick_ms = 500.0;  // estimation cadence for Eq (8)
  core::CloudFogConfig cloudfog = core::CloudFogConfig::defaults();
  std::uint64_t seed_salt = 0;     // distinguishes repeated runs

  /// Dynamic supernode join/leave script (DESIGN.md §13). Under the
  /// packet-level deadline scheduler a leave drains the departed sender's
  /// queued backlog and streams each remainder through the player's
  /// failover fluid queue.
  std::vector<SupernodeChurnEvent> supernode_churn;
  /// Worker threads driving the shard rounds (ScenarioParams::sim_shards);
  /// 0 = exec::default_jobs(), capped at the shard count.
  std::size_t shard_workers = 0;
};

struct StreamingResult {
  double mean_response_latency_ms = 0.0;  // mean of per-player means
  double p95_response_latency_ms = 0.0;   // 95th pct of per-player means
  double mean_continuity = 0.0;           // paper Fig 9 metric
  double satisfied_fraction = 0.0;        // >= 95% packets on time
  double cloud_uplink_mbps = 0.0;         // measured avg cloud traffic
  double mean_quality_level = 0.0;        // avg encoding level of segments
  std::uint64_t segments_generated = 0;
  std::uint64_t packets_dropped = 0;      // deadline-scheduler drops
  std::size_t supernode_supported = 0;
  std::size_t edge_supported = 0;

  /// Per-game breakdown (index = game id): player counts, mean continuity
  /// and satisfied fraction — the paper's premise is that games differ in
  /// tolerance, so their QoE under the same system differs too.
  std::array<std::size_t, 5> players_by_game{};
  std::array<double, 5> continuity_by_game{};
  std::array<double, 5> satisfied_by_game{};

  /// Segment-cache subsystem counters (all zero with use_segment_cache
  /// off); bytes_cloud_kbit is the egress the ablation economises.
  cache::CacheTotals cache;
};

/// Runs one streaming simulation of `kind` over the scenario. The world is
/// partitioned into ScenarioParams::sim_shards geographic shards (src/shard),
/// each with its own slab event engine, advanced under conservative time
/// windows; the QoE digest is invariant in the shard count and the worker
/// count (tests/integration pins K > 1 against the K = 1 oracle).
StreamingResult run_streaming(SystemKind kind, const Scenario& scenario,
                              const StreamingOptions& options);

/// One self-contained streaming run for the parallel batch entry point:
/// the scenario is specified by parameters, not by reference, so every run
/// builds (and exclusively owns) its own Scenario.
struct StreamingRunSpec {
  SystemKind kind = SystemKind::kCloud;
  ScenarioParams scenario;
  StreamingOptions options;
};

/// Fans independent streaming runs across `executor`; results are ordered
/// by submission index (never completion order), so aggregation is
/// bit-identical at any --jobs value.
std::vector<StreamingResult> run_streaming_batch(
    const std::vector<StreamingRunSpec>& runs, exec::RunExecutor& executor);

}  // namespace cloudfog::systems
