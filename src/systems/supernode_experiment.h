// Packet-level supernode experiment — paper Figures 10 and 11, and the X4
// cooperation extension.
//
// One supernode with a fixed uplink serves K players (the paper sweeps
// K = 5..25). Each player runs one of the five catalog games (round-robin,
// so the mix is balanced) and receives per-frame video segments whose
// deadlines follow its game's response latency requirement. The experiment
// toggles the two Section-III strategies independently:
//
//   adaptation = false, scheduling = false   -> CloudFog/B
//   adaptation = true,  scheduling = false   -> CloudFog-adapt   (Fig 10)
//   adaptation = false, scheduling = true    -> CloudFog-schedule(Fig 11)
//   adaptation = true,  scheduling = true    -> CloudFog/A
//
// A player is satisfied when >= 95% of its packets arrive within its game's
// response latency (the paper's definition).
//
// With `supernodes = 2` the same harness runs the second half of the
// paper's Section-V future work: "cooperation among supernodes in
// rendering and *transmitting* game videos to further reduce response
// latency". Supernodes A and B, each with `uplink_kbps`, serve one player
// pool; each player's primary is A with probability `primary_skew` (A is
// the hot one). Without striping a player's segments go entirely through
// its primary. With `enable_striping` each segment's packets are split
// across A and B, so a hot primary sheds half of every segment to its
// neighbour and the last-packet arrival follows the less congested path.
// Every other knob (discipline, adaptation, loss, render stage) applies to
// both supernodes; the render stage stays one shared GPU.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cloudfog_config.h"
#include "exec/run_executor.h"
#include "stream/encoder.h"
#include "util/types.h"

namespace cloudfog::systems {

struct SupernodeExperimentConfig {
  std::size_t num_players = 15;  // across all supernodes
  Kbps uplink_kbps = 23'000.0;  // upload capacity of each supernode
  /// 1 (Figures 10/11) or 2 (the X4 cooperation pair).
  std::size_t supernodes = 1;
  /// Two supernodes only: the probability that a player's primary is A.
  double primary_skew = 0.85;
  /// Two supernodes only: stripe each segment's packets across both.
  bool enable_striping = false;
  TimeMs warmup_ms = 6'000.0;  // lets the adaptation loop converge
  TimeMs duration_ms = 30'000.0;
  TimeMs drain_ms = 1'000.0;

  bool adaptation = false;
  bool scheduling = false;

  /// Action -> rendered-segment-at-supernode delay (player->cloud uplink +
  /// state computation + update feed + rendering), lognormally jittered.
  TimeMs pipeline_ms = 8.0;
  double pipeline_jitter_sigma = 0.10;

  /// Supernode -> player propagation: per-player mean spread around
  /// prop_mean_ms (lognormal sigma prop_spread_sigma), per-packet jitter on
  /// top (lognormal sigma prop_jitter_sigma).
  TimeMs prop_mean_ms = 12.0;
  double prop_spread_sigma = 0.45;
  double prop_jitter_sigma = 0.10;

  /// Per-packet network loss probability on the (local) supernode paths.
  /// Defaults to 0: Figures 10/11 isolate the strategies from random loss.
  double network_loss_rate = 0.0;

  /// Model the supernode's GPU as a bounded serial render stage: each
  /// frame costs resolution-proportional render time and queues behind the
  /// other players' frames. 0 disables (rendering folded into pipeline_ms,
  /// the paper's "rendering is relatively less hardware demanding"
  /// assumption). Units: megapixels per second of render throughput.
  double render_capacity_mpx_per_s = 0.0;

  double fps = 30.0;
  int frames_per_segment = 1;   // per-frame segments: packet-level fidelity
  /// VBR size variation per segment (lognormal sigma, mean-preserving).
  /// Ignored when use_gop_encoder is set.
  double segment_size_sigma = 0.30;
  /// Use the structured GOP encoder (stream::EncoderModel) instead of the
  /// lognormal VBR model: I/P frame pattern, and adaptation level switches
  /// actuate at GOP boundaries instead of instantly.
  bool use_gop_encoder = false;
  stream::EncoderConfig encoder{};
  TimeMs adaptation_tick_ms = 200.0;

  core::CloudFogConfig cloudfog = core::CloudFogConfig::defaults();
  std::uint64_t seed = 7;

  TimeMs segment_period_ms() const {
    return static_cast<double>(frames_per_segment) / fps * 1000.0;
  }
};

struct SupernodeExperimentResult {
  double satisfied_fraction = 0.0;
  double mean_continuity = 0.0;
  double mean_response_latency_ms = 0.0;
  double mean_quality_level = 0.0;
  std::uint64_t packets_submitted = 0;
  std::uint64_t packets_on_time = 0;
  std::uint64_t packets_dropped = 0;
  double offered_load() const;  // offered_kbps vs uplink_kbps, diagnostic
  Kbps offered_kbps = 0.0;  // all players at their target levels
  Kbps uplink_kbps = 0.0;   // of each supernode
  /// Per supernode: its primary players' target bitrates vs its uplink.
  std::vector<double> supernode_load;
};

SupernodeExperimentResult run_supernode_experiment(
    const SupernodeExperimentConfig& config);

/// Fans independent experiment configs across `executor`; results are
/// ordered by submission index, so aggregation is bit-identical at any
/// --jobs value. Each run is self-contained (the experiment builds all of
/// its state from `config`).
std::vector<SupernodeExperimentResult> run_supernode_experiments(
    const std::vector<SupernodeExperimentConfig>& configs,
    exec::RunExecutor& executor);

}  // namespace cloudfog::systems
