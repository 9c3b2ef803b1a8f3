// The "QoE digest": FNV-1a over the exact bit patterns of every field of a
// result. Two runs agree iff every metric is bit-identical.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "systems/streaming_sim.h"

namespace cloudfog::systems {

/// FNV-1a over the little-endian bytes of each mixed 64-bit value.
struct Fnv1a {
  std::uint64_t value = 0xcbf29ce484222325ull;

  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (v >> (byte * 8)) & 0xffu;
      value *= 0x100000001b3ull;
    }
  }
  void mix_double(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
};

inline std::uint64_t qoe_digest(const StreamingResult& r) {
  Fnv1a h;
  const auto mix = [&h](std::uint64_t v) { h.mix(v); };
  const auto mix_double = [&h](double d) { h.mix_double(d); };
  mix_double(r.mean_response_latency_ms);
  mix_double(r.p95_response_latency_ms);
  mix_double(r.mean_continuity);
  mix_double(r.satisfied_fraction);
  mix_double(r.cloud_uplink_mbps);
  mix_double(r.mean_quality_level);
  mix(r.segments_generated);
  mix(r.packets_dropped);
  mix(r.supernode_supported);
  mix(r.edge_supported);
  for (std::size_t g = 0; g < r.players_by_game.size(); ++g) {
    mix(r.players_by_game[g]);
    mix_double(r.continuity_by_game[g]);
    mix_double(r.satisfied_by_game[g]);
  }
  mix(r.cache.hits);
  mix(r.cache.misses);
  mix(r.cache.transcodes);
  mix(r.cache.evictions);
  mix(r.cache.cancelled_jobs);
  mix(r.cache.coop_probes);
  mix(r.cache.coop_hits);
  mix_double(r.cache.bytes_edge_kbit);
  mix_double(r.cache.bytes_cloud_kbit);
  mix_double(r.cache.bytes_peer_kbit);
  return h.value;
}

}  // namespace cloudfog::systems
