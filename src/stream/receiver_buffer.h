// Player-side receive buffer and playback model.
//
// The receiver stores arriving video data and drains it at the playback
// bitrate; Section III-B's rate adaptation is driven by the estimated
// buffered amount s(t_k) (Equation 7) and the buffered-segment count
// r = s(t_k)/tau (Equation 8). This class maintains exactly those
// quantities plus playback-continuity accounting (stalls happen when the
// buffer empties while the player is consuming).
#pragma once

#include <cstdint>

#include "util/types.h"

namespace cloudfog::stream {

class ReceiverBuffer {
 public:
  /// `playback_rate_kbps` is the consumption rate b_p (the bitrate of the
  /// quality level currently being played).
  explicit ReceiverBuffer(Kbps playback_rate_kbps);

  /// Records `size_kbit` of video data arriving at time `now`. The calls
  /// may come after the fact, as long as they come in time order: a caller
  /// that reads the buffer only at certain instants may hold arrivals back
  /// and feed each one before the next read, with `now` being the
  /// arrival's own time (systems/pending_arrivals.h does).
  void on_arrival(TimeMs now, Kbit size_kbit);

  /// Changes the playback (drain) rate — called when the encoding level
  /// changes. Settles the buffer state up to `now` first.
  void set_playback_rate(TimeMs now, Kbps rate_kbps);

  Kbps playback_rate() const { return playback_rate_; }

  /// Buffered amount s(t) at time `now` (Equation 7), in kilobits.
  /// Validation delegated to settle(): monotone-clock CF_CHECK plus the
  /// occupancy/stall-clock CF_INVARIANTs run on every call.
  Kbit buffered_kbit(TimeMs now);  // lint:allow(trust-boundary)

  /// Buffered-segment count r = s(t)/tau for segment size `tau_kbit`
  /// (Equation 8). Requires tau > 0.
  double buffered_segments(TimeMs now, Kbit tau_kbit);

  /// EWMA of the download rate d(t) in kbps, updated per arrival.
  Kbps download_rate() const { return download_rate_; }

  /// Total kilobits ever delivered into this buffer — harnesses compute
  /// windowed download rates from deltas of this counter.
  Kbit total_arrived_kbit() const { return total_arrived_; }

  /// Time spent stalled (buffer empty while draining) so far.
  TimeMs stall_ms() const { return stall_ms_; }

  /// Number of distinct stall episodes.
  std::uint64_t stall_count() const { return stall_count_; }

  /// Playback continuity in [0, 1]: fraction of elapsed time not stalled.
  /// Defined as 1 before any time elapses. Settles the buffer to `now`.
  /// Validation delegated to settle(), as for buffered_kbit above.
  double continuity(TimeMs now);  // lint:allow(trust-boundary)

 private:
  /// Advances the drain (and stall accounting) to `now`.
  void settle(TimeMs now);

  Kbps playback_rate_;
  Kbit buffered_ = 0.0;
  TimeMs last_settle_ = 0.0;
  TimeMs start_time_ = 0.0;
  bool started_ = false;
  bool stalled_ = false;
  TimeMs stall_ms_ = 0.0;
  std::uint64_t stall_count_ = 0;
  Kbps download_rate_ = 0.0;
  Kbit total_arrived_ = 0.0;
  TimeMs last_arrival_ = 0.0;
  bool saw_arrival_ = false;
};

}  // namespace cloudfog::stream
