// Per-supernode video segment cache — DESIGN.md §11.
//
// CloudFog's supernodes historically only relay: every quality variant a
// player needs is produced upstream and shipped over the cloud's uplink.
// The cache subsystem lets a supernode keep recently served segments and
// satisfy repeat requests locally, trading a little fog-node storage and
// CPU (see transcoder.h) for cloud egress — the paper's central bandwidth
// economics, pushed one level further.
//
// A cached entry is content-addressed by (game, content_index, level):
// players never share *player-specific* state through the cache, only the
// encoded segment content of a (game, ladder level) at a content index.
// Capacity is byte-accounted (kbit, matching the rest of the codebase) and
// eviction is strict LRU over an intrusive doubly-linked list threaded
// through a slab, found through a flat open-addressing index of slab slots —
// no steady-state allocations once the slab and the index have grown to the
// working set, and a deterministic eviction order that tests pin against a
// naive reference implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "game/game.h"
#include "util/types.h"

namespace cloudfog::cache {

/// Content address of one cached segment variant.
struct SegmentKey {
  game::GameId game = -1;
  std::uint64_t content_index = 0;  // segment index in the content timeline
  int level = 0;                    // quality ladder level, 1..5

  bool operator==(const SegmentKey& other) const {
    return game == other.game && content_index == other.content_index &&
           level == other.level;
  }
};

struct SegmentKeyHash {
  std::size_t operator()(const SegmentKey& k) const {
    // splitmix64-style mix over the three fields; deterministic across
    // runs (no pointer or ASLR input).
    std::uint64_t x = static_cast<std::uint64_t>(k.content_index);
    x ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.game)) << 32) |
         static_cast<std::uint32_t>(k.level);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

/// Byte-accounted LRU cache of segment variants for ONE supernode.
///
/// All operations are O(1) expected (hash lookup + intrusive list splice)
/// and deterministic: the eviction victim is always the least recently
/// used entry, ties cannot occur (the list is a total order), and the
/// hashed index is only ever accessed by key, never iterated.
class SegmentCache {
 public:
  /// A zero-capacity cache is legal and degenerates to "nothing is ever
  /// admitted" — the ablation's fetch-everything baseline.
  explicit SegmentCache(Kbit capacity_kbit);

  /// True iff `key` is cached. Does NOT touch recency (use for policy
  /// probes that must not perturb the LRU order).
  bool contains(const SegmentKey& key) const;

  /// Looks up `key` and, when present, marks it most recently used.
  bool touch(const SegmentKey& key);

  /// The nearest cached ancestor of (game, content_index) strictly above
  /// `level` on the quality ladder, or 0 when none is cached. Probes only;
  /// recency is untouched (the caller touches the ancestor it actually
  /// transcodes from).
  int best_ancestor_level(game::GameId game, std::uint64_t content_index,
                          int level) const;

  /// Admits `key` at `size_kbit`, evicting LRU entries until it fits.
  /// Returns false (and admits nothing) when size_kbit exceeds the whole
  /// capacity or is non-positive. Re-inserting a cached key refreshes its
  /// recency and size.
  bool insert(const SegmentKey& key, Kbit size_kbit);

  /// Removes one entry; returns true if it was cached.
  bool erase(const SegmentKey& key);

  /// Drops every entry (capacity is kept).
  void clear();

  Kbit capacity_kbit() const { return capacity_kbit_; }
  Kbit used_kbit() const { return used_kbit_; }
  std::size_t entry_count() const { return entries_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Keys from most to least recently used — test/diagnostic inspection
  /// only (walks the intrusive list, allocates the result).
  std::vector<SegmentKey> keys_mru_to_lru() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    SegmentKey key;
    Kbit size_kbit = 0.0;
    std::uint32_t prev = kNil;  // toward MRU
    std::uint32_t next = kNil;  // toward LRU
  };

  void unlink(std::uint32_t slot);
  void link_front(std::uint32_t slot);
  void evict_lru();

  /// The index position holding `key`, or kNoPos.
  std::size_t find_pos(const SegmentKey& key) const;
  /// The slab slot holding `key`, or kNil.
  std::uint32_t find(const SegmentKey& key) const {
    const std::size_t pos = find_pos(key);
    return pos == kNoPos ? kNil : index_[pos];
  }
  /// Indexes slab slot `slot` (its key must not be indexed yet).
  void index_insert(std::uint32_t slot);
  /// Unindexes the slot at `pos`, shifting its probe run back over it.
  void index_erase(std::size_t pos);
  std::size_t home(std::uint32_t slot) const {
    return SegmentKeyHash{}(slab_[slot].key) & (index_.size() - 1);
  }

  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  Kbit capacity_kbit_;
  Kbit used_kbit_ = 0.0;
  std::uint64_t evictions_ = 0;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  std::vector<Entry> slab_;
  std::vector<std::uint32_t> free_slots_;
  // Open addressing over slab slots (kNil = empty): a power-of-two table,
  // linear probing, kept at most half full, deletion by backward shift (no
  // tombstones). It grows but never shrinks.
  std::vector<std::uint32_t> index_;
  std::size_t entries_ = 0;
};

}  // namespace cloudfog::cache
