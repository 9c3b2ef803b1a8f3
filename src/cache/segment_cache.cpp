#include "cache/segment_cache.h"

#include <algorithm>

#include "game/quality.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace cloudfog::cache {

SegmentCache::SegmentCache(Kbit capacity_kbit) : capacity_kbit_(capacity_kbit) {
  CF_CHECK_MSG(capacity_kbit >= 0.0, "cache capacity must be non-negative");
}

bool SegmentCache::contains(const SegmentKey& key) const {
  return find(key) != kNil;
}

bool SegmentCache::touch(const SegmentKey& key) {
  const std::uint32_t slot = find(key);
  if (slot == kNil) return false;
  if (slot != head_) {
    unlink(slot);
    link_front(slot);
  }
  return true;
}

int SegmentCache::best_ancestor_level(game::GameId game,
                                      std::uint64_t content_index,
                                      int level) const {
  for (int above = level + 1; above <= game::kMaxQualityLevel; ++above) {
    if (contains(SegmentKey{game, content_index, above})) return above;
  }
  return 0;
}

bool SegmentCache::insert(const SegmentKey& key, Kbit size_kbit) {
  if (size_kbit <= 0.0 || size_kbit > capacity_kbit_) return false;
  const std::uint32_t cached = find(key);
  if (cached != kNil) {
    // Refresh: re-account the (possibly changed) size and bump recency.
    Entry& e = slab_[cached];
    used_kbit_ += size_kbit - e.size_kbit;
    e.size_kbit = size_kbit;
    if (cached != head_) {
      unlink(cached);
      link_front(cached);
    }
  } else {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    Entry& e = slab_[slot];
    e.key = key;
    e.size_kbit = size_kbit;
    index_insert(slot);
    link_front(slot);
    used_kbit_ += size_kbit;
  }
  while (used_kbit_ > capacity_kbit_) evict_lru();
  CF_INVARIANT(used_kbit_ <= capacity_kbit_,
               "cache byte accounting must respect capacity after admission");
  return true;
}

bool SegmentCache::erase(const SegmentKey& key) {
  const std::size_t pos = find_pos(key);
  if (pos == kNoPos) return false;
  const std::uint32_t slot = index_[pos];
  used_kbit_ -= slab_[slot].size_kbit;
  unlink(slot);
  free_slots_.push_back(slot);
  index_erase(pos);
  return true;
}

void SegmentCache::clear() {
  std::fill(index_.begin(), index_.end(), kNil);
  entries_ = 0;
  free_slots_.clear();
  slab_.clear();
  head_ = tail_ = kNil;
  used_kbit_ = 0.0;
}

std::vector<SegmentKey> SegmentCache::keys_mru_to_lru() const {
  std::vector<SegmentKey> keys;
  keys.reserve(entries_);
  for (std::uint32_t slot = head_; slot != kNil; slot = slab_[slot].next) {
    keys.push_back(slab_[slot].key);
  }
  return keys;
}

void SegmentCache::unlink(std::uint32_t slot) {
  Entry& e = slab_[slot];
  if (e.prev != kNil) slab_[e.prev].next = e.next;
  if (e.next != kNil) slab_[e.next].prev = e.prev;
  if (head_ == slot) head_ = e.next;
  if (tail_ == slot) tail_ = e.prev;
  e.prev = e.next = kNil;
}

void SegmentCache::link_front(std::uint32_t slot) {
  Entry& e = slab_[slot];
  e.prev = kNil;
  e.next = head_;
  if (head_ != kNil) slab_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

void SegmentCache::evict_lru() {
  CF_CHECK_MSG(tail_ != kNil, "eviction requested from an empty cache");
  const std::uint32_t victim = tail_;
  used_kbit_ -= slab_[victim].size_kbit;
  index_erase(find_pos(slab_[victim].key));
  unlink(victim);
  free_slots_.push_back(victim);
  ++evictions_;
  CF_OBS_COUNT_HOT("cache.evictions", 1);
}

std::size_t SegmentCache::find_pos(const SegmentKey& key) const {
  if (index_.empty()) return kNoPos;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = SegmentKeyHash{}(key) & mask;;
       pos = (pos + 1) & mask) {
    const std::uint32_t slot = index_[pos];
    if (slot == kNil) return kNoPos;
    if (slab_[slot].key == key) return pos;
  }
}

void SegmentCache::index_insert(std::uint32_t slot) {
  if (2 * (entries_ + 1) > index_.size()) {
    std::vector<std::uint32_t> old(std::max<std::size_t>(8, 2 * index_.size()),
                                   kNil);
    old.swap(index_);
    for (const std::uint32_t s : old) {
      if (s == kNil) continue;
      std::size_t pos = home(s);
      while (index_[pos] != kNil) pos = (pos + 1) & (index_.size() - 1);
      index_[pos] = s;
    }
  }
  std::size_t pos = home(slot);
  while (index_[pos] != kNil) pos = (pos + 1) & (index_.size() - 1);
  index_[pos] = slot;
  ++entries_;
}

void SegmentCache::index_erase(std::size_t pos) {
  CF_CHECK_MSG(pos != kNoPos, "erasing a key the cache index does not hold");
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = pos;
  index_[hole] = kNil;
  // Backward shift: pull each later entry of the probe run into the hole
  // when the hole lies on its path from its home position.
  for (std::size_t i = (hole + 1) & mask; index_[i] != kNil;
       i = (i + 1) & mask) {
    const std::size_t from_home = (i - home(index_[i])) & mask;
    if (from_home >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      index_[i] = kNil;
      hole = i;
    }
  }
  --entries_;
}

}  // namespace cloudfog::cache
