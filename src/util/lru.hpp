#pragma once
// Bounded LRU map from a 128-bit key to a shared, immutable value: the
// session's method-result cache (flow/session.cpp) and the serve layer's
// prepared-network memo (serve/server.cpp) are both one of these.
//
// Lookups take the shared lock and refresh the entry's recency with a
// relaxed atomic stamp; inserts take the exclusive lock and evict the
// least-recently-stamped entries until both bounds hold — at most
// `capacity` entries and at most `max_weight` summed entry weights (an
// O(size) scan per eviction: inserts are rare next to the work an entry
// saves). Values are shared_ptr-owned, so a returned hit stays valid after
// its entry is evicted. An empty cache allocates nothing.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "util/hash.hpp"

namespace minpower {

template <class V>
class LruCache {
 public:
  explicit LruCache(
      std::size_t capacity,
      std::size_t max_weight = std::numeric_limits<std::size_t>::max())
      : capacity_(std::max<std::size_t>(capacity, 1)),
        max_weight_(max_weight) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  std::shared_ptr<const V> lookup(const Hash128& key) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    it->second.stamp.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
    return it->second.value;
  }

  /// Insert or replace `key`. A value heavier than `max_weight` on its own
  /// is not stored (it would evict everything, itself last). Returns the
  /// number of entries evicted to stay within the bounds.
  std::size_t insert(const Hash128& key, std::shared_ptr<const V> value,
                     std::size_t weight = 0) {
    if (weight > max_weight_) return 0;
    std::unique_lock<std::shared_mutex> lock(mu_);
    Entry& e = map_[key];
    weight_ = weight_ - e.weight + weight;
    e.value = std::move(value);
    e.weight = weight;
    e.stamp.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    std::size_t evicted = 0;
    while (map_.size() > capacity_ || weight_ > max_weight_) {
      auto victim = map_.begin();
      for (auto it = map_.begin(); it != map_.end(); ++it)
        if (it->second.stamp.load(std::memory_order_relaxed) <
            victim->second.stamp.load(std::memory_order_relaxed))
          victim = it;
      weight_ -= victim->second.weight;
      map_.erase(victim);
      ++evicted;
    }
    return evicted;
  }

  std::size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return map_.size();
  }

  /// Summed weights of the stored entries.
  std::size_t weight() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return weight_;
  }

 private:
  struct Entry {
    std::shared_ptr<const V> value;
    std::size_t weight = 0;
    std::atomic<std::uint64_t> stamp{0};
  };

  const std::size_t capacity_;
  const std::size_t max_weight_;
  mutable std::shared_mutex mu_;
  std::atomic<std::uint64_t> clock_{0};
  std::size_t weight_ = 0;  // guarded by mu_
  std::unordered_map<Hash128, Entry, Hash128Fold> map_;
};

}  // namespace minpower
