// Bounded LRU map — the one LRU behind rag::Server's embedding and result
// caches and graph::ShardStore's resident shards.  Header-only and
// deliberately not thread-safe: each owner serializes access under its own
// lock, so one critical section covers a lookup plus the owner's own
// bookkeeping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace sagesim::runtime {

/// Fixed-capacity LRU cache.  Capacity 0 disables the cache entirely (every
/// get misses, put is a no-op) so "caching off" needs no special casing at
/// call sites.
template <typename K, typename V>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// The cached value (refreshing its recency), or nullopt on a miss.
  std::optional<V> get(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or refreshes @p key, evicting the least-recently-used entry
  /// when full; returns the evicted entry, if any.
  std::optional<std::pair<K, V>> put(const K& key, V value) {
    if (capacity_ == 0) return std::nullopt;
    if (const auto it = map_.find(key); it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return std::nullopt;
    }
    std::optional<std::pair<K, V>> evicted;
    if (order_.size() >= capacity_) {
      evicted = std::move(order_.back());
      map_.erase(evicted->first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, std::move(value));
    map_[key] = order_.begin();
    return evicted;
  }

  std::size_t size() const { return order_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool contains(const K& key) const { return map_.contains(key); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<K, V>> order_;  ///< front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> map_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
  std::uint64_t evictions_{0};
};

}  // namespace sagesim::runtime
