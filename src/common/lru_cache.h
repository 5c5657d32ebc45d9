// Sharded, charge-based LRU cache: the block cache and the transaction cache
// (paper §VII-H), the checkpoint buffer pool's clean pages, and the index
// tree caches. Thread-safe; values are shared_ptr so a cached entry can
// outlive its eviction.
//
// The cache is N independent shards (the RocksDB block-cache idiom), each
// with its own mutex, LRU list, map, usage and counters; a key picks its
// shard by a mixed hash, so parallel readers of different keys rarely meet
// on one lock. N is derived from the capacity: the largest power of two
// <= 16 that leaves every shard at least 1 MiB. A cache below 2 MiB is one
// shard and is an exact LRU over its whole capacity; a larger one is LRU
// per shard, each shard holding capacity / N. Evicted and replaced entries
// are unlinked under the shard lock and destroyed after it is released.
#pragma once

#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace sebdb {

template <typename Key, typename Value, typename Hasher = std::hash<Key>>
class LruCache {
 public:
  static constexpr uint32_t kMaxShards = 16;
  static constexpr uint64_t kMinShardBytes = 1ull << 20;

  /// capacity is the total charge budget in arbitrary units (bytes here).
  explicit LruCache(uint64_t capacity)
      : capacity_(capacity),
        num_shards_(ShardCount(capacity)),
        shard_shift_(64 - std::countr_zero(num_shards_)),
        shard_capacity_(capacity / num_shards_),
        shards_(new Shard[num_shards_]) {}

  /// Inserts (or replaces) key with the given charge. Entries larger than a
  /// shard's capacity (the whole capacity, for a one-shard cache) are not
  /// cached.
  void Insert(const Key& key, std::shared_ptr<Value> value, uint64_t charge) {
    if (charge > shard_capacity_) return;
    Shard& shard = ShardFor(key);
    std::list<Entry> garbage;  // destroyed after the lock is released
    MutexLock lock(&shard.mu);
    shard.lru.push_front(Entry{key, std::move(value), charge});
    auto [it, inserted] = shard.map.try_emplace(key, shard.lru.begin());
    if (!inserted) {
      shard.usage -= it->second->charge;
      garbage.splice(garbage.end(), shard.lru, it->second);
      it->second = shard.lru.begin();
    }
    shard.usage += charge;
    while (shard.usage > shard_capacity_) {
      auto victim = std::prev(shard.lru.end());
      shard.usage -= victim->charge;
      shard.map.erase(victim->key);
      garbage.splice(garbage.end(), shard.lru, victim);
      shard.evictions++;
    }
  }

  /// Returns the cached value or nullptr; promotes the entry on hit.
  std::shared_ptr<Value> Lookup(const Key& key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      shard.misses++;
      return nullptr;
    }
    shard.hits++;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  void Erase(const Key& key) {
    Shard& shard = ShardFor(key);
    std::list<Entry> garbage;
    MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return;
    shard.usage -= it->second->charge;
    garbage.splice(garbage.end(), shard.lru, it->second);
    shard.map.erase(it);
  }

  /// Counters summed over the shards. Each shard is read under its own lock,
  /// so its hits/misses/usage agree with each other; the sum is not one
  /// instant when readers race insertions.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t usage = 0;
    uint64_t entries = 0;
  };
  Stats stats() const {
    Stats out;
    for (uint32_t i = 0; i < num_shards_; i++) {
      const Shard& shard = shards_[i];
      MutexLock lock(&shard.mu);
      out.hits += shard.hits;
      out.misses += shard.misses;
      out.evictions += shard.evictions;
      out.usage += shard.usage;
      out.entries += shard.map.size();
    }
    return out;
  }

  uint64_t usage() const { return stats().usage; }
  uint64_t capacity() const { return capacity_; }
  uint64_t hits() const { return stats().hits; }
  uint64_t misses() const { return stats().misses; }
  uint32_t num_shards() const { return num_shards_; }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<Value> value;
    uint64_t charge;
  };

  // Aligned so two shards' locks never share a cache line.
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::list<Entry> lru GUARDED_BY(mu);  // MRU first
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hasher> map
        GUARDED_BY(mu);
    uint64_t usage GUARDED_BY(mu) = 0;
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  static uint32_t ShardCount(uint64_t capacity) {
    uint32_t n = 1;
    while (n < kMaxShards && capacity / (2 * n) >= kMinShardBytes) n *= 2;
    return n;
  }

  Shard& ShardFor(const Key& key) const {
    if (num_shards_ == 1) return shards_[0];
    // Keys are often dense integers (heights, page ids) that std::hash maps
    // to themselves; Fibonacci hashing takes the top bits of the product, to
    // which every key bit contributes.
    const uint64_t h = static_cast<uint64_t>(Hasher{}(key));
    return shards_[(h * 0x9e3779b97f4a7c15ull) >> shard_shift_];
  }

  const uint64_t capacity_;
  const uint32_t num_shards_;
  const int shard_shift_;  // 64 - log2(num_shards_)
  const uint64_t shard_capacity_;
  const std::unique_ptr<Shard[]> shards_;
};

}  // namespace sebdb
