/**
 * @file
 * Generic LRU memo cache, templated on the key type: one backend for the
 * calibrator (bit-pattern parameter strings -> residual vectors) and the
 * dse memo (canonical config strings or dse::ConfigIndex). Semantics are
 * exactly calib's original EvalCache's: lookup counts a hit or a miss and
 * refreshes recency, insert is a no-op when the key is present and evicts
 * the least-recent entry at capacity. The counters depend only on which
 * keys are equal, never on the key type.
 *
 * Deliberately not thread-safe: callers that need deterministic hit/miss
 * counters (calib per-start workers, the dse batch coordinator) own one
 * cache per serial access stream.
 */
#ifndef LOGNIC_IO_LRU_CACHE_HPP_
#define LOGNIC_IO_LRU_CACHE_HPP_

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace lognic::io {

struct LruCacheStats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t evictions{0};
};

template <typename Value, typename Key = std::string,
          typename Hash = std::hash<Key>>
class LruCache {
  public:
    using Stats = LruCacheStats;

    /// @throws std::invalid_argument when capacity is zero.
    explicit LruCache(std::size_t capacity) : capacity_(capacity)
    {
        if (capacity_ == 0)
            throw std::invalid_argument("LruCache: capacity must be > 0");
    }

    /// Cached value for @p key, refreshing its recency; nullopt on a miss.
    std::optional<Value> lookup(const Key& key)
    {
        const auto it = index_.find(key);
        if (it == index_.end()) {
            ++stats_.misses;
            return std::nullopt;
        }
        ++stats_.hits;
        entries_.splice(entries_.begin(), entries_, it->second);
        return it->second->value;
    }

    /// Insert (no-op if present), evicting the least-recent entry at
    /// capacity.
    void insert(Key key, Value value)
    {
        if (index_.count(key) != 0)
            return;
        entries_.push_front(Entry{key, std::move(value)});
        index_.emplace(std::move(key), entries_.begin());
        if (entries_.size() > capacity_) {
            index_.erase(entries_.back().key);
            entries_.pop_back();
            ++stats_.evictions;
        }
    }

    const Stats& stats() const { return stats_; }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

  private:
    struct Entry {
        Key key;
        Value value;
    };

    std::size_t capacity_;
    std::list<Entry> entries_; ///< front = most recent
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
    Stats stats_;
};

} // namespace lognic::io

#endif // LOGNIC_IO_LRU_CACHE_HPP_
