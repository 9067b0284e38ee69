/**
 * @file
 * Sharded memoized evaluation cache for the design-space explorer.
 *
 * One template over the key type: MemoCache keys Evaluations by canonical
 * config string, the explorer keys archive entries by dse::ConfigIndex.
 * Either way a config's shard is its canonical-key fingerprint modulo the
 * shard count, so both count hits, misses and evictions identically.
 * Each shard is the shared io::LruCache backend (also calib's).
 *
 * The cache is NOT thread-safe and is only touched from the explorer's
 * serial batch coordinator — that is what makes hit/miss/eviction
 * counters (which appear in the FrontierReport) a pure function of the
 * candidate stream, identical at any thread count and across
 * kill/resume.
 */
#ifndef LOGNIC_DSE_MEMO_HPP_
#define LOGNIC_DSE_MEMO_HPP_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lognic/io/checkpoint.hpp"
#include "lognic/io/lru_cache.hpp"

namespace lognic::dse {

/// Model-oracle outcome for one config (see explorer.hpp for semantics).
struct Evaluation {
    std::vector<double> objectives; ///< aligned with the objective specs
    bool feasible{true};
    bool finite{true};
    /**
     * True when the feasibility pruner proved a constraint violation
     * without a model solve. Pruned evaluations are infeasible-but-finite
     * (never quarantined) and carry NaN objectives; both are safe because
     * an infeasible candidate's objectives are never compared or
     * reported. The flag survives journal round-trips so resumed runs
     * count pruned work identically.
     */
    bool pruned{false};
    std::string why; ///< violated constraint or evaluation failure
};

template <typename Key, typename Value = Evaluation,
          typename Hash = std::hash<Key>>
class BasicMemoCache {
  public:
    /// @throws std::invalid_argument when capacity or shards is zero.
    BasicMemoCache(std::size_t capacity, std::size_t shards)
    {
        if (capacity == 0)
            throw std::invalid_argument("MemoCache: capacity must be > 0");
        if (shards == 0)
            throw std::invalid_argument("MemoCache: shards must be > 0");
        shards_.assign(shards, Shard(std::max<std::size_t>(1, capacity
                                                                  / shards)));
    }

    /// @p fingerprint is the config's canonical-key fingerprint.
    std::optional<Value> lookup(const Key& key, std::uint64_t fingerprint)
    {
        return shards_[fingerprint % shards_.size()].lookup(key);
    }
    void insert(Key key, std::uint64_t fingerprint, Value value)
    {
        shards_[fingerprint % shards_.size()].insert(std::move(key),
                                                     std::move(value));
    }

    std::optional<Value> lookup(const std::string& key)
        requires std::same_as<Key, std::string>
    {
        return lookup(key, io::fnv1a64(key));
    }
    void insert(const std::string& key, Value value)
        requires std::same_as<Key, std::string>
    {
        insert(key, io::fnv1a64(key), std::move(value));
    }

    /// Counters summed across shards.
    io::LruCacheStats stats() const
    {
        io::LruCacheStats total;
        for (const Shard& shard : shards_) {
            total.hits += shard.stats().hits;
            total.misses += shard.stats().misses;
            total.evictions += shard.stats().evictions;
        }
        return total;
    }

  private:
    using Shard = io::LruCache<Value, Key, Hash>;
    std::vector<Shard> shards_;
};

/// Canonical-key-string memo of Evaluations.
using MemoCache = BasicMemoCache<std::string>;

} // namespace lognic::dse

#endif // LOGNIC_DSE_MEMO_HPP_
