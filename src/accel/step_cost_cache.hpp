/**
 * @file
 * Memoized prefill-chunk costing for the serving/cluster hot loop.
 *
 * `simulatePrefillChunk` is a pure function of (SystemConfig,
 * ModelConfig, KV offset, chunk length). Chunked prefill re-costs the
 * same (offset, length) pairs for every prompt that shares a chunk
 * size, so `StepCostCache` binds one (system, model) pair at
 * construction and memoizes the resulting `StepReport`s: a repeated
 * chunk shape costs one hash lookup instead of an analytic-model
 * evaluation. Decode steps need no memo: simulateBatchedDecodeStep
 * costs a batch in O(1) from (batch size, total resident tokens).
 *
 * The cache never evicts: shapes seen past `maxEntries` are computed
 * uncached (counted as `bypasses`) so memory stays bounded without
 * perturbing results.
 */

#ifndef KELLE_ACCEL_STEP_COST_CACHE_HPP
#define KELLE_ACCEL_STEP_COST_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "accel/timing_model.hpp"

namespace kelle {
namespace accel {

class StepCostCache
{
  public:
    /** Hit/miss accounting, reported by bench_simspeed. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t bypasses = 0; ///< computed uncached: cache full
        std::uint64_t
        lookups() const
        {
            return hits + misses + bypasses;
        }
        double
        hitRate() const
        {
            const std::uint64_t n = lookups();
            return n ? static_cast<double>(hits) /
                           static_cast<double>(n)
                     : 0.0;
        }
        Stats &
        operator+=(const Stats &o)
        {
            hits += o.hits;
            misses += o.misses;
            bypasses += o.bypasses;
            return *this;
        }
    };

    /**
     * Bind the cache to one simulated system and model. Both must
     * outlive the cache and must not be mutated while it is in use
     * (the key space assumes a fixed configuration; a DeviceEngine
     * owns one cache per device for exactly this reason).
     */
    StepCostCache(const SystemConfig &sys, const model::ModelConfig &m,
                  std::size_t max_entries = kDefaultMaxEntries);

    /**
     * Memoized simulatePrefillChunk. The reference stays valid until
     * the next bypassing (cache-full) call; callers that hold it
     * across steps should copy.
     */
    const StepReport &prefillChunk(std::size_t kv_offset,
                                   std::size_t chunk_len);

    const Stats &stats() const { return stats_; }
    std::size_t entries() const { return chunk_.size(); }

    /** Shapes memoized before new ones bypass the cache (~150 B per
     *  entry; chunked prefill walks (offset, length) pairs of a few
     *  chunk sizes, far below this for any realistic serving run). */
    static constexpr std::size_t kDefaultMaxEntries = 1u << 18;

  private:
    struct PairHash
    {
        std::size_t
        operator()(const std::pair<std::size_t, std::size_t> &p) const
        {
            std::uint64_t h = static_cast<std::uint64_t>(p.first) *
                              0x9e3779b97f4a7c15ull;
            h ^= static_cast<std::uint64_t>(p.second) +
                 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
            return static_cast<std::size_t>(h);
        }
    };

    const SystemConfig &sys_;
    const model::ModelConfig &model_;
    std::size_t maxEntries_;
    Stats stats_;
    /** (KV offset, chunk length) -> step report. */
    std::unordered_map<std::pair<std::size_t, std::size_t>, StepReport,
                       PairHash>
        chunk_;
    /** Result slot for bypassing calls (cache at capacity). */
    StepReport overflow_;
};

} // namespace accel
} // namespace kelle

#endif // KELLE_ACCEL_STEP_COST_CACHE_HPP
