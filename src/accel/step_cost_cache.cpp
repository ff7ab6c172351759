#include "accel/step_cost_cache.hpp"

namespace kelle {
namespace accel {

StepCostCache::StepCostCache(const SystemConfig &sys,
                             const model::ModelConfig &m,
                             std::size_t max_entries)
    : sys_(sys), model_(m), maxEntries_(max_entries)
{
}

const StepReport &
StepCostCache::prefillChunk(std::size_t kv_offset, std::size_t chunk_len)
{
    const std::pair<std::size_t, std::size_t> key{kv_offset, chunk_len};
    const auto it = chunk_.find(key);
    if (it != chunk_.end()) {
        ++stats_.hits;
        return it->second;
    }
    if (chunk_.size() >= maxEntries_) {
        ++stats_.bypasses;
        overflow_ =
            simulatePrefillChunk(sys_, model_, kv_offset, chunk_len);
        return overflow_;
    }
    ++stats_.misses;
    const StepReport rep =
        simulatePrefillChunk(sys_, model_, kv_offset, chunk_len);
    return chunk_.emplace(key, rep).first->second;
}

} // namespace accel
} // namespace kelle
