#include "serving/scheduler.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace kelle {
namespace serving {

std::string
toString(RequestState s)
{
    switch (s) {
      case RequestState::Waiting:
        return "waiting";
      case RequestState::Prefilling:
        return "prefilling";
      case RequestState::Decoding:
        return "decoding";
      case RequestState::Completed:
        return "completed";
      case RequestState::Rejected:
        return "rejected";
    }
    return "?";
}

DeviceConfig
deviceConfigFrom(const ServingConfig &cfg)
{
    DeviceConfig d;
    d.system = cfg.system;
    d.model = cfg.model;
    d.policy = cfg.policy;
    d.maxBatch = cfg.maxBatch;
    d.chunkTokens = cfg.chunkTokens;
    d.chunkSlackFrac = cfg.chunkSlackFrac;
    d.preempt = cfg.preempt;
    d.paged = cfg.paged;
    d.budgetOverride = cfg.budgetOverride;
    d.poolTokens = cfg.poolTokens;
    d.highWatermark = cfg.highWatermark;
    d.maxEngineSteps = cfg.maxEngineSteps;
    d.clientRetries = cfg.clientRetries;
    d.clientRetryBackoffSec = cfg.clientRetryBackoffSec;
    d.fastSim = cfg.fastSim;
    d.verbose = cfg.verbose;
    d.profiler = cfg.profiler;
    return d;
}

std::string
ServingConfig::validate() const
{
    ConfigErrors err;
    err.add(traffic.validate());
    err.add(deviceConfigFrom(*this).validate());
    err.add(paged.validate());
    return err.str();
}

Scheduler::Scheduler(const ServingConfig &cfg) : cfg_(cfg)
{
    device_ = std::make_unique<DeviceEngine>(deviceConfigFrom(cfg_),
                                             queue_, requests_);
    // Requeue preemption victims through an immediate event, exactly
    // like ClusterEngine does for its devices: the victim re-enters
    // the queue after the current step boundary completes. Using the
    // same mechanism keeps a 1-device cluster bit-identical to this
    // engine with the preempt knob on as well as off.
    DeviceEngine::Hooks hooks;
    hooks.requeue = [this](std::size_t idx) {
        queue_.schedule(queue_.now(),
                        [this, idx] { device_->enqueue(idx); });
    };
    device_->setHooks(std::move(hooks));
    if (cfg_.trace != nullptr)
        device_->setTrace(cfg_.trace->addDeviceTrack("device"));
    if (cfg_.waterfall != nullptr)
        device_->setWaterfall(cfg_.waterfall, 0);
}

const ServingMetrics &
Scheduler::metrics() const
{
    return device_->metrics();
}

ServingReport
deviceReport(const DeviceEngine &dev, Time makespan)
{
    ServingReport rep;
    rep.summary = dev.metrics().summarize(makespan);
    rep.engineSteps = dev.engineSteps();
    rep.decodeSteps = dev.decodeSteps();
    rep.prefillChunks = dev.prefillChunks();
    rep.prefills = dev.prefills();
    rep.poolTokens = dev.allocator().capacityTokens();
    rep.poolCapacityBytes = dev.allocator().capacityBytes();
    rep.poolPeakBytes = dev.allocator().peakInUseBytes();
    rep.shrunkGrants = dev.allocator().shrunkGrants();
    rep.deferrals = dev.allocator().deferrals();
    rep.peakLogicalTokens = dev.allocator().peakLogicalTokens();
    if (const kv::KvPagePool *pool = dev.allocator().pagePool()) {
        rep.paged.enabled = true;
        rep.paged.totalPages = pool->totalPages();
        rep.paged.blockTokens = pool->blockTokens();
        rep.paged.peakUsedPages = pool->peakUsedPages();
        rep.paged.peakSharedPages = pool->peakSharedPages();
        rep.paged.prefixHitTokens = pool->prefixHitTokens();
        rep.paged.cowCopies = pool->cowCopies();
        rep.paged.cachedReclaims = pool->cachedReclaims();
        rep.paged.tailReclaims = dev.allocator().tailReclaims();
        rep.paged.reclaimedPages = dev.allocator().reclaimedPages();
        rep.paged.budgetClips = dev.allocator().budgetClips();
    }
    rep.drained = dev.drained();
    return rep;
}

ServingReport
Scheduler::run()
{
    {
        obs::PhaseProfiler::Timer timer(
            cfg_.profiler, obs::PhaseProfiler::Phase::TraceGen);
        requests_ = generateTrace(cfg_.traffic);
    }
    if (cfg_.waterfall != nullptr)
        cfg_.waterfall->beginRun(requests_.size());
    // All arrivals sit in the queue up front; one in-flight step and
    // the occasional requeue ride on top.
    queue_.reserve(requests_.size() + 8);
    for (std::size_t i = 0; i < requests_.size(); ++i) {
        queue_.schedule(requests_[i].arrival,
                        [this, i] { device_->enqueue(i); });
    }
    {
        obs::PhaseProfiler::Timer timer(
            cfg_.profiler, obs::PhaseProfiler::Phase::SerialDrive);
        queue_.runAll();
    }

    // Makespan is first arrival to last completion; the idle lead-in
    // before the first arrival is not serving time.
    Time makespan;
    if (device_->lastCompletion().sec() > 0.0)
        makespan = device_->lastCompletion() -
                   requests_.front().arrival;
    ServingReport rep = deviceReport(*device_, makespan);
    if (cfg_.waterfall != nullptr)
        rep.attribution = cfg_.waterfall->report(1);
    return rep;
}

} // namespace serving
} // namespace kelle
