/**
 * @file
 * The single-device serving engine: one arrival trace played through
 * one `DeviceEngine` executor.
 *
 * The serving engine is split into three parts (see policy.hpp and
 * serving_metrics.hpp for the other two):
 *
 *   Policy  --EngineStepPlan-->  DeviceEngine (executor)  -->  Metrics
 *
 * Since PR 4 the executor lives in device_engine.hpp so that the
 * multi-device cluster (src/cluster) can run N of them over one shared
 * event queue; `Scheduler` is the one-device owner: it generates the
 * trace, schedules every arrival into its single `DeviceEngine`, runs
 * the queue to completion and summarizes. A 1-device ClusterEngine
 * under any dispatch policy reproduces a `Scheduler` run bit-exactly,
 * because both drive the same executor the same way.
 *
 * Admission flows through KvBudgetAllocator: a request is admitted
 * only if its AERP budget N' (possibly shrunk under eviction
 * pressure) fits in the KV pool, so the pool is never oversubscribed.
 * A request whose protected floor exceeds the whole pool is rejected
 * immediately.
 */

#ifndef KELLE_SERVING_SCHEDULER_HPP
#define KELLE_SERVING_SCHEDULER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serving/device_engine.hpp"
#include "serving/request.hpp"
#include "serving/request_generator.hpp"
#include "serving/serving_metrics.hpp"
#include "sim/event_queue.hpp"

namespace kelle {
namespace serving {

/** Full configuration of a serving run. */
struct ServingConfig
{
    accel::SystemConfig system = accel::kelleEdramSystem(2048);
    model::ModelConfig model = model::llama2_7b();
    TrafficConfig traffic;
    SchedulePolicy policy = SchedulePolicy::ContinuousBatching;

    /** Decode-batch cap (Fcfs always serves one request). */
    std::size_t maxBatch = 16;
    /**
     * Prefill chunk size in prompt tokens; 0 runs each prompt as one
     * monolithic step. Smaller chunks let policies preempt long
     * prefills at chunk boundaries at the price of re-streaming the
     * weights once per chunk.
     */
    std::size_t chunkTokens = 0;
    /**
     * EdfChunked slack-aware alternation: run consecutive prefill
     * chunks when the prefilling request's TTFT slack is below this
     * fraction of its whole TTFT budget. 0 keeps the unconditional
     * alternation bit-exactly.
     */
    double chunkSlackFrac = 0.0;
    /** Preempt-and-requeue of deadline-doomed decodes (off by
     *  default; the cluster exposes it as a fleet-level knob). */
    PreemptConfig preempt;
    /** Paged KV pool (off keeps the contiguous allocator bit-exactly;
     *  see PagedKvConfig in device_engine.hpp). */
    PagedKvConfig paged;
    /** Per-request budget override; 0 keeps each task's N'. */
    std::size_t budgetOverride = 0;
    /**
     * KV pool size in tokens; 0 derives it from the §8.4.1 capacity
     * analysis (device DRAM net of resident weights).
     */
    std::size_t poolTokens = 0;
    /** Allocator pressure watermark. */
    double highWatermark = 0.85;
    /** Safety cap on engine steps (prefill chunks + decode
     *  iterations); 0 = run the trace to completion. */
    std::uint64_t maxEngineSteps = 0;
    /**
     * Client-side retry of overload rejections: a request whose floor
     * exceeds the pool re-arrives up to this many times after a
     * deterministic backoff instead of terminating (0 = off; see
     * DeviceConfig::clientRetries). The base arrival trace is
     * byte-identical either way — retries are engine-side re-arrivals
     * of already-generated requests.
     */
    std::uint32_t clientRetries = 0;
    /** Client-retry backoff base in seconds (jittered by request). */
    double clientRetryBackoffSec = 5.0;
    /**
     * Bit-identical simulation fast path (decode fast-forward + the
     * prefill-chunk cost memo; see device_engine.hpp). Off runs the
     * uncached step-at-a-time core — the equivalence-test oracle and
     * the bench_simspeed reference.
     */
    bool fastSim = true;
    /** inform() per-request lifecycle lines (examples/edge_server). */
    bool verbose = false;
    /**
     * Deterministic request-lifecycle tracing (obs/trace.hpp): the
     * owner registers one track per device and emits every lifecycle
     * event into it, stamped with sim time. Null (the default)
     * disables tracing with zero cost and zero output perturbation.
     * Use one recorder per run; it must outlive the engine.
     */
    obs::TraceRecorder *trace = nullptr;
    /**
     * SLO root-cause attribution (obs/attribution.hpp): the owner
     * sizes the waterfall for the generated trace and every device
     * engine stamps its requests' latency components and miss causes
     * into it; the roll-up lands in `ServingReport::attribution`.
     * Null (the default) disables attribution with zero cost and zero
     * output perturbation. One waterfall per run; it must outlive the
     * engine.
     */
    obs::LatencyWaterfall *waterfall = nullptr;
    /** Wall-clock phase profiling (obs/profile.hpp); null = off. */
    obs::PhaseProfiler *profiler = nullptr;

    /** The traffic, device and paged-pool validate() failures
     *  joined; empty when usable. */
    std::string validate() const;
};

/** The per-device slice of a ServingConfig, for the executor. */
DeviceConfig deviceConfigFrom(const ServingConfig &cfg);

/** Paged-pool accounting in a report (zeros in contiguous mode). */
struct PagedPoolStats
{
    bool enabled = false;
    std::size_t totalPages = 0;
    std::size_t blockTokens = 0;
    std::size_t peakUsedPages = 0;
    std::size_t peakSharedPages = 0;
    std::uint64_t prefixHitTokens = 0;
    std::uint64_t cowCopies = 0;
    std::uint64_t cachedReclaims = 0;
    std::uint64_t tailReclaims = 0;
    std::uint64_t reclaimedPages = 0;
    std::uint64_t budgetClips = 0;
};

/** Run outcome: SLO summary plus engine/allocator accounting. */
struct ServingReport
{
    ServingSummary summary;
    std::uint64_t engineSteps = 0;   ///< prefill chunks + decode steps
    std::uint64_t decodeSteps = 0;
    std::uint64_t prefillChunks = 0; ///< == prefills when unchunked
    std::uint64_t prefills = 0;      ///< completed prompt prefills
    std::size_t poolTokens = 0;
    double poolCapacityBytes = 0.0;
    double poolPeakBytes = 0.0;
    std::uint64_t shrunkGrants = 0;
    std::uint64_t deferrals = 0;
    /** Peak sum of live grants' logical budgets N' (both modes) —
     *  the resident-token capacity metric of the paged benches. */
    std::size_t peakLogicalTokens = 0;
    PagedPoolStats paged;
    /** Latency-waterfall roll-up (empty when attribution is off). */
    obs::AttributionReport attribution;
    /** False when maxEngineSteps truncated the run. */
    bool drained = true;
};

/**
 * One device's ServingReport, summarized over `makespan`. The single
 * fill path shared by Scheduler and the cluster roll-up, so the two
 * cannot disagree field-by-field.
 */
ServingReport deviceReport(const DeviceEngine &dev, Time makespan);

class Scheduler
{
  public:
    explicit Scheduler(const ServingConfig &cfg);

    /** Generate the trace, drive it to completion, summarize. */
    ServingReport run();

    /** Per-request records after run() (completed requests only). */
    const ServingMetrics &metrics() const;

  private:
    ServingConfig cfg_;
    sim::EventQueue queue_;
    std::vector<Request> requests_;
    std::unique_ptr<DeviceEngine> device_;
};

} // namespace serving
} // namespace kelle

#endif // KELLE_SERVING_SCHEDULER_HPP
