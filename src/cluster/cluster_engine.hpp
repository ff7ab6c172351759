/**
 * @file
 * The layer-6 edge-cluster serving engine: one shared request stream
 * served by N simulated accelerators on one `sim::EventQueue`.
 *
 *   arrivals --DispatchPolicy--> DeviceEngine[i] (own KV pool, own
 *   policy-driven step loop, own timing/energy model instance)
 *                                  --> ClusterReport roll-up
 *
 * `ClusterEngine` generates the seeded arrival trace once, routes
 * every arrival through a pluggable `DispatchPolicy` (round-robin /
 * join-shortest-kv / deadline-aware) to one of N per-device executors,
 * and runs the shared event queue to completion. Devices are fully
 * independent after dispatch — each owns a `KvBudgetAllocator` over
 * its own KV pool, a scheduling `Policy`, and its accelerator config —
 * so heterogeneous fleets (eDRAM- and SRAM-backed devices, different
 * pool sizes or batch caps) mix freely in one cluster.
 *
 * Preempt-and-requeue is the cluster-level budget-reclamation knob:
 * with `ClusterConfig::preempt.enabled`, a device reclaims the KV
 * grant of a deadline-doomed decode (see device_engine.hpp) and hands
 * the victim back to the cluster, which re-dispatches it through the
 * same dispatch policy — possibly onto a different device with more
 * free budget.
 *
 * Everything is a pure function of the config: reruns are
 * bit-identical, and a 1-device cluster under any dispatch policy
 * reproduces the single-device `Scheduler` bit-exactly.
 */

#ifndef KELLE_CLUSTER_CLUSTER_ENGINE_HPP
#define KELLE_CLUSTER_CLUSTER_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_metrics.hpp"
#include "cluster/dispatch_policy.hpp"
#include "faults/fault_injector.hpp"
#include "serving/device_engine.hpp"
#include "serving/request_generator.hpp"
#include "serving/scheduler.hpp"
#include "sim/event_queue.hpp"

namespace kelle {
namespace cluster {

/** What differs per device in a (possibly heterogeneous) fleet. */
struct DeviceSpec
{
    std::string name;
    accel::SystemConfig system = accel::kelleEdramSystem(2048);
    /** KV pool tokens; 0 = §8.4.1 capacity analysis of `system`. */
    std::size_t poolTokens = 0;
    std::size_t maxBatch = 16;
};

/** Full configuration of a cluster run. */
struct ClusterConfig
{
    /**
     * The traffic of the shared stream plus every engine knob the
     * devices inherit — model, scheduling policy, chunking and its
     * slack rule, preemption, budget override, watermark, step cap,
     * verbosity. Scheduler and ClusterEngine both materialize device
     * engines through the same `deviceConfigFrom` copy, so the two
     * paths cannot disagree on a knob (a field missed there is
     * dropped from *both* equally — add new knobs to that one
     * function). `system` / `poolTokens` / `maxBatch` act only as the
     * homogeneous-fleet defaults; each `DeviceSpec` overrides them.
     */
    serving::ServingConfig engine;
    DispatchKind dispatch = DispatchKind::RoundRobin;
    /** The fleet; must not be empty. */
    std::vector<DeviceSpec> devices;
    /**
     * Kept for source compatibility with callers that set it: the
     * fleet is driven by one shared event loop, so 1 is the only
     * accepted value and anything else is a fatal configuration
     * error at construction.
     */
    std::size_t threads = 1;
    /**
     * Deterministic fault injection (src/faults): seeded per-device
     * crash / slowdown / pool-shrink disruptions with recovery,
     * crash-eviction re-dispatch under a capped-backoff retry budget,
     * and the graceful-degradation ladder. Disabled (the default) the
     * engine never constructs an injector and every path is
     * bit-identical to the pre-fault build.
     */
    faults::FaultConfig faults;

    /** Empty when usable, else the failures, each naming its field:
     *  fleet, traffic, paged pool, each device's DeviceConfig and,
     *  when enabled, the fault model (`threads`: the engine checks). */
    std::string validate() const;
};

/** N identical devices named dev0..devN-1 (empty for n = 0). */
std::vector<DeviceSpec> homogeneousFleet(
    std::size_t n,
    const accel::SystemConfig &system = accel::kelleEdramSystem(2048),
    std::size_t pool_tokens = 0, std::size_t max_batch = 16);

/**
 * An alternating eDRAM/SRAM fleet (edram0, sram1, edram2, ...; empty
 * for n = 0): the
 * heterogeneity study of the source paper's co-design at fleet scale.
 * eDRAM-backed devices take `edram_pool_tokens`, SRAM-backed ones
 * `sram_pool_tokens` (0 = capacity analysis for either), so the KV
 * capacity asymmetry the dispatch policies must balance is explicit.
 */
std::vector<DeviceSpec> heteroEdramSramFleet(
    std::size_t n, std::size_t budget = 2048,
    std::size_t edram_pool_tokens = 0,
    std::size_t sram_pool_tokens = 0, std::size_t max_batch = 16);

/**
 * Lift a single-device ServingConfig onto an n-device homogeneous
 * cluster (the equivalence seam: n = 1 reproduces the Scheduler run
 * bit-exactly under any dispatch policy).
 */
ClusterConfig clusterConfigFrom(const serving::ServingConfig &cfg,
                                std::size_t n_devices,
                                DispatchKind dispatch);

/** Cluster-side health of one device (driven by the fault stream). */
enum class DeviceHealth : std::uint8_t
{
    Healthy,
    Degraded,   ///< slowdown or pool-shrink disruption active
    Down,       ///< crashed: blacklisted from dispatch
    Recovering, ///< crash repaired, warm-up running (dispatchable)
};

class ClusterEngine
{
  public:
    explicit ClusterEngine(const ClusterConfig &cfg);

    /** Generate the trace, serve it across the fleet, roll up. */
    ClusterReport run();

    std::size_t deviceCount() const { return devices_.size(); }
    /** Per-device engine state after run() (tests/examples). */
    const serving::DeviceEngine &device(std::size_t i) const
    {
        return *devices_[i];
    }
    /** The shared request table after run(). */
    const std::vector<serving::Request> &requests() const
    {
        return requests_;
    }

    /** Per-device health after run() (Healthy without faults). */
    DeviceHealth health(std::size_t i) const
    {
        return health_.empty() ? DeviceHealth::Healthy : health_[i];
    }

  private:
    /** Dispatch-policy pick plus the canEverAdmit fallback. Down
     *  devices are blacklisted; `devices_.size()` is returned when
     *  the whole fleet is down (the caller schedules a retry). */
    std::size_t pickDevice(std::size_t idx);
    void dispatchArrival(std::size_t idx);
    /** Refresh and return the reusable status-snapshot scratch. */
    const std::vector<DeviceStatus> &statuses();
    /** Drain the event queue, interleaving the fault stream. */
    void drive();
    /** @name Fault machinery (injector_ != nullptr only). @{ */
    /** Apply one fault instant: flip health, drive the device's fault
     *  surface, schedule eviction retries, run the degradation
     *  ladder. Requires the event queue advanced to `ev.at`. */
    void applyFault(const faults::FaultEvent &ev);
    /** Re-dispatch `idx` after a capped exponential backoff, or fail
     *  it permanently once the retry budget is spent. */
    void scheduleRetry(std::size_t idx, Time now);
    /** Earliest pending fault re-dispatch (+inf when none). */
    Time nextRetryTime() const;
    /** Fill ClusterReport::faults after the roll-up. */
    void fillFaultReport(ClusterReport *rep, Time last) const;
    /** @} */

    ClusterConfig cfg_;
    /** `cfg_.engine.trace`'s requests track (dispatch instants);
     *  null when tracing is off. */
    obs::TraceTrack *clusterTrack_ = nullptr;
    sim::EventQueue queue_;
    std::vector<serving::Request> requests_;
    std::unique_ptr<DispatchPolicy> dispatch_;
    std::vector<std::unique_ptr<serving::DeviceEngine>> devices_;
    /** Per-arrival DeviceStatus scratch (dispatch is allocation-free). */
    std::vector<DeviceStatus> statusScratch_;
    /** Index of the earliest trace arrival not yet dispatched (feeds
     *  the devices' fast-forward horizon; see Hooks). */
    std::size_t arrivalCursor_ = 0;

    /** Requeue events scheduled but not yet dispatched — while
     *  nonzero, no device may fast-forward past `now`. */
    int pendingRequeues_ = 0;

    /** @name Fault state (null/empty when cfg_.faults.enabled off;
     * every guard below is a pointer test, so the faults-off paths
     * are byte-identical to the pre-fault build). @{ */
    std::unique_ptr<faults::FaultInjector> injector_;
    std::vector<DeviceHealth> health_;
    std::size_t downCount_ = 0;
    /** Crash-start instant per device (meaningful while Down). */
    std::vector<Time> downSince_;
    /** Last device each request was dispatched to (terminal fault
     *  failures land on it). */
    std::vector<std::size_t> lastDevice_;
    /** Instants of the fault re-dispatches still pending (rare). */
    std::multiset<Time> retryAt_;
    std::vector<std::size_t> victimScratch_;
    std::vector<std::size_t> shedScratch_;
    /** Compacted-status index map: statusScratch_ row -> device. */
    std::vector<std::size_t> upIndexScratch_;
    /** Aggregate fault accounting (ClusterFaultReport source). */
    std::uint64_t crashes_ = 0;
    std::uint64_t slowdowns_ = 0;
    std::uint64_t shrinks_ = 0;
    std::uint64_t lostTokens_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t shedRequests_ = 0;
    std::uint64_t permanentFailures_ = 0;
    std::vector<ClusterFaultReport::Device> faultDevs_;
    /** @} */
};

} // namespace cluster
} // namespace kelle

#endif // KELLE_CLUSTER_CLUSTER_ENGINE_HPP
