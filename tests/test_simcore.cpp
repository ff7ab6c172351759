/**
 * @file
 * The simulation fast path's correctness contract (ISSUE 5): every
 * shortcut — memoized step costing, telescoped accumulation, the
 * serving engines' allocation-free fast-forward stepping — must be
 * *bitwise* invisible. Four suites:
 *
 *  - StepCostCache: cached vs uncached prefill-chunk StepReports are
 *    equal on every double across randomized chunk offsets and
 *    eDRAM/SRAM system configs, and a capacity-capped cache bypasses
 *    without perturbing values; decode batches sharing (batch size,
 *    total resident) produce identical reports however the tokens are
 *    distributed.
 *  - TimingTelescoping: the (B, N) closed form of
 *    simulateBatchedDecodeStep and the memoized decode loop in
 *    simulate() equal their original loop forms (kept as
 *    accel::detail references) bit-for-bit.
 *  - FastPathEquivalence: whole serving and cluster runs with
 *    ServingConfig::fastSim on vs off produce field-for-field
 *    identical reports — the end-to-end guarantee the golden-digest
 *    test pins against the checked-in outputs.
 *  - AllocationFree: steady-state decode stepping performs zero heap
 *    allocations (global operator new counter; the engine's scratch
 *    buffers, SBO-sized callbacks and reserved queue make the hot
 *    loop allocation-free once warm).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <tuple>
#include <vector>

#include "accel/step_cost_cache.hpp"
#include "accel/timing_model.hpp"
#include "cluster/cluster_engine.hpp"
#include "serving/scheduler.hpp"
#include "sim/workloads.hpp"

using namespace kelle;

// ---- global allocation counter (AllocationFree suite) --------------
// Counts every scalar/array non-aligned heap allocation in the
// process. Only the AllocationFree test reads it; the other suites
// are unaffected beyond a negligible increment cost.

namespace {
std::atomic<std::uint64_t> g_heapAllocs{0};
}

// GCC cannot see that these replacements pair malloc with free
// consistently across new/delete; the heuristic warning is spurious.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace {

// ---- bitwise comparison helpers ------------------------------------

void
expectEnergyEq(const accel::EnergyBreakdown &a,
               const accel::EnergyBreakdown &b)
{
    EXPECT_EQ(a.rsa.j(), b.rsa.j());
    EXPECT_EQ(a.sfu.j(), b.sfu.j());
    EXPECT_EQ(a.weightSram.j(), b.weightSram.j());
    EXPECT_EQ(a.kvMem.j(), b.kvMem.j());
    EXPECT_EQ(a.refresh.j(), b.refresh.j());
    EXPECT_EQ(a.dram.j(), b.dram.j());
    EXPECT_EQ(a.leakage.j(), b.leakage.j());
}

void
expectStepEq(const accel::StepReport &a, const accel::StepReport &b)
{
    EXPECT_EQ(a.latency.sec(), b.latency.sec());
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.macs, b.macs);
    expectEnergyEq(a.energy, b.energy);
}

void
expectSummaryEq(const serving::ServingSummary &a,
                const serving::ServingSummary &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.makespan.sec(), b.makespan.sec());
    EXPECT_EQ(a.ttftMean, b.ttftMean);
    EXPECT_EQ(a.ttftP50, b.ttftP50);
    EXPECT_EQ(a.ttftP95, b.ttftP95);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.e2eP50, b.e2eP50);
    EXPECT_EQ(a.e2eP95, b.e2eP95);
    EXPECT_EQ(a.e2eP99, b.e2eP99);
    EXPECT_EQ(a.tpotMean, b.tpotMean);
    EXPECT_EQ(a.tpotP50, b.tpotP50);
    EXPECT_EQ(a.tpotP95, b.tpotP95);
    EXPECT_EQ(a.tokenGapP95, b.tokenGapP95);
    EXPECT_EQ(a.goodputTokensPerSec, b.goodputTokensPerSec);
    EXPECT_EQ(a.sloTtftAttainment, b.sloTtftAttainment);
    EXPECT_EQ(a.sloTpotAttainment, b.sloTpotAttainment);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(a.admissionBypasses, b.admissionBypasses);
    EXPECT_EQ(a.maxQueueWaitSec, b.maxQueueWaitSec);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.meanBudgetFraction, b.meanBudgetFraction);
    EXPECT_EQ(a.energyPerToken, b.energyPerToken);
    expectEnergyEq(a.energy, b.energy);
}

void
expectReportEq(const serving::ServingReport &a,
               const serving::ServingReport &b)
{
    expectSummaryEq(a.summary, b.summary);
    EXPECT_EQ(a.engineSteps, b.engineSteps);
    EXPECT_EQ(a.decodeSteps, b.decodeSteps);
    EXPECT_EQ(a.prefillChunks, b.prefillChunks);
    EXPECT_EQ(a.prefills, b.prefills);
    EXPECT_EQ(a.poolTokens, b.poolTokens);
    EXPECT_EQ(a.poolCapacityBytes, b.poolCapacityBytes);
    EXPECT_EQ(a.poolPeakBytes, b.poolPeakBytes);
    EXPECT_EQ(a.shrunkGrants, b.shrunkGrants);
    EXPECT_EQ(a.deferrals, b.deferrals);
    EXPECT_EQ(a.drained, b.drained);
}

/** The config axes the cache must be exact over. */
std::vector<accel::SystemConfig>
cacheSystems()
{
    return {accel::kelleEdramSystem(2048), accel::aerpSramSystem(1024),
            accel::aepSramSystem(512), accel::originalEdramSystem()};
}

std::vector<std::size_t>
randomResident(std::mt19937_64 &rng, std::size_t max_batch,
               std::size_t max_tokens)
{
    std::uniform_int_distribution<std::size_t> bdist(1, max_batch);
    std::uniform_int_distribution<std::size_t> ndist(1, max_tokens);
    std::uniform_int_distribution<int> rep(0, 1);
    std::vector<std::size_t> r(bdist(rng));
    for (std::size_t i = 0; i < r.size(); ++i) {
        // Half the members repeat the previous value: decode batches
        // clamp at shared budgets, so runs of equal counts are the
        // common case the grouped closed form telescopes.
        if (i > 0 && rep(rng))
            r[i] = r[i - 1];
        else
            r[i] = ndist(rng);
    }
    return r;
}

// ---- StepCostCache -------------------------------------------------

TEST(StepCostCache, CachedDecodeEqualsUncachedAcrossRandomShapes)
{
    // Decode steps are no longer memoized: the serving engines cost a
    // batch from its (batch size, total resident tokens) key, which
    // must equal the uncached member-at-a-time costing on every double
    // and stay exact when the same shape is queried again.
    const auto m = model::llama2_7b();
    std::mt19937_64 rng(7);
    for (const auto &sys : cacheSystems()) {
        for (int i = 0; i < 50; ++i) {
            const auto resident = randomResident(rng, 24, 4096);
            std::size_t n_sum = 0;
            for (std::size_t n : resident)
                n_sum += n;
            const auto uncached =
                accel::detail::batchedDecodeStepLoopReference(sys, m,
                                                              resident);
            expectStepEq(accel::simulateBatchedDecodeStep(
                             sys, m, resident.size(), n_sum),
                         uncached);
            expectStepEq(accel::simulateBatchedDecodeStep(
                             sys, m, resident.size(), n_sum),
                         uncached);
        }
    }
}

TEST(StepCostCache, EqualKeyBatchesProduceIdenticalReports)
{
    // A decode step's cost is a function of (batch size, total
    // resident tokens): every per-member accumuland is an
    // integer-valued double, so the sums are exact and any
    // distribution of the same total over the same batch size yields
    // the same bits.
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    std::mt19937_64 rng(11);
    for (int i = 0; i < 40; ++i) {
        auto a = randomResident(rng, 16, 4096);
        if (a.size() < 2)
            a.push_back(a.front());
        // Redistribute one token between two members: same (B, N).
        auto b = a;
        std::size_t from = 0;
        while (from < b.size() && b[from] <= 1)
            ++from;
        if (from == b.size())
            continue;
        const std::size_t to = (from + 1) % b.size();
        b[from] -= 1;
        b[to] += 1;
        // And a shuffled permutation: same multiset, same key.
        auto c = a;
        std::shuffle(c.begin(), c.end(), rng);
        const auto ra = accel::simulateBatchedDecodeStep(sys, m, a);
        const auto rb = accel::simulateBatchedDecodeStep(sys, m, b);
        const auto rc = accel::simulateBatchedDecodeStep(sys, m, c);
        expectStepEq(ra, rb);
        expectStepEq(ra, rc);
    }
}

TEST(StepCostCache, CachedPrefillChunkEqualsUncached)
{
    const auto m = model::llama2_7b();
    std::mt19937_64 rng(13);
    std::uniform_int_distribution<std::size_t> off(0, 2048);
    std::uniform_int_distribution<std::size_t> len(1, 512);
    for (const auto &sys : cacheSystems()) {
        accel::StepCostCache cache(sys, m);
        for (int i = 0; i < 50; ++i) {
            const std::size_t o = off(rng);
            const std::size_t l = len(rng);
            const auto &cached = cache.prefillChunk(o, l);
            const auto uncached =
                accel::simulatePrefillChunk(sys, m, o, l);
            expectStepEq(cached, uncached);
            expectStepEq(cache.prefillChunk(o, l), uncached);
        }
    }
}

TEST(StepCostCache, CapacityCapBypassesWithoutPerturbingValues)
{
    const auto sys = accel::kelleEdramSystem(2048);
    const auto m = model::llama2_7b();
    accel::StepCostCache cache(sys, m, /*max_entries=*/4);
    for (std::size_t off = 100; off < 120; ++off) {
        expectStepEq(cache.prefillChunk(off, 64),
                     accel::simulatePrefillChunk(sys, m, off, 64));
    }
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().bypasses, 16u);
    EXPECT_EQ(cache.entries(), 4u);
}

// ---- TimingTelescoping ---------------------------------------------

TEST(TimingTelescoping, GroupedBatchedDecodeEqualsLoopForm)
{
    const auto m = model::llama2_7b();
    std::mt19937_64 rng(17);
    for (const auto &sys : cacheSystems()) {
        for (int i = 0; i < 80; ++i) {
            const auto resident = randomResident(rng, 32, 8192);
            expectStepEq(
                accel::simulateBatchedDecodeStep(sys, m, resident),
                accel::detail::batchedDecodeStepLoopReference(
                    sys, m, resident));
        }
    }
}

/** Both shipping overloads of the batched decode step must equal the
 *  member-at-a-time loop on every double. */
void
expectDecodeClosedFormExact(const accel::SystemConfig &sys,
                            const model::ModelConfig &m,
                            const std::vector<std::size_t> &resident)
{
    std::size_t n_sum = 0;
    for (std::size_t n : resident)
        n_sum += n;
    const auto loop =
        accel::detail::batchedDecodeStepLoopReference(sys, m, resident);
    expectStepEq(
        accel::simulateBatchedDecodeStep(sys, m, resident.size(), n_sum),
        loop);
    expectStepEq(accel::simulateBatchedDecodeStep(sys, m, resident), loop);
}

TEST(TimingTelescoping, ClosedFormDecodeEqualsLoopForm)
{
    // Every preset: GatedSilu and Mlp FFNs, MHA and GQA, small and
    // large vocabularies.
    const std::vector<model::ModelConfig> models = {
        model::llama2_7b(),  model::llama2_13b(), model::llama32_3b(),
        model::llama3_8b(),  model::mistral_7b(), model::qwen2_7b(),
        model::opt_6_7b(),   model::tinyLm(),     model::tinyLmGqa()};
    std::mt19937_64 rng(17);
    for (const auto &m : models) {
        for (const auto &sys : cacheSystems()) {
            for (int i = 0; i < 40; ++i)
                expectDecodeClosedFormExact(sys, m,
                                            randomResident(rng, 64, 8192));
            // The largest shape a serving device reaches: a full
            // 64-member batch, every member at the 2048-token budget
            // (or at a PG19-length context without eviction).
            expectDecodeClosedFormExact(
                sys, m, std::vector<std::size_t>(64, 2048));
            expectDecodeClosedFormExact(
                sys, m, std::vector<std::size_t>(64, 512 + 8192));
        }
    }
}

TEST(TimingTelescoping, MemoizedSimulateDecodeLoopEqualsLoopForm)
{
    // decLen spans the budget clamp, so the memoized loop exercises
    // both the growing prefix and the saturated tail it telescopes.
    for (const auto &sys : cacheSystems()) {
        for (std::size_t dec : {std::size_t{64}, std::size_t{1000},
                                std::size_t{3000}}) {
            accel::Workload w;
            w.model = model::llama2_7b();
            w.ctxLen = 512;
            w.decLen = dec;
            w.batch = 4;
            const auto fast = accel::simulate(sys, w);
            const auto loop = accel::detail::simulateLoopReference(sys, w);
            EXPECT_EQ(fast.prefillLatency.sec(), loop.prefillLatency.sec());
            EXPECT_EQ(fast.decodeLatency.sec(), loop.decodeLatency.sec());
            EXPECT_EQ(fast.dramBytesTotal, loop.dramBytesTotal);
            EXPECT_EQ(fast.macsTotal, loop.macsTotal);
            EXPECT_EQ(fast.recomputedTokensPerStep,
                      loop.recomputedTokensPerStep);
            EXPECT_EQ(fast.kvResidentBytesEnd, loop.kvResidentBytesEnd);
            EXPECT_EQ(fast.kvOnChipFraction, loop.kvOnChipFraction);
            expectEnergyEq(fast.prefillEnergy, loop.prefillEnergy);
            expectEnergyEq(fast.decodeEnergy, loop.decodeEnergy);
        }
    }
}

// ---- FastPathEquivalence -------------------------------------------

serving::ServingConfig
smallServingConfig(std::uint64_t seed, serving::SchedulePolicy policy,
                   std::size_t chunk)
{
    serving::ServingConfig cfg;
    cfg.traffic.ratePerSec = 0.05;
    cfg.traffic.numRequests = 14;
    cfg.traffic.seed = seed;
    cfg.policy = policy;
    cfg.chunkTokens = chunk;
    return cfg;
}

TEST(FastPathEquivalence, SchedulerFastVsSlowAcrossPolicies)
{
    for (const auto policy : serving::allSchedulePolicies()) {
        for (std::size_t chunk : {std::size_t{0}, std::size_t{256}}) {
            for (std::uint64_t seed : {7ull, 42ull}) {
                auto fast = smallServingConfig(seed, policy, chunk);
                auto slow = fast;
                slow.fastSim = false;
                const auto fr = serving::Scheduler(fast).run();
                const auto sr = serving::Scheduler(slow).run();
                expectReportEq(fr, sr);
            }
        }
    }
}

/** What the fast half of a fast-vs-slow cluster comparison did. */
struct FastRun
{
    cluster::ClusterReport report;
    std::uint64_t fastForwarded = 0;
};

/** Run `cfg` with fastSim on and off and require field-for-field
 *  identical fleet reports. */
FastRun
expectClusterFastEqSlow(const cluster::ClusterConfig &cfg)
{
    auto slow_cfg = cfg;
    slow_cfg.engine.fastSim = false;
    cluster::ClusterEngine fast(cfg);
    cluster::ClusterEngine slow(slow_cfg);
    FastRun run;
    run.report = fast.run();
    const auto sr = slow.run();
    const auto &fr = run.report;
    expectReportEq(fr.aggregate, sr.aggregate);
    EXPECT_EQ(fr.devices.size(), sr.devices.size());
    for (std::size_t i = 0;
         i < std::min(fr.devices.size(), sr.devices.size()); ++i) {
        expectReportEq(fr.devices[i].report, sr.devices[i].report);
        EXPECT_EQ(fr.devices[i].dispatched, sr.devices[i].dispatched);
        EXPECT_EQ(fr.devices[i].busySec, sr.devices[i].busySec);
        EXPECT_EQ(fr.devices[i].kvPeakUtilization,
                  sr.devices[i].kvPeakUtilization);
    }
    EXPECT_EQ(fr.loadImbalanceCv, sr.loadImbalanceCv);
    EXPECT_EQ(fr.refreshEnergyJ, sr.refreshEnergyJ);
    for (std::size_t i = 0; i < fast.deviceCount(); ++i)
        run.fastForwarded += fast.device(i).fastForwardedSteps();
    return run;
}

/** A 2-device TinyLM fleet under a 2000 req/s burst: small pools and
 *  batch caps keep every device saturated. */
cluster::ClusterConfig
tinyBurstConfig(cluster::DispatchKind dispatch,
                serving::SchedulePolicy policy, std::size_t requests)
{
    serving::ServingConfig cfg;
    cfg.model = model::tinyLm();
    cfg.system = accel::kelleEdramSystem(2048);
    cfg.policy = policy;
    cfg.maxBatch = 4;
    cfg.poolTokens = 512;
    cfg.traffic.ratePerSec = 2000.0;
    cfg.traffic.seed = 13;
    cfg.traffic.numRequests = requests;
    cfg.traffic.mix = {{sim::scaledForTiny(sim::lambada(), 96), 1.0},
                       {sim::scaledForTiny(sim::triviaQa(), 128), 1.0}};
    return cluster::clusterConfigFrom(cfg, 2, dispatch);
}

TEST(FastPathEquivalence, ClusterFastVsSlowHeteroFleet)
{
    for (const auto dispatch : cluster::allDispatchPolicies()) {
        for (bool preempt : {false, true}) {
            cluster::ClusterConfig cfg;
            cfg.engine = smallServingConfig(
                42, serving::SchedulePolicy::ContinuousBatching, 0);
            cfg.engine.traffic.numRequests = 16;
            cfg.engine.traffic.ratePerSec = 0.1;
            cfg.engine.traffic.slo.tpotSec = preempt ? 0.15 : 0.0;
            cfg.engine.preempt.enabled = preempt;
            cfg.dispatch = dispatch;
            cfg.devices = cluster::heteroEdramSramFleet(
                2, 2048, 8192, 4096, 8);
            expectClusterFastEqSlow(cfg);
        }
    }

    // A 2 us TPOT target dooms nearly every decode: the fast path's
    // doom bounds must reproduce the slow path's preemptions and
    // cross-device requeues.
    {
        auto cfg = tinyBurstConfig(
            cluster::DispatchKind::JoinShortestKv,
            serving::SchedulePolicy::ContinuousBatching, 24);
        cfg.engine.traffic.slo.tpotSec = 2e-6;
        cfg.engine.preempt.enabled = true;
        const FastRun run = expectClusterFastEqSlow(cfg);
        EXPECT_GT(run.report.aggregate.summary.preemptions, 0u);
    }

    // A 96-token pool under sjf/edf (skip-blocked admission): devices
    // sit KV-blocked and fast-forward through the gap, and the relaxed
    // fast-forward guard must replay the slow path's deferrals.
    for (auto policy : {serving::SchedulePolicy::SjfWithinDeadline,
                        serving::SchedulePolicy::EdfChunked}) {
        auto cfg = tinyBurstConfig(cluster::DispatchKind::RoundRobin,
                                   policy, 16);
        cfg.engine.chunkTokens = 16;
        for (auto &d : cfg.devices)
            d.poolTokens = 96;
        cfg.engine.poolTokens = 96;
        const FastRun run = expectClusterFastEqSlow(cfg);
        EXPECT_TRUE(run.report.aggregate.drained) << toString(policy);
        EXPECT_GT(run.report.aggregate.deferrals, 0u)
            << toString(policy);
        EXPECT_GT(run.fastForwarded, 0u) << toString(policy);
    }
}

// ---- AllocationFree ------------------------------------------------

TEST(AllocationFree, SteadyStateDecodeSteppingAllocatesNothing)
{
    // One long-decode request whose context already exceeds its AERP
    // budget (QP: ctx 1024, budget 1024), so the resident total is
    // pinned from the first decode step. Dummy events pace the queue
    // so both real and fast-forwarded boundaries are exercised.
    sim::EventQueue queue;
    queue.reserve(2048);
    std::vector<serving::Request> requests;
    serving::Request r;
    r.id = 0;
    r.task = sim::qasper();
    r.arrival = Time::seconds(0);
    requests.push_back(r);

    serving::DeviceConfig cfg;
    cfg.poolTokens = 4096;
    serving::DeviceEngine engine(cfg, queue, requests);
    for (int i = 1; i <= 1200; ++i)
        queue.schedule(Time::seconds(0.3 * i), [] {});
    engine.enqueue(0);

    // Warm-up: prefill, first decode steps, scratch population.
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(queue.runNext());
    const std::uint64_t decode_steps_before = engine.decodeSteps();
    const std::uint64_t allocs_before =
        g_heapAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 300; ++i)
        ASSERT_TRUE(queue.runNext());
    const std::uint64_t allocs_after =
        g_heapAllocs.load(std::memory_order_relaxed);
    EXPECT_GT(engine.decodeSteps(), decode_steps_before + 100);
    EXPECT_FALSE(requests[0].done()); // still mid-decode: steady state
    EXPECT_EQ(allocs_after - allocs_before, 0u)
        << "steady-state stepping must not touch the heap";
}

// ---- EventQueueWindow ----------------------------------------------
// The primitives the fast-forward horizon and the fault loop lean on:
// the empty-queue sentinel and clock alignment.

TEST(EventQueueWindow, NextEventTimeIsInfinityWhenEmptyOrDrained)
{
    sim::EventQueue q;
    EXPECT_TRUE(std::isinf(q.nextEventTime().sec()));
    q.schedule(Time::micros(3), [] {});
    EXPECT_DOUBLE_EQ(q.nextEventTime().us(), 3.0);
    q.runAll();
    // Draining restores the sentinel; it still compares greater than
    // any finite horizon (the fast-forward bound's min() relies on
    // that).
    EXPECT_TRUE(std::isinf(q.nextEventTime().sec()));
    EXPECT_GT(q.nextEventTime(), Time::seconds(1e30));
}

TEST(EventQueueWindow, AdvanceToMovesTheClockWithoutRunning)
{
    sim::EventQueue q;
    int ran = 0;
    q.schedule(Time::micros(5), [&] { ++ran; });
    q.advanceTo(Time::micros(4));
    EXPECT_EQ(ran, 0);
    EXPECT_DOUBLE_EQ(q.now().us(), 4.0);
    // The aligned clock accepts an injection at the new now (the
    // fault-retry pattern) and never re-runs anything early.
    q.schedule(Time::micros(4), [&] { ++ran; });
    q.runAll();
    EXPECT_EQ(ran, 2);
    // Backwards alignment is a no-op, not a rewind.
    q.advanceTo(Time::micros(1));
    EXPECT_DOUBLE_EQ(q.now().us(), 5.0);
}

TEST(EventQueueWindow, AdvanceToPastPendingEventPanics)
{
    sim::EventQueue q;
    q.schedule(Time::micros(2), [] {});
    EXPECT_DEATH(q.advanceTo(Time::micros(3)), "pending");
}

TEST(EventQueueWindow, InfiniteExternalEventHookUnboundsFastForward)
{
    // The no-arrival case of Hooks::nextExternalEvent: a hook
    // returning +inf promises nothing external can ever affect the
    // engine, so the decode fast-forward replays every remaining
    // boundary in one window — and the run must still match the
    // unhooked (conservative global bound) run bit-for-bit.
    auto run = [](bool with_hook, std::uint64_t *ffwd) {
        sim::EventQueue queue;
        std::vector<serving::Request> requests;
        serving::Request r;
        r.id = 0;
        r.task = sim::scaledForTiny(sim::lambada(), 96);
        r.arrival = Time::seconds(0);
        requests.push_back(r);
        serving::DeviceConfig cfg;
        cfg.poolTokens = 512;
        serving::DeviceEngine engine(cfg, queue, requests);
        if (with_hook) {
            serving::DeviceEngine::Hooks hooks;
            hooks.nextExternalEvent = [] {
                return Time::seconds(
                    std::numeric_limits<double>::infinity());
            };
            engine.setHooks(std::move(hooks));
        }
        engine.enqueue(0);
        queue.runAll();
        EXPECT_TRUE(requests[0].done());
        if (ffwd)
            *ffwd = engine.fastForwardedSteps();
        return std::tuple{engine.engineSteps(), engine.decodeSteps(),
                          queue.now().sec(),
                          requests[0].completed.sec()};
    };
    std::uint64_t ffwd = 0;
    const auto hooked = run(true, &ffwd);
    const auto plain = run(false, nullptr);
    EXPECT_EQ(hooked, plain);
    EXPECT_GT(ffwd, 0u);
}

} // namespace
