/**
 * @file
 * fleet_knee and fleet_sessions_paged: open-loop Poisson traffic on
 * bench_cluster's alternating eDRAM/SRAM fleet (two devices, SRAM at
 * half the eDRAM KV pool), served through cluster::ClusterEngine on
 * its serial engine (threads = 1) at a ladder of fixed rates.
 *
 *  - fleet_knee: the §7.1 mix (LA/TQ/QP/PG19), contbatch scheduling,
 *    join-shortest-kv dispatch, contiguous KV, no faults.
 *  - fleet_sessions_paged: the PG19-heavy mix in multi-turn sessions
 *    sharing a system prompt, the paged KV pool with prefix sharing,
 *    preemption of doomed decodes, and seeded device faults (crash,
 *    slowdown, pool shrink) with a retry budget no request exhausts.
 *
 * Every rung serves several independent traces, one ClusterEngine run
 * (a cell) each; the rung's simulated metrics pool its cells. Each
 * ladder is set up afresh (every cell's trace and fleet) and then
 * served cell by cell; the first ladder gives the simulated metrics,
 * and every later ladder must reproduce them.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "accel/capacity.hpp"
#include "bench_common.hpp"
#include "cluster/cluster_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace kelle;

struct FleetSpec
{
    bool paged = false;
    std::vector<double> ladder; ///< fixed arrival rates, req/s
    std::size_t headline = 0;   ///< rung near the knee
    std::size_t cellsPerRung = 0; ///< independent traces per rung
    std::size_t requests = 0;   ///< trace length of every cell

    std::size_t cells() const { return ladder.size() * cellsPerRung; }
};

FleetSpec
fleetSpec(const Options &opts)
{
    FleetSpec f;
    f.paged = opts.workload == "fleet_sessions_paged";
    // From well below the knee to well above it; the headline rung
    // sits just below the knee.
    if (f.paged)
        f.ladder = {0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.010,
                    0.012, 0.016};
    else
        f.ladder = {0.008, 0.010, 0.012, 0.014, 0.016, 0.018, 0.020,
                    0.024, 0.030};
    f.headline = 4;
    // Many short cells (250 requests, 5-60 ms each) rather than one
    // long trace per rung, so that a seed's luck in task mix and
    // faults averages out over the ladder.
    f.cellsPerRung = opts.check ? 2 : 8;
    f.requests = opts.check ? 150 : 250;
    return f;
}

/** SLO-capacity threshold: share of sent requests meeting both SLOs. */
constexpr double kSloShare = 0.9;

/**
 * Cell `j` of rung `k`. Every cell draws its own traffic and faults,
 * so a seed's luck in task mix averages out over the ladder.
 */
cluster::ClusterConfig
cellConfig(const FleetSpec &f, std::size_t k, std::size_t j,
           std::uint64_t seed)
{
    const std::uint64_t cell = k * f.cellsPerRung + j;
    cluster::ClusterConfig cfg;
    const model::ModelConfig &m = cfg.engine.model;
    const accel::SystemConfig edram = accel::kelleEdramSystem(2048);
    accel::CapacitySpec spec;
    spec.dramCapacity = edram.tech.dram.capacity();
    spec.weightBits = edram.tech.weightBits;
    spec.kvBits = edram.kv.kvBits;
    const std::size_t pool = accel::maxSupportedTokens(m, spec).maxTokens;
    cfg.devices = cluster::heteroEdramSramFleet(2, 2048, pool, pool / 2, 16);
    cfg.dispatch = cluster::DispatchKind::JoinShortestKv;
    cfg.threads = 1;
    cfg.engine.policy = serving::SchedulePolicy::ContinuousBatching;
    cfg.engine.traffic.process = serving::ArrivalProcess::Poisson;
    cfg.engine.traffic.ratePerSec = f.ladder[k];
    cfg.engine.traffic.numRequests = f.requests;
    cfg.engine.traffic.seed = mixSeed(seed, 2 * cell + 1);
    if (f.paged) {
        cfg.engine.traffic.mix = serving::pg19HeavyMix();
        cfg.engine.traffic.sessions = 8;
        cfg.engine.traffic.sessionPrefixFrac = 0.4;
        cfg.engine.paged.enabled = true;
        cfg.engine.preempt.enabled = true;
        cfg.faults.enabled = true;
        // Faults are rare next to a request's service time (a PG19
        // decode runs for ~10^3 simulated seconds), and the retry
        // budget is far above what any request needs.
        cfg.faults.mtbfSec = 20000.0;
        cfg.faults.mttrSec = 300.0;
        cfg.faults.maxRetries = 1000;
        cfg.faults.seed = mixSeed(seed, 2 * cell + 2);
    }
    return cfg;
}

bool
served(const serving::Request &r)
{
    return r.state == serving::RequestState::Completed;
}

bool
metBoth(const serving::Request &r)
{
    return served(r) && serving::ServingMetrics::metTtft(r) &&
           serving::ServingMetrics::metTpot(r);
}

/** Seconds per decode token of one completed request. */
double
tpotOf(const serving::Request &r)
{
    return (r.completed - r.firstToken).sec() /
           static_cast<double>(r.task.decLen);
}

/**
 * Pooled first-ladder outcome of one rung. Backlog growth compares the
 * median queue wait of the last quarter of each cell's arrivals with
 * that of the middle half (pooled over the cells); it grows when the
 * former exceeds twice the latter plus one second.
 */
struct Rung
{
    std::size_t sent = 0;
    std::size_t met = 0; ///< completed within both deadlines
    std::vector<double> midWait, tailWait;

    void
    add(const std::vector<serving::Request> &reqs)
    {
        sent += reqs.size();
        met += static_cast<std::size_t>(
            std::count_if(reqs.begin(), reqs.end(), metBoth));
        const std::size_t n = reqs.size();
        for (std::size_t i = n / 4; i < n; ++i) {
            const serving::Request &r = reqs[i];
            const double wait = served(r) ? (r.admitted - r.arrival).sec()
                                          : 1e30; // never admitted
            (i < 3 * n / 4 ? midWait : tailWait).push_back(wait);
        }
    }
    double
    sloShare() const
    {
        return static_cast<double>(met) / static_cast<double>(sent);
    }
    bool
    steady() const
    {
        return median(tailWait) <= 2.0 * median(midWait) + 1.0;
    }
};

/** Pooled first-ladder figures of the headline rung's cells. */
struct Headline
{
    std::vector<serving::Request> completed;
    double makespanS = 0.0;
    double energyJ = 0.0;
    double refreshJ = 0.0;
    double decodeSteps = 0.0;
    double poolPeakUtil = 0.0;
    double peakLogicalTokens = 0.0;
    double imbalanceCv = 0.0;

    void
    add(const cluster::ClusterEngine &engine,
        const cluster::ClusterReport &rep, double cells)
    {
        for (const serving::Request &r : engine.requests())
            if (served(r))
                completed.push_back(r);
        const serving::ServingReport &agg = rep.aggregate;
        makespanS += agg.summary.makespan.sec();
        energyJ += agg.summary.energy.total().j();
        refreshJ += rep.refreshEnergyJ;
        decodeSteps += static_cast<double>(agg.decodeSteps);
        // Means over the cells for the per-run peaks and ratios.
        poolPeakUtil += agg.poolPeakBytes / agg.poolCapacityBytes / cells;
        peakLogicalTokens +=
            static_cast<double>(agg.peakLogicalTokens) / cells;
        imbalanceCv += rep.loadImbalanceCv / cells;
    }
};

/**
 * Event counters summed over every cell of the first ladder: on the
 * paged workload, preemption and fault retries happen mostly on the
 * rungs above the headline.
 */
struct Counters
{
    double requests = 0.0;
    double preempted = 0.0; ///< requests preempted at least once
    double retried = 0.0;   ///< requests fault-retried at least once
    double preemptions = 0.0;
    double deferrals = 0.0;
    double prefixHits = 0.0;
    double cowCopies = 0.0;
    double tailReclaims = 0.0;
    double devicesMakespanS = 0.0;
    double downtimeS = 0.0;
    double retries = 0.0;
    double lostTokens = 0.0;

    void
    add(const cluster::ClusterEngine &engine,
        const cluster::ClusterReport &rep)
    {
        for (const serving::Request &r : engine.requests()) {
            requests += 1.0;
            preempted += r.preemptions > 0 ? 1.0 : 0.0;
            retried += r.faultRetries > 0 ? 1.0 : 0.0;
        }
        const serving::ServingReport &agg = rep.aggregate;
        preemptions += static_cast<double>(agg.summary.preemptions);
        deferrals += static_cast<double>(agg.deferrals);
        prefixHits += static_cast<double>(agg.paged.prefixHitTokens);
        cowCopies += static_cast<double>(agg.paged.cowCopies);
        tailReclaims += static_cast<double>(agg.paged.tailReclaims);
        devicesMakespanS += agg.summary.makespan.sec() *
                            static_cast<double>(rep.devices.size());
        downtimeS += rep.faults.totalDowntimeSec;
        retries += static_cast<double>(rep.faults.retries);
        lostTokens += static_cast<double>(rep.faults.lostTokens);
    }
};

bool
sameReport(const cluster::ClusterReport &a, const cluster::ClusterReport &b)
{
    const serving::ServingSummary &x = a.aggregate.summary;
    const serving::ServingSummary &y = b.aggregate.summary;
    return x.completed == y.completed && x.rejected == y.rejected &&
           x.makespan.sec() == y.makespan.sec() && x.ttftP99 == y.ttftP99 &&
           x.tpotP50 == y.tpotP50 &&
           x.energy.total().j() == y.energy.total().j() &&
           a.aggregate.engineSteps == b.aggregate.engineSteps;
}

/** The fleet checks on one cell of the first ladder. */
void
checkCell(const cluster::ClusterConfig &cfg,
          const std::vector<serving::Request> &trace,
          const cluster::ClusterEngine &engine,
          const cluster::ClusterReport &report,
          std::vector<std::string> *failures)
{
    const std::vector<serving::Request> &reqs = engine.requests();
    const serving::ServingSummary &sum = report.aggregate.summary;
    const std::string at =
        " at " + fmt(cfg.engine.traffic.ratePerSec) + " req/s";
    auto fail = [&](const std::string &what) {
        failures->push_back(what + at);
    };

    // Terminal states and the completed + rejected + failed balance.
    std::size_t completed = 0, rejected = 0, fault_failed = 0;
    for (const serving::Request &r : reqs) {
        if (r.faultFailed)
            ++fault_failed;
        else if (r.state == serving::RequestState::Completed)
            ++completed;
        else if (r.state == serving::RequestState::Rejected)
            ++rejected;
    }
    if (reqs.size() != trace.size() ||
        completed + rejected + fault_failed != trace.size() ||
        completed != sum.completed ||
        rejected + fault_failed != sum.rejected)
        fail("terminal-state balance");

    // The engine served the trace the benchmark generated; every
    // completed request emitted exactly its decode length.
    std::uint64_t emitted = 0, expected = 0;
    bool same_trace = reqs.size() == trace.size();
    for (std::size_t i = 0; same_trace && i < reqs.size(); ++i) {
        const serving::Request &r = reqs[i];
        const serving::Request &g = trace[i];
        same_trace = r.id == g.id && r.arrival.sec() == g.arrival.sec() &&
                     r.task.ctxLen == g.task.ctxLen &&
                     r.task.decLen == g.task.decLen;
        if (served(r)) {
            emitted += r.generated;
            expected += g.task.decLen;
        }
    }
    if (!same_trace)
        fail("engine trace differs from generateTrace");
    if (emitted != expected)
        fail("decode tokens " + std::to_string(emitted) + " != sum decLen " +
             std::to_string(expected));

    // No first token before arrival + isolated prefill latency on the
    // device that served the request (any fleet device when it moved).
    std::map<std::uint64_t, std::size_t> device_of;
    for (std::size_t d = 0; d < engine.deviceCount(); ++d)
        for (const serving::Request &r :
             engine.device(d).metrics().completedRequests())
            device_of[r.id] = d;
    std::size_t early = 0;
    for (const serving::Request &r : reqs) {
        if (!served(r))
            continue;
        const bool moved = r.preemptions > 0 || r.faultRetries > 0;
        double floor_s = 1e30;
        for (std::size_t d = 0; d < cfg.devices.size(); ++d) {
            if (!moved && device_of[r.id] != d)
                continue;
            const accel::SystemConfig &sys = cfg.devices[d].system;
            const std::size_t skip =
                cfg.engine.paged.enabled && r.prefixKey != 0
                    ? std::min(r.prefixLen, r.task.ctxLen - 1)
                    : 0;
            const accel::StepReport step =
                skip > 0 ? accel::simulatePrefillChunk(
                               sys, cfg.engine.model, skip,
                               r.task.ctxLen - skip)
                         : accel::simulatePrefillStep(
                               sys, cfg.engine.model, r.task.ctxLen);
            floor_s = std::min(floor_s, step.latency.sec());
        }
        // Slack of a few ulps of the absolute timestamps the engine
        // adds the latency to.
        const double slack = 1e-13 * r.firstToken.sec();
        if (r.firstToken.sec() + slack < r.arrival.sec() + floor_s)
            ++early;
    }
    if (early > 0)
        fail(std::to_string(early) +
             " first tokens earlier than an isolated prefill");

    // Nearest-rank percentiles recomputed from the request table.
    std::vector<double> ttft, tpot;
    for (const serving::Request &r : reqs) {
        if (!served(r))
            continue;
        ttft.push_back((r.firstToken - r.arrival).sec());
        tpot.push_back(tpotOf(r));
    }
    if (nearestRank(ttft, 50.0) != sum.ttftP50 ||
        nearestRank(ttft, 99.0) != sum.ttftP99 ||
        nearestRank(tpot, 50.0) != sum.tpotP50)
        fail("TTFT/TPOT percentiles differ from ServingSummary");
}

/** One cell's trace with the fast path on and off. */
bool
fastPathMatches(cluster::ClusterConfig cfg)
{
    cfg.engine.fastSim = true;
    cluster::ClusterEngine fast(cfg);
    fast.run();
    cfg.engine.fastSim = false;
    cluster::ClusterEngine slow(cfg);
    slow.run();
    const auto &a = fast.requests();
    const auto &b = slow.requests();
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].state != b[i].state ||
            a[i].admitted.sec() != b[i].admitted.sec() ||
            a[i].firstToken.sec() != b[i].firstToken.sec() ||
            a[i].completed.sec() != b[i].completed.sec())
            return false;
    }
    return true;
}

/**
 * A fixed input of fleet_sessions_paged's configuration, the same for
 * every --seed, on which fastSim on and off disagree today: with
 * faults and preemption both on, request 66 (preempted once and
 * fault-retried once) completes 1.24 s later with fastSim off. The
 * comparison runs in every round as one operation, counted as failed
 * while the two disagree.
 */
cluster::ClusterConfig
knownDivergenceConfig(const FleetSpec &f)
{
    cluster::ClusterConfig cfg = cellConfig(f, f.headline, 0, 3);
    cfg.engine.traffic.numRequests = 100;
    cfg.engine.traffic.seed = mixSeed(3, 1);
    cfg.faults.seed = mixSeed(3, 2);
    return cfg;
}

/**
 * Probe the uncached batched-decode timing model: batches of 1..16
 * members assembled from the headline rung's completed requests at
 * mid-decode, costed on every fleet device's system.
 */
double
probeDecodeEvalsPerSec(const cluster::ClusterConfig &cfg,
                       const std::vector<serving::Request> &reqs,
                       double seconds)
{
    std::vector<std::size_t> resident;
    for (const serving::Request &r : reqs) {
        if (!served(r))
            continue;
        const std::size_t n = r.task.ctxLen + r.task.decLen / 2 + 1;
        resident.push_back(r.budgetGranted ? std::min(n, r.budgetGranted)
                                           : n);
    }
    if (resident.empty())
        return 0.0;
    std::vector<std::vector<std::size_t>> batches;
    for (std::size_t b = 1; b <= 16; ++b) {
        std::vector<std::size_t> batch;
        for (std::size_t j = 0; j < b; ++j)
            batch.push_back(resident[(b * 7 + j) % resident.size()]);
        batches.push_back(std::move(batch));
    }
    double evals = 0.0;
    double sink = 0.0;
    const auto t0 = Clock::now();
    do {
        for (const auto &dev : cfg.devices)
            for (const auto &batch : batches)
                sink += accel::simulateBatchedDecodeStep(
                            dev.system, cfg.engine.model, batch)
                            .latency.sec();
        evals += static_cast<double>(cfg.devices.size() * batches.size());
    } while (secondsSince(t0) < seconds);
    // Every costed step takes time; using the sum keeps the calls live.
    return sink > 0.0 ? evals / secondsSince(t0) : 0.0;
}

} // namespace

void
runFleet(const Options &opts, Result &res)
{
    const FleetSpec f = fleetSpec(opts);
    const std::size_t rungs = f.ladder.size();
    const std::size_t cells = f.cells();
    SpanRecorder spans(opts.trace);

    std::vector<cluster::ClusterConfig> cfgs; // cell c = k * cellsPerRung + j
    for (std::size_t k = 0; k < rungs; ++k)
        for (std::size_t j = 0; j < f.cellsPerRung; ++j)
            cfgs.push_back(cellConfig(f, k, j, opts.seed));
    const auto rung_of = [&](std::size_t c) { return c / f.cellsPerRung; };

    // ---- Set-up of a ladder: every cell's trace and fleet.
    std::vector<std::vector<serving::Request>> traces;
    std::vector<std::unique_ptr<cluster::ClusterEngine>> engines;
    const auto set_up = [&] {
        traces.clear();
        engines.clear();
        const auto s0 = Clock::now();
        for (std::size_t c = 0; c < cells; ++c) {
            {
                ScopedSpan span(spans, "serving.generateTrace");
                traces.push_back(
                    serving::generateTrace(cfgs[c].engine.traffic));
            }
            engines.push_back(
                std::make_unique<cluster::ClusterEngine>(cfgs[c]));
        }
        return secondsSince(s0);
    };

    // ---- Whole ladders, each set up afresh, then one
    // ClusterEngine::run per cell. Every ladder computes the same
    // thing, so each cell's host time is taken as its median over the
    // ladders. (A fastest repeat, as on the twin, is the extreme of a
    // wide distribution here: a cell's median run took about 1.4 times
    // its fastest, and the fastest moved with the number of ladders.)
    // The first ladder is checked and pooled per rung; later ones must
    // reproduce it.
    std::vector<cluster::ClusterReport> first(cells);
    std::vector<Rung> rung(rungs);
    Headline head;
    Counters counters;
    std::vector<std::string> failures;
    std::vector<std::vector<double>> run_ms(cells); // per ladder
    std::uint64_t ladder_completed = 0;
    std::uint64_t steps = 0, fast_forwarded = 0;
    accel::StepCostCache::Stats cache;
    bool repeatable = true;
    const cluster::ClusterConfig diverging = knownDivergenceConfig(f);
    std::uint64_t diverged = 0;
    constexpr std::size_t kSetUps = 8;
    std::vector<double> setup_s;
    std::size_t rounds = 0;
    const auto timed0 = Clock::now();
    do {
        set_up();
        for (std::size_t c = 0; c < cells; ++c) {
            spans.setRun(static_cast<std::uint32_t>(rounds * cells + c));
            cluster::ClusterEngine &engine = *engines[c];
            const auto t0 = Clock::now();
            const std::int32_t id = spans.begin("cluster.run");
            cluster::ClusterReport rep = engine.run();
            spans.end(id);
            run_ms[c].push_back(secondsSince(t0) * 1e3);
            const std::size_t done = rep.aggregate.summary.completed;
            res.attempted += f.requests;
            res.failed += f.requests - done;
            if (rounds > 0) {
                repeatable = repeatable && sameReport(rep, first[c]);
            } else {
                // First ladder: untimed checks and pooled metrics.
                ladder_completed += done;
                for (std::size_t d = 0; d < engine.deviceCount(); ++d) {
                    steps += engine.device(d).engineSteps();
                    fast_forwarded += engine.device(d).fastForwardedSteps();
                    cache += engine.device(d).costCacheStats();
                }
                checkCell(cfgs[c], traces[c], engine, rep, &failures);
                rung[rung_of(c)].add(engine.requests());
                counters.add(engine, rep);
                if (rung_of(c) == f.headline)
                    head.add(engine, rep,
                             static_cast<double>(f.cellsPerRung));
                first[c] = std::move(rep);
            }
            engines[c].reset();
        }
        if (f.paged) {
            // Untimed: the measured configuration on the fixed input.
            res.attempted += 1;
            if (!fastPathMatches(diverging)) {
                res.failed += 1;
                ++diverged;
            }
        }
        // A ladder's set-up takes about 2 ms, too short to time once,
        // so every ladder is followed by kSetUps timed set-ups and
        // setup_s is the median of all of them: samples spread over
        // the whole run instead of one burst at its end or start.
        for (std::size_t i = 0; i < kSetUps; ++i)
            setup_s.push_back(set_up());
        ++rounds;
    } while (!opts.check && secondsSince(timed0) < opts.seconds);
    engines.clear();

    // ---- Simulated metrics from the first ladder.
    std::size_t passing = 0; // rungs meeting the SLO, from the bottom up
    while (passing < rungs && rung[passing].sloShare() >= kSloShare &&
           rung[passing].steady())
        ++passing;
    const double capacity = passing > 0 ? f.ladder[passing - 1] : 0.0;

    std::vector<double> ttft, tpot, wait;
    double decode_tokens = 0.0, good_tokens = 0.0;
    for (const serving::Request &r : head.completed) {
        ttft.push_back((r.firstToken - r.arrival).sec());
        tpot.push_back(tpotOf(r));
        wait.push_back((r.admitted - r.arrival).sec());
        decode_tokens += static_cast<double>(r.generated);
        if (metBoth(r))
            good_tokens += static_cast<double>(r.task.decLen);
    }
    const double goodput = good_tokens / head.makespanS;
    const double energy_per_token = head.energyJ / decode_tokens;
    std::vector<double> cell_ms; // each cell's median run
    double ladder_s = 0.0;
    for (const std::vector<double> &ms : run_ms) {
        cell_ms.push_back(median(ms));
        ladder_s += cell_ms.back() * 1e-3;
    }
    const double sim_rps = static_cast<double>(ladder_completed) / ladder_s;

    res.endToEnd = {{"setup_s", median(setup_s), "s"},
                    {"peak_rss_mb", peakRssMb(), "MiB"},
                    {"host_ops_per_s", sim_rps, "1/s"},
                    {"host_op_ms_p50", median(cell_ms), "ms"}};
    res.report = {
        {"setup_s", median(setup_s), "s (host, median of " +
                                         std::to_string(setup_s.size()) +
                                         " set-ups)"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"sim_requests_per_s", sim_rps,
         "req/s (host, median of " + std::to_string(rounds) +
             " ladders per cell)"},
        {"cluster_run_ms_p50", median(cell_ms),
         "ms (host, median over " + std::to_string(cells) + " cells of " +
             std::to_string(f.requests) + " requests)"},
        {"ttft_p50_s", nearestRank(ttft, 50.0), "s (sim)"},
        {"ttft_p99_s", nearestRank(ttft, 99.0), "s (sim)"},
        {"tpot_p50_s", nearestRank(tpot, 50.0), "s (sim)"},
        {"tpot_p99_s", nearestRank(tpot, 99.0), "s (sim)"},
        {"goodput_tok_per_s", goodput, "tok/s (sim)"},
        {"slo_capacity_rps", capacity, "req/s (sim)"},
        {"energy_j_per_token", energy_per_token, "J (sim)"}};
    for (std::size_t k = 0; k < rungs; ++k)
        res.report.push_back(
            {"slo_share@" + fmt(f.ladder[k]) +
                 (k == f.headline ? " (headline)" : ""),
             rung[k].sloShare(),
             rung[k].steady() ? "of sent" : "of sent, backlog growing"});
    if (f.paged) {
        const std::string of_ladder =
            "of the first ladder's " + fmt(counters.requests) + " requests";
        res.report.push_back({"preempted_request_share",
                              counters.preempted / counters.requests,
                              of_ladder});
        res.report.push_back({"fault_retried_request_share",
                              counters.retried / counters.requests,
                              of_ladder});
        res.report.push_back({"tail_reclaims", counters.tailReclaims,
                              "over the first ladder"});
        res.report.push_back(
            {"fastsim_divergent_rounds", static_cast<double>(diverged),
             "of " + std::to_string(rounds) +
                 " fixed-input fastSim on/off comparisons (counted as "
                 "failed operations)"});
    }

    // ---- Correctness checks (untimed).
    res.check("every timed ladder reproduces the first",
              repeatable, std::to_string(rounds) + " ladders");
    res.check("request accounting, decode tokens, prefill floor and "
              "TTFT/TPOT percentiles on every cell",
              failures.empty(),
              failures.empty() ? std::to_string(cells) + " cells"
                               : failures.front());
    if (!opts.check)
        res.check("TTFT p99 leaves at least ten samples beyond it",
                  ttft.size() >= 1000,
                  std::to_string(ttft.size()) + " completed requests");
    // With faults and preemption both on, fastSim on and off diverge
    // on some seeds, so this seeded check runs the paged headline cell
    // with preemption off; the fixed-input comparison above runs it on.
    cluster::ClusterConfig cross = cfgs[f.headline * f.cellsPerRung];
    cross.engine.preempt.enabled = false;
    res.check(std::string("a headline cell runs identically with fastSim "
                          "off") +
                  (f.paged ? " (preemption off)" : ""),
              fastPathMatches(cross),
              std::to_string(f.requests) + " requests");
    if (!opts.check)
        res.check("slo_capacity_rps lies strictly inside the ladder",
                  passing > 0 && passing < rungs,
                  fmt(capacity) + " req/s in [" + fmt(f.ladder.front()) +
                      ", " + fmt(f.ladder.back()) + "]");
    if (f.paged) {
        std::uint64_t permanent = 0;
        for (const cluster::ClusterReport &r : first)
            permanent += r.faults.permanentFailures;
        res.check("prefix-hit tokens above 0 and no permanent failures",
                  counters.prefixHits > 0 && permanent == 0,
                  fmt(counters.prefixHits) + " hit tokens, " +
                      std::to_string(permanent) + " permanent failures");
    }

    if (!opts.trace)
        return;
    // ---- Per-layer metrics of the traced run.
    const double probe_s = opts.check ? 0.05 : 0.3;
    res.layer["accel.decode_evals_per_s"] = probeDecodeEvalsPerSec(
        cfgs[f.headline * f.cellsPerRung], head.completed, probe_s);
    res.layer["accel.cost_cache_hit_rate"] =
        cache.lookups() ? static_cast<double>(cache.hits) /
                              static_cast<double>(cache.lookups())
                        : 0.0;
    res.layer["accel.refresh_j_per_token"] = head.refreshJ / decode_tokens;
    res.layer["serving.engine_steps_per_s"] =
        static_cast<double>(steps) / ladder_s;
    res.layer["serving.fast_forward_share"] =
        static_cast<double>(fast_forwarded) / static_cast<double>(steps);
    res.layer["serving.trace_gen_ms"] =
        spans.totalSeconds("serving.generateTrace") * 1e3 /
        static_cast<double>(spans.count("serving.generateTrace"));
    res.layer["serving.queue_wait_p99_s"] = nearestRank(wait, 99.0);
    res.layer["serving.mean_decode_batch"] = decode_tokens / head.decodeSteps;
    res.layer["serving.preemptions"] = counters.preemptions;
    res.layer["serving.deferrals"] = counters.deferrals;
    res.layer["kvcache.pool_peak_util"] = head.poolPeakUtil;
    res.layer["kvcache.peak_logical_tokens"] = head.peakLogicalTokens;
    res.layer["kvcache.prefix_hit_tokens"] = counters.prefixHits;
    res.layer["kvcache.cow_copies"] = counters.cowCopies;
    res.layer["kvcache.tail_reclaims"] = counters.tailReclaims;
    res.layer["cluster.imbalance_cv"] = head.imbalanceCv;
    res.layer["faults.availability"] =
        1.0 - counters.downtimeS / counters.devicesMakespanS;
    res.layer["faults.retries"] = counters.retries;
    res.layer["faults.lost_tokens"] = counters.lostTokens;
    res.layer["ttft_p50_s"] = nearestRank(ttft, 50.0);
    res.layer["ttft_p99_s"] = nearestRank(ttft, 99.0);
    res.layer["tpot_p50_s"] = nearestRank(tpot, 50.0);
    res.layer["tpot_p99_s"] = nearestRank(tpot, 99.0);
    res.layer["goodput_tok_per_s"] = goodput;
    res.layer["slo_capacity_rps"] = capacity;
    res.layer["energy_j_per_token"] = energy_per_token;
    if (!opts.spansOut.empty() && !spans.writeJson(opts.spansOut))
        res.check("spans written to " + opts.spansOut, false);
}

} // namespace perfbench
