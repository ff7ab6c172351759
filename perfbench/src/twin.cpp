/**
 * @file
 * twin_aerp_2drp: TinyLM teacher-forced over seeded WikiText-2-shaped
 * streams, with its KV in an AERP ManagedKvCache (recomputation on)
 * whose reads pass through an edram::RefreshFaultModel built on the
 * paper's 2DRP interval set relaxed 4x (bench_table4_2drp's "4x
 * relaxed" point, so flips land in all four refresh groups).
 *
 * Set-up is the plain full-KV path: weight synthesis, stream
 * generation and the full-KV baseline pass of every stream
 * (sim::AccuracyBench). The timed phase repeats whole rounds of one
 * AERP+2DRP pass per stream with the same fault seed, so every round
 * computes the same thing and the first round's outputs give
 * ppl_ratio and agreement.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "edram/fault_model.hpp"
#include "model/evaluate.hpp"
#include "model/sampler.hpp"
#include "sim/experiments.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace kelle;

struct TwinShape
{
    std::size_t streams = 4;  ///< seeded substrates
    std::size_t seqLen = 256; ///< tokens per stream
    std::size_t setups = 3;   ///< set-up repetitions (median reported)
};

/** bench_table4_2drp's "4x relaxed" operating point. */
constexpr double kRefreshRelax = 4.0;

/**
 * kv::FaultInjector wrapper: counts the bits each `corrupt` call
 * flips, per 2DRP refresh group, by XOR of the words around the call,
 * and in traced runs records an `edram.corrupt` span around the inner
 * call (nested inside the `decodeStep` span that caused it).
 */
class ObservedInjector final : public kv::FaultInjector
{
  public:
    ObservedInjector(kv::FaultInjector &inner, SpanRecorder *spans)
        : inner_(inner), spans_(spans)
    {}

    void
    corrupt(std::span<std::uint16_t> words,
            const kv::FaultContext &ctx) override
    {
        before_.assign(words.begin(), words.end());
        const std::int32_t id =
            spans_ != nullptr ? spans_->begin("edram.corrupt") : -1;
        inner_.corrupt(words, ctx);
        if (spans_ != nullptr)
            spans_->end(id);
        const std::size_t msb = ctx.highScoreToken ? 0 : 2; // HstMsb/LstMsb
        for (std::size_t i = 0; i < words.size(); ++i) {
            const unsigned x = static_cast<unsigned>(before_[i] ^ words[i]);
            flips[msb] += static_cast<std::uint64_t>(std::popcount(x >> 8));
            flips[msb + 1] +=
                static_cast<std::uint64_t>(std::popcount(x & 0xffu));
        }
        bits[msb] += 8 * words.size();
        bits[msb + 1] += 8 * words.size();
    }

    /** Indexed by edram::RefreshGroup. */
    std::array<std::uint64_t, edram::kNumRefreshGroups> flips = {};
    std::array<std::uint64_t, edram::kNumRefreshGroups> bits = {};

  private:
    kv::FaultInjector &inner_;
    SpanRecorder *spans_;
    std::vector<std::uint16_t> before_;
};

/** What one teacher-forced pass over a stream produced. */
struct Pass
{
    model::StreamEval eval;
    /** Host time of each model call: the prefill, then every decodeStep. */
    std::vector<double> opMs;
    std::size_t prefillTokens = 0;
    std::size_t decodeTokens = 0;
    double recomputes = 0.0;
    double evictions = 0.0;
    double xStored = 0.0;
    double appends = 0.0;
    /** Largest (layer, head) occupancy seen after any step. */
    std::size_t maxEntries = 0;
};

std::size_t
maxOccupancy(const kv::ManagedKvCache &cache, const model::ModelConfig &mc)
{
    std::size_t most = 0;
    for (std::size_t l = 0; l < mc.layers; ++l)
        for (std::size_t h = 0; h < mc.nKvHeads; ++h)
            most = std::max(most, cache.numEntries(l, h));
    return most;
}

/**
 * Teacher-forced pass over one substrate's stream, scored exactly as
 * model::runStream scores it, with every model call timed. Occupancy
 * is scanned after each step only when `track_occupancy` is set.
 */
Pass
runPass(sim::AccuracyBench &sub, const kv::KvCacheConfig &cfg,
        kv::FaultInjector *injector, SpanRecorder &spans,
        bool track_occupancy)
{
    model::TinyTransformer &lm = sub.model();
    const model::ModelConfig &mc = lm.config();
    kv::ManagedKvCache cache(cfg, mc.layers, mc.nKvHeads, mc.headDim(),
                             mc.dModel);
    if (injector != nullptr)
        cache.setFaultInjector(injector);
    lm.attach(cache);

    const std::vector<int> &tokens = sub.stream().tokens;
    const std::size_t prompt = sub.stream().promptLen;
    Pass p;
    auto score = [&](std::span<const float> logits, int target) {
        p.eval.crossEntropy.push_back(-tensor::logSoftmaxAt(
            logits, static_cast<std::size_t>(target)));
        p.eval.argmax.push_back(model::argmaxToken(logits));
        if (track_occupancy)
            p.maxEntries = std::max(p.maxEntries, maxOccupancy(cache, mc));
    };

    std::vector<float> logits;
    {
        const auto t0 = Clock::now();
        ScopedSpan span(spans, "model.prefill");
        logits = lm.prefill(std::span<const int>(tokens.data(), prompt));
        p.opMs.push_back(secondsSince(t0) * 1e3);
    }
    score(logits, tokens[prompt]);
    for (std::size_t t = prompt; t + 1 < tokens.size(); ++t) {
        const auto t0 = Clock::now();
        const std::int32_t id = spans.begin("model.decodeStep");
        logits = lm.decodeStep(tokens[t], static_cast<std::int64_t>(t));
        spans.end(id);
        p.opMs.push_back(secondsSince(t0) * 1e3);
        score(logits, tokens[t + 1]);
    }
    p.prefillTokens = prompt;
    p.decodeTokens = tokens.size() - 1 - prompt;
    const stats::Group &st = cache.statistics();
    p.recomputes = st.get("recomputes");
    p.evictions = st.get("evictions");
    p.xStored = st.get("x_stored_tokens");
    p.appends = st.get("appends");
    return p;
}

bool
sameEval(const model::StreamEval &a, const model::StreamEval &b)
{
    return a.crossEntropy == b.crossEntropy && a.argmax == b.argmax;
}

/** The TinyLM weight shapes (rows x cols) that decode multiplies by. */
std::vector<std::pair<std::size_t, std::size_t>>
weightShapes(const model::ModelConfig &mc)
{
    return {{mc.dModel, mc.dModel}, {mc.dKv(), mc.dModel},
            {mc.dFfn, mc.dModel},   {mc.dModel, mc.dFfn},
            {mc.vocab, mc.dModel}};
}

/** tensor::matvec against a double-precision loop, per shape. */
void
checkMatvec(const model::ModelConfig &mc, std::uint64_t seed, Result &res)
{
    Rng rng(seed);
    double worst = 0.0; // error over its float-accumulation bound
    for (const auto &[rows, cols] : weightShapes(mc)) {
        tensor::Matrix a(rows, cols);
        a.fillGaussian(rng, 1.0f);
        std::vector<float> x(cols);
        for (float &v : x)
            v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
        std::vector<float> y(rows);
        tensor::matvec(a, x, y);
        for (std::size_t r = 0; r < rows; ++r) {
            double exact = 0.0;
            double magnitude = 0.0;
            for (std::size_t c = 0; c < cols; ++c) {
                const double term =
                    static_cast<double>(a.at(r, c)) * x[c];
                exact += term;
                magnitude += std::fabs(term);
            }
            // Worst-case float summation error: cols * 2^-24 * sum|term|.
            const double bound =
                static_cast<double>(cols) * 0x1p-24 * magnitude + 1e-30;
            worst = std::max(worst, std::fabs(y[r] - exact) / bound);
        }
    }
    res.check("tensor::matvec matches a double-precision loop",
              worst <= 1.0,
              "worst error " + fmt(worst) + " of the float bound");
}

/** Seconds-long probe of tensor::matvec at the TinyLM shapes. */
double
probeMatvecGflops(const model::ModelConfig &mc, std::uint64_t seed,
                  double seconds)
{
    Rng rng(seed);
    std::vector<tensor::Matrix> mats;
    std::vector<std::vector<float>> xs, ys;
    double flops_per_round = 0.0;
    for (const auto &[rows, cols] : weightShapes(mc)) {
        mats.emplace_back(rows, cols);
        mats.back().fillGaussian(rng, 1.0f);
        xs.emplace_back(cols, 0.5f);
        ys.emplace_back(rows, 0.0f);
        flops_per_round += 2.0 * static_cast<double>(rows * cols);
    }
    double flops = 0.0;
    const auto t0 = Clock::now();
    do {
        for (std::size_t i = 0; i < mats.size(); ++i)
            tensor::matvec(mats[i], xs[i], ys[i]);
        flops += flops_per_round;
    } while (secondsSince(t0) < seconds);
    return flops / secondsSince(t0) * 1e-9;
}

/**
 * Probe ManagedKvCache::gather on a cache loaded to N' with the
 * workload's config and injector: the prompt fills the budget, a few
 * decode steps push it into eviction, then every (layer, head) is
 * gathered repeatedly. Returns microseconds per gathered entry.
 */
double
probeGatherUsPerEntry(sim::AccuracyBench &sub, const kv::KvCacheConfig &cfg,
                      const edram::TwoDRefreshPolicy &refresh,
                      std::uint64_t seed, double seconds)
{
    model::TinyTransformer &lm = sub.model();
    const model::ModelConfig &mc = lm.config();
    edram::RefreshFaultModel faults(refresh, seed);
    kv::ManagedKvCache cache(cfg, mc.layers, mc.nKvHeads, mc.headDim(),
                             mc.dModel);
    cache.setFaultInjector(&faults);
    lm.attach(cache);
    const std::vector<int> &tokens = sub.stream().tokens;
    const std::size_t prompt = sub.stream().promptLen;
    lm.prefill(std::span<const int>(tokens.data(), prompt));
    const std::size_t extra = std::min<std::size_t>(8, tokens.size() - prompt);
    for (std::size_t t = prompt; t < prompt + extra; ++t)
        lm.decodeStep(tokens[t], static_cast<std::int64_t>(t));

    double entries = 0.0;
    const auto t0 = Clock::now();
    do {
        for (std::size_t l = 0; l < mc.layers; ++l)
            for (std::size_t h = 0; h < mc.nKvHeads; ++h)
                entries +=
                    static_cast<double>(cache.gather(l, h).k.rows());
    } while (secondsSince(t0) < seconds);
    return secondsSince(t0) * 1e6 / std::max(entries, 1.0);
}

} // namespace

void
runTwin(const Options &opts, Result &res)
{
    const TwinShape shape =
        opts.check ? TwinShape{2, 96, 1} : TwinShape{};
    const sim::Task task = sim::scaledForTiny(sim::wikitext2(), shape.seqLen);
    const kv::KvCacheConfig aerp =
        sim::cacheConfigFor(task, kv::Policy::Aerp);
    const edram::TwoDRefreshPolicy refresh(
        edram::RefreshIntervals::paper2drp().scaled(kRefreshRelax),
        edram::RetentionModel::paper65nm());
    SpanRecorder spans(opts.trace);

    // ---- Set-up: the full-KV path, repeated; the last copy is used.
    std::vector<std::unique_ptr<sim::AccuracyBench>> subs;
    std::vector<double> setup_s;
    for (std::size_t rep = 0; rep < shape.setups; ++rep) {
        subs.clear();
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < shape.streams; ++i)
            subs.push_back(std::make_unique<sim::AccuracyBench>(
                task, mixSeed(opts.seed, i)));
        setup_s.push_back(secondsSince(t0));
    }
    const model::ModelConfig &mc = subs.front()->model().config();
    const auto fault_seed = [&](std::size_t i) {
        return mixSeed(opts.seed, 100 + i);
    };

    // ---- Timed phase: whole rounds of one AERP+2DRP pass per stream.
    // Every round computes the same thing, so each model call's host
    // time is taken as its fastest repeat: other tenants of a shared
    // machine come and go on a scale of seconds, and the fastest of a
    // few repeats drops the time they took from this process.
    std::vector<std::vector<double>> best_ms(shape.streams);
    std::vector<double> raw_decode_ms;
    std::vector<model::StreamEval> first(shape.streams);
    std::uint64_t tokens = 0;
    std::uint64_t decode_tokens = 0;
    double recomputes = 0.0, evictions = 0.0, x_stored = 0.0, appends = 0.0;
    std::array<std::uint64_t, edram::kNumRefreshGroups> flips = {};
    std::array<std::uint64_t, edram::kNumRefreshGroups> exposed = {};
    bool repeatable = true;
    std::size_t rounds = 0;
    const auto timed0 = Clock::now();
    do {
        for (std::size_t i = 0; i < shape.streams; ++i) {
            spans.setRun(static_cast<std::uint32_t>(
                rounds * shape.streams + i));
            edram::RefreshFaultModel faults(refresh, fault_seed(i));
            ObservedInjector observed(faults, &spans);
            kv::FaultInjector *injector =
                opts.trace ? static_cast<kv::FaultInjector *>(&observed)
                           : &faults;
            Pass p = runPass(*subs[i], aerp, injector, spans, false);
            if (rounds == 0)
                best_ms[i] = p.opMs;
            for (std::size_t j = 0; j < p.opMs.size(); ++j)
                best_ms[i][j] = std::min(best_ms[i][j], p.opMs[j]);
            raw_decode_ms.insert(raw_decode_ms.end(), p.opMs.begin() + 1,
                                 p.opMs.end());
            tokens += p.prefillTokens + p.decodeTokens;
            decode_tokens += p.decodeTokens;
            recomputes += p.recomputes;
            evictions += p.evictions;
            x_stored += p.xStored;
            appends += p.appends;
            for (std::size_t g = 0; g < flips.size(); ++g) {
                flips[g] += observed.flips[g];
                exposed[g] += observed.bits[g];
            }
            if (rounds == 0)
                first[i] = std::move(p.eval);
            else
                repeatable = repeatable && sameEval(p.eval, first[i]);
        }
        ++rounds;
    } while (!opts.check && secondsSince(timed0) < opts.seconds);

    double ppl_ratio = 0.0;
    double agreement = 0.0;
    for (std::size_t i = 0; i < shape.streams; ++i) {
        ppl_ratio += first[i].perplexity() / subs[i]->baselinePerplexity();
        agreement += model::agreement(first[i], subs[i]->baseline());
    }
    ppl_ratio /= static_cast<double>(shape.streams);
    agreement /= static_cast<double>(shape.streams);

    double round_ms = 0.0;
    std::vector<double> best_decode_ms;
    for (const std::vector<double> &ops : best_ms) {
        for (double ms : ops)
            round_ms += ms;
        best_decode_ms.insert(best_decode_ms.end(), ops.begin() + 1,
                              ops.end());
    }
    const double tok_per_s =
        static_cast<double>(tokens / rounds) / (round_ms * 1e-3);
    const double p50 = median(best_decode_ms);
    res.attempted = tokens;
    res.failed = 0;
    const double setup_p50 = median(setup_s);
    res.endToEnd = {{"setup_s", setup_p50, "s"},
                    {"peak_rss_mb", peakRssMb(), "MiB"},
                    {"host_ops_per_s", tok_per_s, "1/s"},
                    {"host_op_ms_p50", p50, "ms"}};
    res.report = {
        {"setup_s", setup_p50, "s (host, median of " +
                                    std::to_string(setup_s.size()) +
                                    " set-ups)"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"twin_tokens_per_s", tok_per_s, "tok/s (host, fastest repeats)"},
        {"twin_decode_ms_p50", p50,
         "ms (host, fastest repeats of " +
             std::to_string(best_decode_ms.size()) + " steps)"},
        {"twin_decode_ms_p50_raw", median(raw_decode_ms),
         "ms (host, every step)"},
        {"ppl_ratio", ppl_ratio, "ratio"},
        {"agreement", agreement, "ratio"},
        {"rounds", static_cast<double>(rounds),
         "x " + std::to_string(shape.streams) + " streams of " +
             std::to_string(shape.seqLen) + " tokens"}};

    // p99 only with at least ten samples beyond it.
    if (raw_decode_ms.size() >= 1000)
        res.report.push_back({"twin_decode_ms_p99_raw",
                              nearestRank(raw_decode_ms, 99.0),
                              "ms (host, " +
                                  std::to_string(raw_decode_ms.size()) +
                                  " samples)"});

    // ---- Correctness checks (untimed, never traced).
    SpanRecorder untraced(false);
    res.check("every timed round reproduces the first bit for bit",
              repeatable, std::to_string(rounds) + " rounds");
    checkMatvec(mc, mixSeed(opts.seed, 200), res);
    {
        // A counted AERP+2DRP pass of stream 0: flip statistics per
        // refresh group and the per-head occupancy after every step.
        edram::RefreshFaultModel faults(refresh, fault_seed(0));
        ObservedInjector counted(faults, nullptr);
        const Pass p = runPass(*subs[0], aerp, &counted, untraced, true);
        res.check("the counting fault wrapper leaves the pass unchanged",
                  sameEval(p.eval, first[0]));
        res.check("no (layer, head) holds more than N' entries",
                  p.maxEntries <= aerp.budget,
                  "max " + std::to_string(p.maxEntries) + ", N' " +
                      std::to_string(aerp.budget));
        static const char *kGroup[] = {"hst_msb", "hst_lsb", "lst_msb",
                                       "lst_lsb"};
        for (std::size_t g = 0; g < edram::kNumRefreshGroups; ++g) {
            const double n = static_cast<double>(counted.bits[g]);
            const double rate =
                faults.rateOf(static_cast<edram::RefreshGroup>(g));
            const double mean = n * rate;
            const double k = static_cast<double>(counted.flips[g]);
            // Six binomial standard deviations: a false alarm is about
            // a one-in-10^9 event per group.
            const double tol = 6.0 * std::sqrt(mean * (1.0 - rate)) + 1.0;
            res.check(std::string("flip rate of ") + kGroup[g] +
                          " within a binomial bound of its 2DRP rate",
                      n > 0 && mean >= 10.0 && std::fabs(k - mean) <= tol,
                      fmt(k) + " flips of " + fmt(n) + " bits, expected " +
                          fmt(mean) + " +- " + fmt(tol));
        }
    }
    {
        // The fault-free full-KV pass must reproduce the set-up baseline.
        const Pass p = runPass(*subs[0], kv::makeFullConfig(), nullptr,
                               untraced, false);
        const model::StreamEval &base = subs[0]->baseline();
        res.check("a fault-free full-KV pass reproduces the baseline",
                  sameEval(p.eval, base) &&
                      p.eval.perplexity() == base.perplexity() &&
                      model::agreement(p.eval, base) == 1.0);
    }

    if (!opts.trace)
        return;
    // ---- Per-layer metrics of the traced run.
    const double probe_s = opts.check ? 0.05 : 0.3;
    res.layer["tensor.matvec_gflops"] =
        probeMatvecGflops(mc, mixSeed(opts.seed, 300), probe_s);
    res.layer["kvcache.gather_us_per_entry"] = probeGatherUsPerEntry(
        *subs[0], aerp, refresh, fault_seed(0), probe_s);

    const auto &all = spans.spans();
    std::vector<double> child_s(all.size(), 0.0);
    double corrupt_s = 0.0;
    for (const auto &s : all) {
        if (std::string_view(s.name) == "edram.corrupt" && s.parent >= 0 &&
            std::string_view(all[static_cast<std::size_t>(s.parent)].name) ==
                "model.decodeStep") {
            child_s[static_cast<std::size_t>(s.parent)] += s.seconds();
            corrupt_s += s.seconds();
        }
    }
    std::vector<double> self_ms;
    double decode_s = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (std::string_view(all[i].name) != "model.decodeStep")
            continue;
        decode_s += all[i].seconds();
        self_ms.push_back((all[i].seconds() - child_s[i]) * 1e3);
    }
    const double prefill_tokens =
        static_cast<double>(tokens - decode_tokens);
    res.layer["model.prefill_tokens_per_s"] =
        prefill_tokens / spans.totalSeconds("model.prefill");
    res.layer["model.decode_self_ms_p50"] = median(self_ms);
    const double dt = static_cast<double>(decode_tokens);
    res.layer["kvcache.recomputes_per_token"] = recomputes / dt;
    res.layer["kvcache.evictions_per_token"] = evictions / dt;
    res.layer["kvcache.x_stored_share"] = x_stored / appends;
    res.layer["edram.corrupt_share"] = corrupt_s / decode_s;
    static const char *kFlip[] = {
        "edram.flip_rate.hst_msb", "edram.flip_rate.hst_lsb",
        "edram.flip_rate.lst_msb", "edram.flip_rate.lst_lsb"};
    for (std::size_t g = 0; g < edram::kNumRefreshGroups; ++g)
        res.layer[kFlip[g]] = static_cast<double>(flips[g]) /
                              static_cast<double>(exposed[g]);
    res.layer["ppl_ratio"] = ppl_ratio;
    res.layer["agreement"] = agreement;
    if (!opts.spansOut.empty() && !spans.writeJson(opts.spansOut))
        res.check("spans written to " + opts.spansOut, false);
}

} // namespace perfbench
