#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Result::check(const std::string &name, bool passed,
              const std::string &detail)
{
    checks.push_back({name, passed, detail});
}

bool
Result::allPassed() const
{
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check &c) { return c.passed; });
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> kList = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"host_ops_per_s", "1/s"},
        {"host_op_ms_p50", "ms"},
    };
    return kList;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> kList = {
        // tensor / model / kvcache / edram: the functional twin.
        {"tensor.matvec_gflops", "GFLOP/s"},
        {"model.prefill_tokens_per_s", "tok/s"},
        {"model.decode_self_ms_p50", "ms"},
        {"kvcache.gather_us_per_entry", "us"},
        {"kvcache.recomputes_per_token", "count"},
        {"kvcache.evictions_per_token", "count"},
        {"kvcache.x_stored_share", "ratio"},
        {"edram.corrupt_share", "ratio"},
        {"edram.flip_rate.hst_msb", "ratio"},
        {"edram.flip_rate.hst_lsb", "ratio"},
        {"edram.flip_rate.lst_msb", "ratio"},
        {"edram.flip_rate.lst_lsb", "ratio"},
        // accel / serving / kvcache pool / cluster / faults: the fleet.
        {"accel.decode_evals_per_s", "1/s"},
        {"accel.cost_cache_hit_rate", "ratio"},
        {"accel.refresh_j_per_token", "J"},
        {"serving.engine_steps_per_s", "1/s"},
        {"serving.fast_forward_share", "ratio"},
        {"serving.trace_gen_ms", "ms"},
        {"serving.queue_wait_p99_s", "s"},
        {"serving.mean_decode_batch", "count"},
        {"serving.preemptions", "count"},
        {"serving.deferrals", "count"},
        {"kvcache.pool_peak_util", "ratio"},
        {"kvcache.peak_logical_tokens", "count"},
        {"kvcache.prefix_hit_tokens", "count"},
        {"kvcache.cow_copies", "count"},
        {"kvcache.tail_reclaims", "count"},
        {"cluster.imbalance_cv", "ratio"},
        {"faults.availability", "ratio"},
        {"faults.retries", "count"},
        {"faults.lost_tokens", "count"},
        // The modelled outcomes: exact for a fixed build and seed.
        {"ppl_ratio", "ratio"},
        {"agreement", "ratio"},
        {"ttft_p50_s", "s"},
        {"ttft_p99_s", "s"},
        {"tpot_p50_s", "s"},
        {"tpot_p99_s", "s"},
        {"goodput_tok_per_s", "tok/s"},
        {"slo_capacity_rps", "req/s"},
        {"energy_j_per_token", "J"},
    };
    return kList;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now())
{}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::int32_t
SpanRecorder::begin(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_;
    s.run = run_;
    s.startNs = nowNs();
    spans_.push_back(s);
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
}

void
SpanRecorder::end(std::int32_t id)
{
    if (id < 0)
        return;
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endNs = nowNs();
    open_ = s.parent;
}

double
SpanRecorder::totalSeconds(const char *name) const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (std::string_view(s.name) == name)
            total += s.seconds();
    return total;
}

std::size_t
SpanRecorder::count(const char *name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(), [&](const Span &s) {
            return std::string_view(s.name) == name;
        }));
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                     "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"run\": %u}}%s\n",
                     s.name, static_cast<double>(s.startNs) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3, i,
                     s.parent, s.run,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

double
nearestRank(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

double
median(std::vector<double> samples)
{
    return nearestRank(std::move(samples), 50.0);
}

double
peakRssMb()
{
    struct rusage u
    {
    };
    if (getrusage(RUSAGE_SELF, &u) != 0)
        return 0.0;
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace perfbench
