/**
 * @file
 * Shared pieces of the perfbench binary: run options, the result a
 * workload fills (metrics, correctness checks, operation counts), the
 * in-memory span recorder of traced runs, and small statistics
 * helpers. Nothing here reaches into the library: every layer is
 * measured from outside, by timing calls into its public functions.
 */

#ifndef PERFBENCH_BENCH_COMMON_HPP
#define PERFBENCH_BENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed phase (whole rounds; at least one). */
    double seconds = 10.0;
    /** Traced run: record spans and report the per-layer metrics. */
    bool trace = false;
    /** Short check mode: reduced inputs, every check, one round. */
    bool check = false;
    /** Where a traced run writes its spans (empty = keep in memory). */
    std::string spansOut;
};

/** One named number with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one correctness check. */
struct Check
{
    std::string name;
    bool passed = false;
    std::string detail;
};

/** Everything one workload run reports. */
struct Result
{
    /** The end-to-end metrics every workload reports (untraced runs). */
    std::vector<Metric> endToEnd;
    /** The workload's own end-to-end figures under their long names,
     *  printed in the human-readable report. */
    std::vector<Metric> report;
    /** Per-layer metrics by name (traced runs); see perLayerMetrics(). */
    std::map<std::string, double> layer;
    std::vector<Check> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void check(const std::string &name, bool passed,
               const std::string &detail = "");
    bool allPassed() const;
};

/** A metric's name and unit as BENCHMARK.json lists them. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The per-layer metrics every traced run prints, in BENCHMARK.json
 *  order. A layer that did no work in a workload reads 0 there (for
 *  example, prefix hits on a fleet without sessions). */
const std::vector<MetricSpec> &perLayerMetrics();

/** The end-to-end metrics every untraced run prints, in order. */
const std::vector<MetricSpec> &endToEndMetrics();

/**
 * Span recorder of traced runs: each span holds a name, start, end,
 * parent and run id. Spans stay in memory until the workload ends.
 * A disabled recorder records nothing and `begin` returns -1.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = -1;
        std::int32_t parent = -1;
        std::uint32_t run = 0;

        double
        seconds() const
        {
            return static_cast<double>(endNs - startNs) * 1e-9;
        }
    };

    explicit SpanRecorder(bool enabled);

    /** Run id stamped on spans begun from now on. */
    void setRun(std::uint32_t run) { run_ = run; }

    /** Open a span nested in the innermost open one. */
    std::int32_t begin(const char *name);
    /** Close the span `begin` returned (no-op for -1). */
    void end(std::int32_t id);

    const std::vector<Span> &spans() const { return spans_; }
    /** Summed duration of every span with this name, seconds. */
    double totalSeconds(const char *name) const;
    /** Number of spans with this name. */
    std::size_t count(const char *name) const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeJson(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    std::uint32_t run_ = 0;
    std::int32_t open_ = -1;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Opens a span for the enclosing scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name)
        : rec_(rec), id_(rec.begin(name))
    {}
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    std::int32_t id_;
};

/** Nearest-rank percentile (p in [0, 100]) of unsorted samples. */
double nearestRank(std::vector<double> samples, double p);
/** Median (nearest rank) of unsorted samples. */
double median(std::vector<double> samples);

/** getrusage peak resident set size of this process, MiB. */
double peakRssMb();

/** SplitMix64 step: derive independent sub-seeds from one seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Short human-readable form of a double (for check details). */
std::string fmt(double v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_COMMON_HPP
