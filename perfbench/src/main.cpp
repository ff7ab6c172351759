/**
 * @file
 * perfbench: one workload per process, one driving thread.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--check <0|1>] [--spans-out <path>]
 *
 * Workloads: twin_aerp_2drp (functional twin: TinyTransformer over an
 * AERP ManagedKvCache with 2DRP refresh faults), fleet_knee and
 * fleet_sessions_paged (serving twin: ClusterEngine on its serial
 * engine). The run prints a human-readable report — the workload's
 * figures under their long names, the operation counts and every
 * correctness check — and, as its last line, one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). --check 1 runs the workload at reduced length with
 * every check and exits non-zero when one fails.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "bench_common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <twin_aerp_2drp|fleet_knee|"
                 "fleet_sessions_paged> --seed <n> --seconds <s> "
                 "--trace <0|1> [--check <0|1>] [--spans-out <path>]\n");
}

bool
parseArgs(int argc, char **argv, Options *opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            opts->workload = val;
        } else if (key == "--seed") {
            opts->seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opts->seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            opts->trace = val == "1";
        } else if (key == "--check") {
            opts->check = val == "1";
        } else if (key == "--spans-out") {
            opts->spansOut = val;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return !opts->workload.empty() && opts->seconds > 0.0;
}

/** The metrics of `list`, valued by `lookup`. */
template <typename Lookup>
std::vector<Metric>
collect(const std::vector<MetricSpec> &list, Lookup lookup)
{
    std::vector<Metric> out;
    for (const auto &spec : list)
        out.push_back({spec.name, lookup(spec.name), spec.unit});
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, &opts)) {
        usage();
        return 2;
    }
    Result res;
    if (opts.workload == "twin_aerp_2drp") {
        runTwin(opts, res);
    } else if (opts.workload == "fleet_knee" ||
               opts.workload == "fleet_sessions_paged") {
        runFleet(opts, res);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opts.workload.c_str());
        usage();
        return 2;
    }

    std::printf("== perfbench %s seed %llu%s%s\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? " (traced)" : "",
                opts.check ? " (check mode)" : "");
    for (const Metric &m : res.report)
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  operations attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (const Check &c : res.checks)
        std::printf("  %s  %s%s%s\n", c.passed ? "PASS" : "FAIL",
                    c.name.c_str(), c.detail.empty() ? "" : ": ",
                    c.detail.c_str());

    // Every name a workload sets must be one the JSON line prints.
    std::set<std::string> known;
    for (const auto &spec : perLayerMetrics())
        known.insert(spec.name);
    for (const auto &[name, value] : res.layer) {
        if (!known.count(name)) {
            std::fprintf(stderr, "internal: unlisted metric %s\n",
                         name.c_str());
            return 3;
        }
    }
    const std::vector<Metric> metrics =
        opts.trace
            ? collect(perLayerMetrics(),
                      [&](const char *name) {
                          const auto it = res.layer.find(name);
                          return it == res.layer.end() ? 0.0
                                                       : it->second;
                      })
            : collect(endToEndMetrics(), [&](const char *name) {
                  for (const Metric &m : res.endToEnd)
                      if (m.name == name)
                          return m.value;
                  return std::nan(""); // a workload left it unset
              });
    bool finite = true;
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            std::printf("  FAIL  metric %s is unset or not finite\n",
                        m.name.c_str());
            finite = false;
        }
    }
    const bool correct = finite && res.allPassed() && res.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    if (!finite || (opts.check && !correct))
        return 1;
    return 0;
}
