/**
 * @file
 * Golden-digest regression tier: the full text output (stdout +
 * stderr) of the serving/cluster benches and the edge_server example
 * on a small deterministic config, and of every paper figure/table
 * bench and functional-twin example on its default run, is hashed
 * (FNV-1a 64) against a checked-in digest. Any future perf work that perturbs a single
 * byte of the simulation's observable results — a latency, an energy
 * figure, a percentile, a log line — fails here in tier 1 rather
 * than surfacing as a silent result drift.
 *
 * The digests were recorded from the PR 4 engine; the ISSUE 5 fast
 * path (step-cost memoization, fast-forwarded stepping) reproduces
 * them bit-for-bit, which is exactly the invariant this test pins.
 * If a deliberate, reviewed behaviour change moves the outputs,
 * re-record with the commands in each test and update the constants
 * in the same commit.
 *
 * The BenchCli suite reuses the same harness to pin CLI input
 * validation: bad flags exit non-zero with an error naming the flag.
 *
 * Binaries are located through KELLE_BIN_DIR (the CMake binary dir,
 * injected by tests/CMakeLists.txt); a test skips when its binary was
 * not built (e.g. -DKELLE_BUILD_BENCH=OFF).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>

#include <sys/wait.h>

namespace {

#ifndef KELLE_BIN_DIR
#define KELLE_BIN_DIR "."
#endif

bool
fileExists(const std::string &path)
{
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return true;
    }
    return false;
}

/** Run `cmd` (stderr folded into stdout), return its full output. */
std::string
capture(const std::string &cmd, int *exit_code)
{
    std::string out;
    std::FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (pipe == nullptr) {
        *exit_code = -1;
        return out;
    }
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, n);
    *exit_code = ::pclose(pipe);
    return out;
}

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

void
expectDigest(const std::string &binary, const std::string &flags,
             std::uint64_t want)
{
    const std::string path = std::string(KELLE_BIN_DIR) + "/" + binary;
    if (!fileExists(path))
        GTEST_SKIP() << path << " not built";
    int exit_code = 0;
    const std::string out = capture(path + " " + flags, &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    const std::uint64_t got = fnv1a64(out);
    EXPECT_EQ(got, want)
        << "output of `" << binary << " " << flags
        << "` drifted from the golden digest (got 0x" << std::hex
        << got << ", want 0x" << want
        << ").\nIf the change is deliberate, re-record the digest "
           "from this command's full stdout+stderr.";
}

TEST(GoldenDigest, BenchServingSmallConfig)
{
    expectDigest("bench/bench_serving",
                 "--rate 0.05 --requests 16 --policy all --sweep 0 "
                 "--study 0",
                 0x451a96a526f86c74ull);
}

TEST(GoldenDigest, BenchServingPagedSessionsSmoke)
{
    // The paged KV pool rides the same deterministic engine: the
    // paged + sessions smoke config is pinned byte-for-byte, so any
    // nondeterminism in page allocation, prefix sharing, or the
    // paged fast-forward path shows up as a digest drift here.
    expectDigest("bench/bench_serving",
                 "--paged --sessions 4 --rate 0.05 --requests 16 "
                 "--policy contbatch --sweep 0 --study 0",
                 0xce1d383c8662791eull);
}

TEST(GoldenDigest, BenchClusterSmallHeteroConfig)
{
    expectDigest("bench/bench_cluster",
                 "--devices 2 --hetero --requests 12 --sweep 0 "
                 "--study 0",
                 0x1bf07f53c96d1bb8ull);
}

TEST(GoldenDigest, BenchClusterPreemptConfig)
{
    // The preempt-and-requeue path: same-time requeues from different
    // devices pop in device-index order, so any change to the requeue
    // event priorities shows up here.
    expectDigest("bench/bench_cluster",
                 "--devices 2 --hetero --requests 12 --sweep 0 "
                 "--study 0 --preempt --rate 0.08",
                 0x3f3f11f1704caf8cull);
}

TEST(GoldenDigest, BenchClusterFaultRun)
{
    // The fault-injection subsystem rides the same byte-exactness
    // contract: a seeded fault run (crashes, retries, the degradation
    // ladder, the fault report table) is pinned. Faults OFF is
    // covered by every digest above staying unchanged — the null test.
    expectDigest("bench/bench_cluster",
                 "--devices 2 --hetero --requests 12 --sweep 0 "
                 "--study 0 --faults --mtbf 40 --mttr 10",
                 0x64c29f80073e442eull);
}

TEST(GoldenDigest, EdgeServerDefaultSession)
{
    expectDigest("examples/edge_server", "", 0x9852bb7d3bac4ca7ull);
}

/** Read a whole file (empty string when unreadable). */
std::string
slurp(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST(GoldenDigest, BenchClusterTraceFile)
{
    // The exported Perfetto trace is pinned exactly like the text
    // output: any byte drift in the event stream — an extra event, a
    // reordered track, a timestamp or formatting change — fails here.
    const std::string path = std::string(KELLE_BIN_DIR) +
                             "/bench/bench_cluster";
    if (!fileExists(path))
        GTEST_SKIP() << path << " not built";
    const std::string trace =
        std::string(::testing::TempDir()) + "/kelle_trace.json";
    std::remove(trace.c_str());
    int exit_code = 0;
    const std::string out =
        capture(path + " --devices 2 --hetero --requests 12 --sweep 0 "
                       "--study 0 --trace-out " + trace,
                &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    const std::string bytes = slurp(trace);
    ASSERT_FALSE(bytes.empty()) << "no trace written to " << trace;
    EXPECT_EQ(fnv1a64(bytes), 0xc881545f5a9a4130ull)
        << "trace bytes drifted. If the change is deliberate, "
           "re-record from this command's --trace-out file.";
    std::remove(trace.c_str());
}

TEST(GoldenDigest, BenchClusterAttributionReport)
{
    // The attribution tables (latency waterfall + miss causes) ride
    // the same byte-exactness contract as the rest of the report,
    // pinned against the recorded digest. Components are exact
    // decompositions
    // of deterministic sim times, so a drift here means either a
    // simulation change (expected to fail the digests above too) or
    // an attribution regression (fails only here).
    // The overloaded config (tight pool, tight TPOT target) makes the
    // breakdown substantive: queue, kv-pressure, preempt and compute
    // causes all non-zero, preempt_loss carrying real requeue time.
    const std::string flags = "--devices 2 --hetero --requests 12 "
                              "--sweep 0 --study 0 --preempt "
                              "--pool 3072 --rate 0.2 "
                              "--slo-tpot 0.15 --attribution";
    expectDigest("bench/bench_cluster", flags, 0x2e8705693d5ceea0ull);
}

TEST(GoldenDigest, KelleTraceReportOnRecordedTrace)
{
    // End-to-end CLI pinning: record the preempt trace with
    // attribution (slo instants included), run `kelle_trace report`
    // over it, and hash the report. Covers the reader's event
    // taxonomy, the offline waterfall reconstruction and the report
    // formatting in one digest.
    const std::string bench = std::string(KELLE_BIN_DIR) +
                              "/bench/bench_cluster";
    const std::string cli = std::string(KELLE_BIN_DIR) +
                            "/tools/kelle_trace";
    if (!fileExists(bench) || !fileExists(cli))
        GTEST_SKIP() << "bench_cluster or kelle_trace not built";
    const std::string trace =
        std::string(::testing::TempDir()) + "/kelle_attr_trace.json";
    std::remove(trace.c_str());
    int exit_code = 0;
    std::string out = capture(
        bench + " --devices 2 --hetero --requests 12 --sweep 0 "
                "--study 0 --preempt --pool 3072 --rate 0.2 "
                "--slo-tpot 0.15 --attribution --trace-out " + trace,
        &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    out = capture(cli + " report " + trace, &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    // The first line echoes the trace path (environment-dependent);
    // everything after it is the deterministic report body.
    const std::size_t body = out.find('\n');
    ASSERT_NE(body, std::string::npos) << out;
    const std::uint64_t got = fnv1a64(out.substr(body + 1));
    EXPECT_EQ(got, 0xc4fa211fcb331ae5ull)
        << "kelle_trace report output drifted (got 0x" << std::hex
        << got << ").\nIf the change is deliberate, re-record from "
           "`kelle_trace report` on the trace this test writes.";
    std::remove(trace.c_str());
}

TEST(GoldenDigest, KelleTraceReportOnFaultTrace)
{
    // Offline fault forensics: record a fault run's trace, run
    // `kelle_trace report` over it, and require the fault taxonomy to
    // survive the round-trip — a non-empty fault tally line and a
    // device_fault row in the miss-cause breakdown — plus the usual
    // byte pinning of the report body.
    const std::string bench = std::string(KELLE_BIN_DIR) +
                              "/bench/bench_cluster";
    const std::string cli = std::string(KELLE_BIN_DIR) +
                            "/tools/kelle_trace";
    if (!fileExists(bench) || !fileExists(cli))
        GTEST_SKIP() << "bench_cluster or kelle_trace not built";
    const std::string trace =
        std::string(::testing::TempDir()) + "/kelle_fault_trace.json";
    std::remove(trace.c_str());
    int exit_code = 0;
    std::string out = capture(
        bench + " --devices 2 --hetero --requests 12 --sweep 0 "
                "--study 0 --faults --mtbf 40 --mttr 10 "
                "--trace-out " + trace,
        &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    out = capture(cli + " report " + trace, &exit_code);
    ASSERT_EQ(exit_code, 0) << out;
    const std::size_t body = out.find('\n');
    ASSERT_NE(body, std::string::npos) << out;
    const std::string report = out.substr(body + 1);
    EXPECT_NE(report.find("faults: "), std::string::npos) << report;
    EXPECT_NE(report.find("device faults"), std::string::npos)
        << report;
    EXPECT_NE(report.find("device_fault"), std::string::npos)
        << "miss-cause breakdown lost the device_fault rows:\n"
        << report;
    const std::uint64_t got = fnv1a64(report);
    EXPECT_EQ(got, 0xc9977284943c2a91ull)
        << "kelle_trace fault report drifted (got 0x" << std::hex
        << got << ").\nIf the change is deliberate, re-record from "
           "`kelle_trace report` on the trace this test writes.";
    std::remove(trace.c_str());
}

TEST(GoldenDigest, KelleTraceDiffFastSimIsEmpty)
{
    // The determinism contract as a user-visible CLI check: traces
    // recorded with the fast path on (the default) and off
    // (--fastsim 0, every decode boundary stepped as an event) must
    // byte-compare identical (`kelle_trace diff` exits 0).
    const std::string bench = std::string(KELLE_BIN_DIR) +
                              "/bench/bench_cluster";
    const std::string cli = std::string(KELLE_BIN_DIR) +
                            "/tools/kelle_trace";
    if (!fileExists(bench) || !fileExists(cli))
        GTEST_SKIP() << "bench_cluster or kelle_trace not built";
    const std::string flags = "--devices 2 --hetero --requests 12 "
                              "--sweep 0 --study 0 --preempt "
                              "--pool 3072 --rate 0.2 "
                              "--slo-tpot 0.15 --attribution";
    const std::string modes[2] = {"", " --fastsim 0"};
    std::string traces[2];
    int exit_code = 0;
    for (int m : {0, 1}) {
        traces[m] = std::string(::testing::TempDir()) +
                    "/kelle_diff_fastsim" + (m == 0 ? "1" : "0") +
                    ".json";
        std::remove(traces[m].c_str());
        const std::string out =
            capture(bench + " " + flags + modes[m] + " --trace-out " +
                        traces[m],
                    &exit_code);
        ASSERT_EQ(exit_code, 0) << out;
    }
    const std::string out =
        capture(cli + " diff " + traces[0] + " " + traces[1],
                &exit_code);
    EXPECT_EQ(exit_code, 0)
        << "fastSim on vs off traces diverge:\n" << out;
    EXPECT_NE(out.find("identical"), std::string::npos) << out;
    std::remove(traces[0].c_str());
    std::remove(traces[1].c_str());
}

// ---- PaperDigest ---------------------------------------------------
// Every paper figure/table bench and every functional-twin example is
// pinned byte-for-byte on its default (argument-free) run, so a
// kernel or cache change that moves a single printed paper number
// fails here. Record with `<binary> 2>&1 | <fnv1a64>` on the commit
// before the change and update the constant only for a reviewed,
// deliberate output change. PaperDigestSlow holds the pins whose
// binaries take seconds; they run in the slow tier (ctest -L slow).

TEST(PaperDigest, BenchFig3Motivation)
{
    expectDigest("bench/bench_fig3_motivation", "",
                 0x3dfb093ccebb2efcull);
}

TEST(PaperDigest, BenchFig4Retention)
{
    expectDigest("bench/bench_fig4_retention", "", 0xf2bcf775820506cbull);
}

TEST(PaperDigestSlow, BenchFig8Bitflip)
{
    expectDigest("bench/bench_fig8_bitflip", "", 0xd2c7fa43fff6cf2dull);
}

TEST(PaperDigest, BenchFig13End2end)
{
    expectDigest("bench/bench_fig13_end2end", "", 0x0923b9df5bb85a35ull);
}

TEST(PaperDigest, BenchFig14Accelerators)
{
    expectDigest("bench/bench_fig14_accelerators", "",
                 0x9da19583f3dbe889ull);
}

TEST(PaperDigest, BenchFig15Ablation)
{
    expectDigest("bench/bench_fig15_ablation", "", 0xdc8a47c36298bb4eull);
}

TEST(PaperDigest, BenchFig16Roofline)
{
    expectDigest("bench/bench_fig16_roofline", "", 0x02944c1e219f65feull);
}

TEST(PaperDigest, BenchTable1Memcmp)
{
    expectDigest("bench/bench_table1_memcmp", "", 0xe737388dfdbae875ull);
}

TEST(PaperDigest, BenchTable2Accuracy)
{
    expectDigest("bench/bench_table2_accuracy", "", 0x8d93fa5775b77617ull);
}

TEST(PaperDigest, BenchTable3Budget)
{
    expectDigest("bench/bench_table3_budget", "", 0x70c8c70e8ad81415ull);
}

TEST(PaperDigest, BenchTable4Drp)
{
    expectDigest("bench/bench_table4_2drp", "", 0xd163410b59a2bfa5ull);
}

TEST(PaperDigest, BenchTable5Qualitative)
{
    expectDigest("bench/bench_table5_qualitative", "",
                 0x0da56e47293cb5e1ull);
}

TEST(PaperDigest, BenchTable6Quant)
{
    expectDigest("bench/bench_table6_quant", "", 0x5794aaafed9f2439ull);
}

TEST(PaperDigest, BenchTable7BudgetEnergy)
{
    expectDigest("bench/bench_table7_budget_energy", "",
                 0x54bc484202b0f9e2ull);
}

TEST(PaperDigest, BenchTable8RetentionEnergy)
{
    expectDigest("bench/bench_table8_retention_energy", "",
                 0x821d654e0693e3e0ull);
}

TEST(PaperDigest, BenchTable9Batch)
{
    expectDigest("bench/bench_table9_batch", "", 0xcbbf37934a3727fcull);
}

TEST(PaperDigest, BenchSec84LongContext)
{
    expectDigest("bench/bench_sec84_longcontext", "",
                 0x4d0054fde75a6608ull);
}

TEST(PaperDigest, QuickstartExample)
{
    expectDigest("examples/quickstart", "", 0x9f548066ead49898ull);
}

TEST(PaperDigest, LongContextReaderExample)
{
    expectDigest("examples/long_context_reader", "",
                 0x002de1fb904aea0eull);
}

TEST(PaperDigest, RefreshTuningExample)
{
    expectDigest("examples/refresh_tuning", "", 0x112c13a74770d59eull);
}

// ---- BenchCli ------------------------------------------------------
// Bad flags end the program with a usage error that names the flag,
// never with a hang, an assertion abort or a silently reinterpreted
// value.

/** Run `binary` with `flags`; expect exit status 1 (not a signal or
 *  a timeout) and output containing every needle. */
void
expectFlagRejected(const std::string &binary, const std::string &flags,
                   std::initializer_list<std::string> needles)
{
    const std::string path = std::string(KELLE_BIN_DIR) + "/" + binary;
    if (!fileExists(path))
        GTEST_SKIP() << path << " not built";
    int exit_code = 0;
    // `timeout` turns a regression back into a hang-free failure.
    const std::string out =
        capture("timeout 10 " + path + " " + flags, &exit_code);
    EXPECT_TRUE(WIFEXITED(exit_code) && WEXITSTATUS(exit_code) == 1)
        << flags << ": wait status " << exit_code << ":\n" << out;
    for (const std::string &needle : needles) {
        EXPECT_NE(out.find(needle), std::string::npos)
            << flags << ":\n" << out;
    }
}

TEST(BenchCli, ClusterRejectsOutOfRangeRetries)
{
    // -1 must not wrap to a 4-billion retry budget, which spins for
    // hours on a fault run.
    expectFlagRejected("bench/bench_cluster", "--faults --retries -1",
                       {"--retries"});
    expectFlagRejected("bench/bench_cluster",
                       "--faults --retries 4294967296", {"--retries"});
}

TEST(BenchCli, ServingRejectsZeroBlockTokens)
{
    // A zero page size must not run as "block 0 tokens".
    expectFlagRejected("bench/bench_serving",
                       "--paged --block-tokens 0 --sweep 0",
                       {"--block-tokens", "blockTokens must be positive"});
}

TEST(BenchCli, ServingRejectsUnsupportedKvQuant)
{
    // Only 8- and 4-bit pages exist: no "INT3 pages" run.
    for (const char *bits : {"3", "16", "-4"}) {
        expectFlagRejected("bench/bench_serving",
                           std::string("--paged --sweep 0 --kv-quant ") +
                               bits,
                           {"--kv-quant", "quantBits must be"});
    }
}

TEST(BenchCli, Sec84RejectsZeroBlockTokens)
{
    // A zero page size must not print "0-token pages" and a -nan
    // multiplier.
    expectFlagRejected("bench/bench_sec84_longcontext",
                       "--paged --block-tokens 0",
                       {"--block-tokens must be positive"});
}

TEST(BenchCli, ClusterRejectsRemovedThreadsFlag)
{
    expectFlagRejected("bench/bench_cluster", "--threads 4",
                       {"unknown flag --threads"});
}

TEST(BenchCli, ServingRejectsZeroRate)
{
    expectFlagRejected("bench/bench_serving", "--rate 0",
                       {"--rate", "ratePerSec must be positive"});
}

TEST(BenchCli, ServingRejectsNegativeRate)
{
    expectFlagRejected("bench/bench_serving", "--rate -1",
                       {"--rate", "ratePerSec must be positive"});
}

TEST(BenchCli, ServingRejectsZeroRequests)
{
    expectFlagRejected("bench/bench_serving", "--requests 0",
                       {"--requests", "numRequests must be positive"});
}

TEST(BenchCli, ServingRejectsZeroMaxBatch)
{
    expectFlagRejected("bench/bench_serving", "--maxbatch 0",
                       {"--maxbatch", "maxBatch must be positive"});
}

TEST(BenchCli, ClusterRejectsZeroDevices)
{
    expectFlagRejected("bench/bench_cluster", "--devices 0",
                       {"--devices", "devices must not be empty"});
}

TEST(BenchCli, ClusterRejectsZeroMtbf)
{
    expectFlagRejected("bench/bench_cluster", "--faults --mtbf 0",
                       {"--mtbf", "mtbfSec must be positive"});
}

} // namespace
