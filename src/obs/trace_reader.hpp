/**
 * @file
 * Offline reader for the Chrome trace-event JSON that `TraceRecorder`
 * emits: parses the event stream back into structured records,
 * rebuilds every request's lifecycle, and recomputes latency
 * waterfalls and SLO miss causes from the trace alone — the engine
 * behind the `kelle_trace` analytics CLI and the CI round-trip check
 * ("every recorded trace parses with zero unknown/malformed events").
 *
 * The parser is scoped to exactly the serializer in obs/trace.cpp: a
 * two-line header, one event object per line (the separating comma
 * ends the previous line), flat string/number fields plus a one-level
 * `args` object, and a `]}` footer. Anything outside that shape
 * counts as malformed; a well-formed event whose (name, ph) pair is
 * not in the taxonomy counts as unknown. Both tallies are exposed via
 * `stats()` so tests can pin them to zero.
 *
 * Reconstruction notes (why it works offline):
 *  - span edges (`b`/`e`) always carry pid 0, so a request's serving
 *    device comes from its admit/reject *instants*, which carry the
 *    device pid; the completion is attributed to the last admit's pid.
 *  - decode slices are not request-bound; membership is replayed per
 *    device from first_token (join), preempt (leave) and completion
 *    (leave) events in timestamp order — removals sort before
 *    additions before slices at equal timestamps — and each slice's
 *    `batch` arg is the authoritative fair-share divisor.
 *  - fault instants split two ways: `device_fault`/`device_recover`
 *    are device-scoped (no request binding) and only tallied, while
 *    `fault_evict` acts as a preemption (batch leave + c7 interval)
 *    and `fault_fail` (with its `outcome:"failed"` span end) closes
 *    the request as a fault-caused rejection.
 *  - waterfalls use the same component definitions and
 *    `exactRemainder` closure as the online `LatencyWaterfall`, in
 *    microsecond space (the trace's native unit). Offline components
 *    fold bitwise to the trace-derived TTFT/E2E; they are not
 *    byte-compared against the online (full-precision) waterfall —
 *    each is independently deterministic.
 *
 * Determinism: output depends only on the trace bytes, which are
 * themselves byte-identical across fastSim on/off,
 * so every report derived here inherits that contract.
 */

#ifndef KELLE_OBS_TRACE_READER_HPP
#define KELLE_OBS_TRACE_READER_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/attribution.hpp"

namespace kelle {
namespace obs {

/** One parsed trace event (fields absent in the JSON stay 0/""). */
struct RawTraceEvent
{
    std::string name;
    char ph = 0; ///< M, b, e, i, X, C
    int pid = 0;
    std::uint64_t id = 0; ///< async span id (b/e events)
    double tsUs = 0.0;
    double durUs = 0.0;
    /** Numeric args (req, device, batch, tokens, value, ...). */
    std::map<std::string, double> args;
    /** args.name of process_name metadata events. */
    std::string metaName;
    /** args.outcome == "rejected" on a rejection span end. */
    bool outcomeRejected = false;
    /** args.outcome == "failed" on a fault-failure span end. */
    bool outcomeFailed = false;
};

/** One request's trace-derived lifecycle and waterfall. */
struct RequestLife
{
    std::uint64_t id = 0;
    std::string task;
    int device = -1;      ///< pid serving at the terminal event
    int firstDevice = -1; ///< pid of the first admission
    bool deferred = false;
    bool preempted = false;
    bool rejected = false;
    bool completed = false;
    /** Hit by a device fault (crash eviction or terminal failure). */
    bool faulted = false;
    bool hasSlo = false;
    double ttftDeadlineSec = 0.0;
    double tpotTargetSec = 0.0;
    /** @name Lifecycle timestamps, µs; -1 = never happened. @{ */
    double arrivalUs = -1.0;
    double firstDeferUs = -1.0;
    double admitUs = -1.0;
    double firstTokenUs = -1.0;
    double preemptUs = -1.0;
    double resumeUs = -1.0;
    double endUs = -1.0; ///< completion or rejection
    /** @} */
    double tokens = 0.0; ///< emitted tokens at completion
    /** @name Waterfall (µs), same layout as WaterfallEntry. @{ */
    double ttftUs = 0.0;
    double e2eUs = 0.0;
    double componentsUs[kLatencyComponentCount] = {};
    bool missedTtft = false;
    bool missedTpot = false;
    MissCause cause = MissCause::None;
    /** @} */
    bool terminal() const { return completed || rejected; }
};

/** Per-device roll-up derived from one trace. */
struct TraceDeviceSummary
{
    std::string name;
    double busyUs = 0.0; ///< sum of prefill + decode slice durations
    std::size_t prefillSlices = 0;
    std::size_t decodeSlices = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t misses = 0;
    double componentTotalsUs[kLatencyComponentCount] = {};
    std::size_t missCounts[kMissCauseCount] = {};
};

class TraceReader
{
  public:
    struct Stats
    {
        std::size_t events = 0;    ///< well-formed events parsed
        std::size_t unknown = 0;   ///< parsed but not in the taxonomy
        std::size_t malformed = 0; ///< lines that failed to parse
        /** Decode slices whose replayed membership size disagreed
         *  with the slice's batch arg (0 on any engine trace). */
        std::size_t batchMismatches = 0;
    };

    /**
     * Parse a full trace document and rebuild the request/device
     * model. Returns false when the document structure itself (header
     * or footer) is wrong; per-event problems are tallied in stats()
     * instead of failing the parse.
     */
    bool parse(const std::string &json);

    const Stats &stats() const { return stats_; }
    const std::vector<RawTraceEvent> &events() const
    {
        return events_;
    }
    /** Process names by pid (index 0 is the requests process). */
    const std::vector<std::string> &processNames() const
    {
        return processNames_;
    }
    /** Requests in id order. */
    const std::vector<RequestLife> &requests() const
    {
        return requests_;
    }
    /** Devices in pid order (pid 1..N). */
    const std::vector<TraceDeviceSummary> &devices() const
    {
        return devices_;
    }

    /** Roll the per-request waterfalls up (index = MissCause). */
    std::size_t missCounts[kMissCauseCount] = {};
    double componentTotalsUs[kLatencyComponentCount] = {};
    std::size_t terminal = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t misses = 0;
    /** @name Fault instants tallied from the trace (0 = no faults). @{ */
    std::size_t deviceFaults = 0;
    std::size_t deviceRecovers = 0;
    std::size_t faultEvictions = 0;
    std::size_t faultFailures = 0;
    /** @} */

  private:
    void buildModel();

    Stats stats_;
    std::vector<RawTraceEvent> events_;
    std::vector<std::string> processNames_;
    std::vector<RequestLife> requests_;
    std::vector<TraceDeviceSummary> devices_;
};

} // namespace obs
} // namespace kelle

#endif // KELLE_OBS_TRACE_READER_HPP
