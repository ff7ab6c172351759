/**
 * @file
 * The three perfbench workloads. Each fills `res` with its metrics,
 * correctness checks and operation counts; see README.md for what
 * each one feeds the library and why.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "bench_common.hpp"

namespace perfbench {

/** twin_aerp_2drp: the functional twin under AERP + 2DRP faults. */
void runTwin(const Options &opts, Result &res);

/** fleet_knee / fleet_sessions_paged: the serving fleet's rate ladder. */
void runFleet(const Options &opts, Result &res);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
