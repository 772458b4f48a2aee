/**
 * @file
 * Layer tracing from outside the simulator.
 *
 * The benchmark never edits the simulator to time it. It times only the
 * calls it can intercept through public seams:
 *
 *  - sys.run: Machine::run, which the driver calls in slices;
 *  - core.cycle: CoreModel::cycle, through a forwarding wrapper core
 *    registered with registerCoreModel (the paper's plug-in seam);
 *  - sys.hypercall: every SystemInterface call the real core makes,
 *    through a forwarding SystemInterface the wrapper hands it in place
 *    of CoreBuildParams::sys. These calls happen inside core.cycle.
 *
 * Per-call spans are folded into running totals (a count and a tick
 * sum per layer); the driver reads the totals at each slice boundary,
 * so memory stays bounded however many cycle() calls a run makes.
 */

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <chrono>
#include <string>

#include "core/coreapi.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

/** A cheap monotonic tick source; ticks convert to seconds through a
 *  rate calibrated against steady_clock over each traced run. */
inline ptl::U64
traceTicks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return (ptl::U64)std::chrono::steady_clock::now()
        .time_since_epoch().count();
#endif
}

/** Folded per-layer totals, in ticks. */
struct LayerTotals
{
    ptl::U64 core_calls = 0;
    ptl::U64 core_ticks = 0;
    ptl::U64 sys_calls = 0;      ///< SystemInterface calls (hypercalls etc.)
    ptl::U64 sys_ticks = 0;
};

/** The totals every wrapper core adds into. Reset by the driver. */
LayerTotals &layerTotals();

/** Wrapper core name for a real core model ("ooo" -> "perfbench.ooo"). */
std::string tracedCoreName(const std::string &inner);

/** Register the forwarding wrapper cores for "ooo" and "seq". */
void registerTracingCores();

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
