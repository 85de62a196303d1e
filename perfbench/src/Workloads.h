//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

/// otter min-scans of a short list, back to back (Scheduler, WorkerPool).
Outcome runScanShort(const Options &O, double BusyCpus);
/// mcf refresh_potential over a large tree (SpiceLoop, SpecWriteBuffer).
Outcome runUpdateLong(const Options &O, double BusyCpus);
/// Four loops per request on one FairShare runtime (Scheduler, jit, vm).
Outcome runServeMixed(const Options &O, double BusyCpus);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
