#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

// The three workloads. Each makes its inputs from the seed, measures for
// config.seconds, runs its correctness gates outside the timed region,
// and fills `result` with the end-to-end metrics (untraced run) or the
// per-layer metrics (config.trace: an untraced run, then a traced one).
// RATIONALE.md says why each exists and which layer it loads.

#include "common.h"

namespace pipebench {

void RunBatchMotif(const Config& config, Result* result);
void RunFleetJoin(const Config& config, Result* result);
void RunServeDurable(const Config& config, Result* result);

/// Sets every per-layer metric this workload does not exercise to 0, so
/// a traced result always carries the full declared set.
void FillUnmeasuredLayers(Result* result);

/// Writes the traced run's spans as
/// <work_dir>/traces/<workload>-<seed>.trace.json.
class Tracer;
void WriteTrace(const Config& config, const Tracer& tracer);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
