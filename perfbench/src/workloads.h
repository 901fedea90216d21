// The three workloads. Each fills `report` with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run), its operation
// counts, its output checks and its run record.
#pragma once

#include "common.h"

namespace perfbench {

void run_solve_large(const RunOptions& options, Report& report);
void run_serving(const RunOptions& options, Report& report);

}  // namespace perfbench
