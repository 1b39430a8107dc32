// The benchmark's workloads and its metric catalogue.
#pragma once

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One metric of the catalogue: what it is and which end-to-end metric, on
/// which workload, it should move.
struct MetricInfo {
  const char* name;
  const char* unit;
  const char* moves;
};

const std::vector<MetricInfo>& EndToEndMetrics();
const std::vector<MetricInfo>& PerLayerMetrics();
const std::vector<std::string>& WorkloadNames();

/// Runs workload rc.workload and fills `out` with every end-to-end metric,
/// every per-layer metric (traced run only), counts, and check failures.
void RunWorkload(const RunContext& rc, RunOutput* out);

}  // namespace perfbench
