// Short-config soak of the skewed-tenant load harness (workload_gen) under
// both schedule policies. This is primarily a RACE net: the TSan CI job runs
// it so the full open-loop path — timed pushes from a driver thread,
// pre-flight validation tasks, cost-aware priority updates, work stealing,
// deadline retries, histogram merges — executes under the race detector on
// every change. The functional assertions are deliberately coarse (latency
// VALUES are machine noise); completeness and bookkeeping must hold exactly.
#include <gtest/gtest.h>

#include "stream/workload_gen.h"

namespace cerl::stream {
namespace {

WorkloadConfig SoakConfig(SchedulePolicy policy) {
  WorkloadConfig config;
  config.num_tenants = 12;
  config.domains_per_tenant = 4;
  config.burst_size = 4;
  config.zipf_exponent = 1.1;
  config.min_units = 12;
  config.max_units = 96;
  config.features = 4;
  config.epochs = 2;
  config.utilization = 0.9;  // real queueing, bounded runtime
  config.seed = 7;
  config.engine.num_workers = 4;
  config.engine.schedule_policy = policy;
  return config;
}

void CheckReport(const LoadReport& report, const WorkloadConfig& config) {
  const int total = config.num_tenants * config.domains_per_tenant;
  EXPECT_EQ(report.domains_pushed, total);
  EXPECT_EQ(report.domains_completed, total);
  EXPECT_EQ(report.domains_dropped, 0);
  EXPECT_GT(report.horizon_ms, 0.0);
  EXPECT_GE(report.wall_ms, report.horizon_ms * 0.5);
  // Percentiles come from a real histogram: ordered and positive.
  EXPECT_GT(report.p50_ms, 0.0);
  EXPECT_LE(report.p50_ms, report.p99_ms * 1.0001);
  EXPECT_LE(report.p99_ms, report.p999_ms * 1.0001);
  EXPECT_LE(report.p999_ms, report.max_ms * 1.0001);
  EXPECT_GT(report.throughput_dps, 0.0);
}

TEST(LoadSoakTest, RoundRobinShortSoak) {
  const WorkloadConfig config = SoakConfig(SchedulePolicy::kRoundRobin);
  const LoadReport report = RunSkewedLoad(config);
  CheckReport(report, config);
  EXPECT_EQ(report.steals, 0);  // FIFO policy never steals
}

TEST(LoadSoakTest, CostAwareShortSoak) {
  const WorkloadConfig config = SoakConfig(SchedulePolicy::kCostAware);
  const LoadReport report = RunSkewedLoad(config);
  CheckReport(report, config);
  // The cost model scored warm predictions (finite, non-negative MAPE).
  EXPECT_GE(report.cost_model_error, 0.0);
  EXPECT_LT(report.cost_model_error, 1e6);
}

}  // namespace
}  // namespace cerl::stream
