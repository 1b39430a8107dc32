// End-to-end benchmark of the CERL stream engine.
//
//   cerl_perfbench --workload <ingest_skewed|query_hot|restart_recover>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--tmp-root DIR] [--trace-dir DIR]
//
// Prints the host shape, notes, a metric table, and as its LAST stdout line
// one JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 records spans around the
// benchmark's own calls, reports the per-layer metrics, and writes the spans
// as Chrome trace-event JSON into --trace-dir. Exit code 0 only when every
// correctness check passed; 2 on bad usage or a refused environment.
#include <ftw.h>
#include <stdlib.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench_lib.h"
#include "harness.h"
#include "workloads.h"

namespace {

int RemoveEntry(const char* path, const struct stat*, int, struct FTW*) {
  return ::remove(path);
}

/// Removes `dir` and everything under it.
void RemoveTree(const std::string& dir) {
  ::nftw(dir.c_str(), RemoveEntry, 16, FTW_DEPTH | FTW_PHYS);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "cerl_perfbench: %s\nusage: cerl_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--tmp-root DIR] "
               "[--trace-dir DIR]\n",
               why);
  return 2;
}

void PrintTable(const char* title, const perfbench::MetricSet& metrics,
                const std::vector<perfbench::MetricInfo>& catalogue) {
  std::printf("%s\n", title);
  for (const perfbench::MetricInfo& m : catalogue) {
    const auto it = metrics.find(m.name);
    if (it == metrics.end()) continue;
    std::printf("  %-32s %14.6g %-6s %s\n", m.name, it->second, m.unit,
                m.moves);
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunContext rc;
  std::string tmp_root = ".bench_tmp";
  std::string trace_dir = ".bench_out";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      rc.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      rc.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      rc.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     rc.seconds > 0.0 && rc.seconds <= 120.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      rc.trace = value == "1";
    } else if (arg == "--tmp-root") {
      tmp_root = value;
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds (0, 120] and --trace 0|1 "
                 "are required");
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known |= w == rc.workload;
  }
  if (!known) return Usage(("unknown workload " + rc.workload).c_str());
  // A leaked fault-injection or kernel override would pass for a
  // regression (or hide one): refuse to measure under either.
  for (const char* var : {"CERL_FAULTS", "CERL_FORCE_SCALAR"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "cerl_perfbench: refusing to run with %s set in the "
                   "environment\n",
                   var);
      return 2;
    }
  }

  if (!perfbench::MakeDirs(tmp_root)) {
    return Usage(("cannot create " + tmp_root).c_str());
  }
  std::string pattern = tmp_root + "/run-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "cerl_perfbench: mkdtemp: %s\n",
                 std::strerror(errno));
    return 2;
  }
  rc.tmp_dir = pattern;

  const std::string host = perfbench::HostShapeJson();
  std::printf("host: %s\n", host.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              rc.workload.c_str(), static_cast<unsigned long long>(rc.seed),
              rc.seconds, rc.trace ? 1 : 0);
  std::fflush(stdout);

  std::unique_ptr<perfbench::Tracer> tracer;
  if (rc.trace) {
    tracer = std::make_unique<perfbench::Tracer>(1 << 20);
    rc.tracer = tracer.get();
  }
  perfbench::RunOutput out;
  perfbench::RunWorkload(rc, &out);
  RemoveTree(rc.tmp_dir);

  for (const std::string& note : out.notes) std::printf("note: %s\n", note.c_str());
  PrintTable("end-to-end:", out.end_to_end, perfbench::EndToEndMetrics());
  if (rc.trace) {
    PrintTable("per-layer (metric, value, unit, moves):", out.per_layer,
               perfbench::PerLayerMetrics());
    std::printf("spans (name, count, total ms):\n");
    for (const auto& [name, entry] : tracer->Totals()) {
      std::printf("  %-32s %8lld %12.3f\n", name.c_str(),
                  static_cast<long long>(entry.first), entry.second);
    }
    perfbench::MakeDirs(trace_dir);
    const std::string path = trace_dir + "/trace_" + rc.workload + "_seed" +
                             std::to_string(rc.seed) + ".json";
    const std::string meta = "{\"workload\":" +
                             perfbench::JsonString(rc.workload) +
                             ",\"seed\":" + std::to_string(rc.seed) +
                             ",\"host\":" + host + "}";
    if (tracer->WriteChromeTrace(path, meta)) {
      std::printf("trace: %s (%zu spans, %llu dropped)\n", path.c_str(),
                  tracer->size(),
                  static_cast<unsigned long long>(tracer->dropped()));
    } else {
      out.Check(false, "cannot write " + path);
    }
  }
  const perfbench::MetricSet& reported =
      rc.trace ? out.per_layer : out.end_to_end;
  const std::vector<perfbench::MetricInfo>& catalogue =
      rc.trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  for (const perfbench::MetricInfo& m : catalogue) {
    out.Check(reported.count(m.name) != 0,
              std::string("metric ") + m.name + " was not measured");
  }
  for (const std::string& f : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  const bool correct = out.check_failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, out.attempted));
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::MetricInfo& m : catalogue) {
    const auto it = reported.find(m.name);
    if (it == reported.end()) continue;
    json += first ? "" : ", ";
    first = false;
    json += perfbench::JsonString(m.name) + ": {\"value\": " +
            perfbench::JsonNumber(it->second) +
            ", \"unit\": " + perfbench::JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
