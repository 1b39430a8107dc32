// Engine-independent helpers of the end-to-end benchmark: seeded input
// schedules, Zipf sizing, the percentile reporter, a bounded span tracer
// that writes Chrome trace-event JSON, and a small JSON writer. Everything
// here is deterministic in its seed and is unit-tested by bench_lib_test.cc.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Zipf-sized unit counts by tenant rank: round(max_units / (r+1)^exponent),
/// clamped to [min_units, max_units]. Rank 0 is the heaviest tenant.
std::vector<int> ZipfSizes(int tenants, int min_units, int max_units,
                           double exponent);

/// Draws indices in [0, n) with P(i) proportional to 1 / (i+1)^exponent.
class ZipfPicker {
 public:
  ZipfPicker(int n, double exponent);
  int Pick(cerl::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// One scheduled push of the open loop.
struct Arrival {
  double due_ms = 0.0;  ///< offset from the loop start
  int tenant = 0;
  int domain = 0;  ///< index into the tenant's open-loop domains
};

/// Stratified bursts: each tenant receives `per_tenant` domains grouped into
/// bursts of `burst` (the last may be smaller). The horizon is cut into one
/// slot per burst and a tenant's k-th burst lands at a uniform random time
/// in slot k, so every tenant offers the same load in every slot while the
/// merged arrivals of many tenants stay Poisson-like. Sorted by due time,
/// ties kept in tenant/domain order. Same seed, same schedule.
std::vector<Arrival> BurstSchedule(uint64_t seed, int tenants, int per_tenant,
                                   int burst, double horizon_ms);

/// Arrival offsets (ms) of a Poisson process at `rate_per_s` over
/// [0, horizon_ms), ascending.
std::vector<double> PoissonTimes(uint64_t seed, double rate_per_s,
                                 double horizon_ms);

/// Linear-interpolated quantile q in [0, 1] of ascending `sorted`.
double Quantile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (NaN when empty).
double Median(std::vector<double> values);

/// What the percentile reporter prints for a latency sample: the median and
/// the highest percentile of the ladder 99.9/99/98/95/90/75/50 (at most
/// `want`) that has at least kMinBeyond samples beyond it, with the count.
struct PercentileReport {
  static constexpr int kMinBeyond = 10;
  int64_t n = 0;
  double p50 = 0.0;
  double hi = 0.0;      ///< value at hi_pct
  double hi_pct = 0.0;  ///< e.g. 99 (0 when even p50 is unsupported)
  bool supported() const { return hi_pct > 0.0; }
  std::string Describe(const std::string& unit) const;
};

PercentileReport ReportPercentiles(std::vector<double> samples,
                                   double want_pct = 99.0);

/// Fixed-capacity uniform sample of an unbounded stream (Algorithm R), so a
/// closed-loop reader can run millions of queries in bounded memory.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);
  void Add(double value);
  /// Empties the sample (the capacity stays reserved).
  void Clear();
  int64_t seen() const { return seen_; }
  const std::vector<double>& sample() const { return sample_; }

 private:
  size_t capacity_;
  int64_t seen_ = 0;
  cerl::Rng rng_;
  std::vector<double> sample_;
};

/// Bounded in-memory span recorder. Spans carry a request id shared by the
/// spans of one domain or query and the id of the span that caused them;
/// WriteChromeTrace emits them as "X" trace events. A null Tracer* means
/// tracing is off, and ScopedSpan then costs one branch.
class Tracer {
 public:
  explicit Tracer(size_t max_spans, Clock::time_point origin = Clock::now());

  /// Records a finished span (dropped, and counted, once full).
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end, uint64_t request = 0,
              uint64_t parent = 0);
  /// A fresh span id for a span whose children are recorded before it ends.
  uint64_t NextId();
  /// Records a span under a pre-allocated id.
  void RecordWithId(uint64_t id, const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t request, uint64_t parent);

  size_t size() const;
  uint64_t dropped() const;
  /// Per-name span count and total duration (ms), for the layer table.
  std::map<std::string, std::pair<int64_t, double>> Totals() const;
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    uint64_t id;
    uint64_t request;
    uint64_t parent;
    uint32_t tid;
  };
  Clock::time_point origin_;
  size_t max_spans_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
};

/// RAII span; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0,
             uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t request_;
  uint64_t parent_;
  uint64_t id_ = 0;
  Clock::time_point start_;
};

/// Minimal JSON text helpers.
std::string JsonString(const std::string& s);
/// Shortest round-trip decimal for a finite double ("null" otherwise).
std::string JsonNumber(double v);

}  // namespace perfbench
