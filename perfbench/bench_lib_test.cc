// Tests of the benchmark's own helpers: schedule determinism, Zipf sizing,
// and the percentile reporter's sample-count rule. Plain main (the
// benchmark builds without GTest); exits non-zero on the first failure.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "bench_lib.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool SameSchedule(const std::vector<perfbench::Arrival>& a,
                  const std::vector<perfbench::Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_ms != b[i].due_ms || a[i].tenant != b[i].tenant ||
        a[i].domain != b[i].domain) {
      return false;
    }
  }
  return true;
}

void TestScheduleDeterminism() {
  const auto a = perfbench::BurstSchedule(7, 50, 6, 2, 10000.0);
  const auto b = perfbench::BurstSchedule(7, 50, 6, 2, 10000.0);
  const auto c = perfbench::BurstSchedule(8, 50, 6, 2, 10000.0);
  EXPECT(a.size() == 300u);
  EXPECT(SameSchedule(a, b));
  EXPECT(!SameSchedule(a, c));
  // Sorted by due time, inside the horizon, every tenant gets its domains in
  // order, and a burst's domains share one due time.
  std::vector<int> next(50, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT(a[i].due_ms >= 0.0 && a[i].due_ms < 10000.0);
    // Burst k of a tenant lies in slot k (3 bursts over 10 s).
    const int slot = a[i].domain / 2;
    EXPECT(a[i].due_ms >= slot * 10000.0 / 3 &&
           a[i].due_ms < (slot + 1) * 10000.0 / 3);
    if (i > 0) EXPECT(a[i - 1].due_ms <= a[i].due_ms);
    EXPECT(a[i].domain == next[a[i].tenant]);
    ++next[a[i].tenant];
  }
  for (const auto& x : a) {
    if (x.domain % 2 == 1) {
      bool paired = false;
      for (const auto& y : a) {
        paired |= y.tenant == x.tenant && y.domain == x.domain - 1 &&
                  y.due_ms == x.due_ms;
      }
      EXPECT(paired);
    }
  }

  const auto p = perfbench::PoissonTimes(3, 20.0, 10000.0);
  const auto q = perfbench::PoissonTimes(3, 20.0, 10000.0);
  const auto r = perfbench::PoissonTimes(4, 20.0, 10000.0);
  EXPECT(p == q);
  EXPECT(p != r);
  // 200 expected arrivals; 5 sigma is ~70.
  EXPECT(p.size() > 130 && p.size() < 270);
}

void TestZipfSizes() {
  const std::vector<int> u = perfbench::ZipfSizes(200, 100, 1600, 1.0);
  EXPECT(u.size() == 200u);
  EXPECT(u[0] == 1600);
  EXPECT(u[1] == 800);
  EXPECT(u[3] == 400);
  EXPECT(u[15] == 100);
  EXPECT(u[199] == 100);
  for (size_t i = 1; i < u.size(); ++i) EXPECT(u[i] <= u[i - 1]);
  // Steeper exponent, no clamping in range.
  const std::vector<int> v = perfbench::ZipfSizes(4, 1, 1000, 2.0);
  EXPECT(v[0] == 1000 && v[1] == 250 && v[2] == 111 && v[3] == 63);

  // The picker draws rank 0 about H(200)^-1 ~ 17% of the time at s = 1.
  perfbench::ZipfPicker picker(200, 1.0);
  cerl::Rng rng(11);
  std::vector<int> hits(200, 0);
  for (int i = 0; i < 100000; ++i) ++hits[picker.Pick(&rng)];
  const double h200 = 5.878;  // harmonic number H(200)
  EXPECT(std::fabs(hits[0] / 100000.0 - 1.0 / h200) < 0.01);
  EXPECT(hits[0] > hits[1] && hits[1] > hits[9]);
}

void TestPercentileReporter() {
  std::vector<double> s(1000);
  std::iota(s.begin(), s.end(), 1.0);  // 1..1000
  perfbench::PercentileReport r = perfbench::ReportPercentiles(s, 99.0);
  EXPECT(r.n == 1000);
  EXPECT(r.hi_pct == 99.0);  // exactly 10 samples beyond p99
  EXPECT(std::fabs(r.p50 - 500.5) < 1e-9);
  EXPECT(std::fabs(r.hi - 990.01) < 1e-9);

  s.resize(999);  // 9.99 beyond p99: falls back to p98
  r = perfbench::ReportPercentiles(s, 99.0);
  EXPECT(r.hi_pct == 98.0);
  EXPECT(r.n == 999);

  s.resize(200);
  r = perfbench::ReportPercentiles(s, 99.0);
  EXPECT(r.hi_pct == 95.0);

  s.resize(19);  // fewer than 10 beyond even the median
  r = perfbench::ReportPercentiles(s, 99.0);
  EXPECT(!r.supported());
  EXPECT(r.n == 19);

  s.resize(20);
  r = perfbench::ReportPercentiles(s, 99.0);
  EXPECT(r.hi_pct == 50.0);

  // Never reports above the requested percentile.
  s.assign(100000, 1.0);
  r = perfbench::ReportPercentiles(s, 99.0);
  EXPECT(r.hi_pct == 99.0);
}

void TestReservoir() {
  perfbench::Reservoir res(100, 5);
  for (int i = 0; i < 10000; ++i) res.Add(i);
  EXPECT(res.seen() == 10000);
  EXPECT(res.sample().size() == 100u);
  const double mean =
      std::accumulate(res.sample().begin(), res.sample().end(), 0.0) / 100.0;
  EXPECT(mean > 3500.0 && mean < 6500.0);  // uniform over 0..9999
  res.Clear();
  res.Add(7.0);
  EXPECT(res.seen() == 1 && res.sample().size() == 1u);
}

void TestJson() {
  EXPECT(perfbench::JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"");
  EXPECT(perfbench::JsonNumber(0.1) == "0.10000000000000001");
  EXPECT(perfbench::JsonNumber(std::nan("")) == "null");
}

}  // namespace

int main() {
  TestScheduleDeterminism();
  TestZipfSizes();
  TestPercentileReporter();
  TestReservoir();
  TestJson();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("bench_lib_test: all checks passed\n");
  return EXIT_SUCCESS;
}
