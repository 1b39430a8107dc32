#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>

namespace perfbench {

std::vector<int> ZipfSizes(int tenants, int min_units, int max_units,
                           double exponent) {
  std::vector<int> units(std::max(0, tenants));
  for (int r = 0; r < tenants; ++r) {
    const double raw = static_cast<double>(max_units) /
                       std::pow(static_cast<double>(r + 1), exponent);
    units[r] = std::clamp(static_cast<int>(std::lround(raw)), min_units,
                          max_units);
  }
  return units;
}

ZipfPicker::ZipfPicker(int n, double exponent) : cdf_(std::max(1, n)) {
  double total = 0.0;
  for (size_t i = 0; i < cdf_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

int ZipfPicker::Pick(cerl::Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<size_t>(it - cdf_.begin(),
                                           cdf_.size() - 1));
}

std::vector<Arrival> BurstSchedule(uint64_t seed, int tenants, int per_tenant,
                                   int burst, double horizon_ms) {
  cerl::Rng rng(seed);
  burst = std::max(1, burst);
  const int bursts = (per_tenant + burst - 1) / std::max(1, burst);
  const double slot_ms = horizon_ms / std::max(1, bursts);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(std::max(0, tenants)) *
                   std::max(0, per_tenant));
  for (int t = 0; t < tenants; ++t) {
    for (int d = 0; d < per_tenant; ++d) {
      const int k = d / burst;
      const double at =
          d % burst == 0 ? (k + rng.Uniform()) * slot_ms
                         : schedule.back().due_ms;
      schedule.push_back({at, t, d});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ms < b.due_ms;
                   });
  return schedule;
}

std::vector<double> PoissonTimes(uint64_t seed, double rate_per_s,
                                 double horizon_ms) {
  cerl::Rng rng(seed);
  std::vector<double> times;
  if (rate_per_s <= 0.0) return times;
  const double mean_gap_ms = 1000.0 / rate_per_s;
  double at = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - U is in (0, 1], so log is finite.
    at += -mean_gap_ms * std::log(1.0 - rng.Uniform());
    if (at >= horizon_ms) break;
    times.push_back(at);
  }
  return times;
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double pos = std::clamp(q, 0.0, 1.0) * (sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

std::string PercentileReport::Describe(const std::string& unit) const {
  char buf[160];
  if (!supported()) {
    std::snprintf(buf, sizeof(buf), "n=%lld (too few samples)",
                  static_cast<long long>(n));
  } else {
    std::snprintf(buf, sizeof(buf), "p50=%.4g %s p%g=%.4g %s (n=%lld)", p50,
                  unit.c_str(), hi_pct, hi, unit.c_str(),
                  static_cast<long long>(n));
  }
  return buf;
}

PercentileReport ReportPercentiles(std::vector<double> samples,
                                   double want_pct) {
  static constexpr double kLadder[] = {99.9, 99.0, 98.0, 95.0,
                                       90.0, 75.0, 50.0};
  PercentileReport report;
  report.n = static_cast<int64_t>(samples.size());
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (double pct : kLadder) {
    if (pct > want_pct) continue;
    // Samples strictly beyond the percentile: n * (1 - pct/100). The small
    // epsilon keeps 1000 * 0.01 == 10 from rounding below the threshold.
    if (n * (100.0 - pct) / 100.0 + 1e-9 >= PercentileReport::kMinBeyond) {
      report.hi_pct = pct;
      report.hi = Quantile(samples, pct / 100.0);
      break;
    }
  }
  if (report.supported()) report.p50 = Quantile(samples, 0.5);
  return report;
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : capacity_(std::max<size_t>(1, capacity)), rng_(seed) {
  sample_.reserve(capacity_);
}

void Reservoir::Add(double value) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(value);
    return;
  }
  const uint64_t j = rng_.UniformInt(static_cast<uint64_t>(seen_));
  if (j < capacity_) sample_[j] = value;
}

void Reservoir::Clear() {
  seen_ = 0;
  sample_.clear();
}

Tracer::Tracer(size_t max_spans, Clock::time_point origin)
    : origin_(origin), max_spans_(max_spans) {
  spans_.reserve(std::min<size_t>(max_spans_, 1 << 16));
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t request,
                    uint64_t parent) {
  RecordWithId(NextId(), name, start, end, request, parent);
}

void Tracer::RecordWithId(uint64_t id, const char* name,
                          Clock::time_point start, Clock::time_point end,
                          uint64_t request, uint64_t parent) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  const uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(
      {name, ns(start), ns(end) - ns(start), id, request, parent, tid});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::map<std::string, std::pair<int64_t, double>> Tracer::Totals() const {
  std::map<std::string, std::pair<int64_t, double>> totals;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    auto& entry = totals[s.name];
    ++entry.first;
    entry.second += static_cast<double>(s.dur_ns) / 1e6;
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"metadata\":%s,\"traceEvents\":[\n",
               metadata_json.c_str());
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"request\":%llu,\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
                       uint64_t parent)
    : tracer_(tracer), name_(name), request_(request), parent_(parent) {
  if (tracer_ != nullptr) {
    id_ = tracer_->NextId();
    start_ = Clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) {
    tracer_->RecordWithId(id_, name_, start_, Clock::now(), request_,
                          parent_);
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
