#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <thread>
#include <utility>

#include "linalg/simd.h"
#include "serve/batch_predictor.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/tenant_store.h"
#include "storage/wal.h"

namespace perfbench {

namespace cs = cerl::stream;

// --- RunOutput -------------------------------------------------------------

void RunOutput::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

// --- Inputs ----------------------------------------------------------------

cerl::core::CerlConfig TenantConfig(const TenantShape& shape, uint64_t seed) {
  cerl::core::CerlConfig c;
  c.net.rep_hidden = shape.rep_hidden;
  c.net.rep_dim = shape.rep_dim;
  c.net.head_hidden = shape.head_hidden;
  c.train.epochs = shape.epochs;
  c.train.patience = shape.patience;
  c.train.batch_size = shape.batch_size;
  c.train.learning_rate = 1e-2;
  c.train.alpha = 0.2;
  c.train.seed = seed;
  c.memory_capacity = shape.memory_capacity;
  return c;
}

cerl::data::DataSplit MakeDomain(cerl::Rng* rng, int units, double shift) {
  cerl::data::CausalDataset d;
  d.x.Resize(units, kFeatures);
  d.t.resize(units);
  d.y.resize(units);
  d.mu0.resize(units);
  d.mu1.resize(units);
  for (int i = 0; i < units; ++i) {
    double* x = d.x.row(i);
    for (int j = 0; j < kFeatures; ++j) {
      x[j] = rng->Normal() + (j < 4 ? shift : 0.0);
    }
    // Confounded assignment: treatment depends on x0, x1, x5.
    const double logit = 0.8 * x[0] - 0.5 * x[1] + 0.3 * x[5];
    d.t[i] = rng->Uniform() < 1.0 / (1.0 + std::exp(-logit)) ? 1 : 0;
    d.mu0[i] = std::sin(x[0]) + 0.5 * x[1] + 0.3 * x[2] * x[3];
    d.mu1[i] = d.mu0[i] + 1.0 + 0.5 * std::tanh(x[2] + x[4]);
    d.y[i] = (d.t[i] == 1 ? d.mu1[i] : d.mu0[i]) + 0.1 * rng->Normal();
  }
  return cerl::data::SplitDataset(d, rng);
}

cs::StreamEngineOptions EngineOptions(const std::string& dir,
                                      int max_resident) {
  cs::StreamEngineOptions o;
  o.num_workers = kWorkers;
  o.wal_path = dir + "/engine.wal";
  o.wal_fsync = false;
  if (max_resident > 0) {
    o.storage_path = dir + "/tenants.pages";
    o.max_resident_streams = max_resident;
  }
  return o;
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos == path.size() || path[pos] == '/') {
      const std::string prefix = path.substr(0, pos);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

// --- P2qTracker ------------------------------------------------------------

P2qTracker::P2qTracker(int tenants, Tracer* tracer)
    : tracer_(tracer), pending_(tenants), is_active_(tenants, 0) {}

void P2qTracker::Expect(int tenant, int stage, Clock::time_point due,
                        uint64_t request) {
  pending_[tenant].push_back({stage, due, request});
  if (!is_active_[tenant]) {
    is_active_[tenant] = 1;
    active_.push_back(tenant);
  }
  ++outstanding_;
  max_outstanding_ = std::max(max_outstanding_, outstanding_);
}

int P2qTracker::Poll(const cs::StreamEngine& engine) {
  int seen = 0;
  size_t keep = 0;
  for (size_t i = 0; i < active_.size(); ++i) {
    const int t = active_[i];
    const std::shared_ptr<const cerl::serve::EffectSnapshot> snap =
        engine.effect_snapshot(t);
    const int stage = snap != nullptr ? snap->stage : 0;
    std::deque<Pending>& q = pending_[t];
    if (!q.empty() && q.front().stage <= stage) {
      const Clock::time_point now = Clock::now();
      int in_this_poll = 0;
      while (!q.empty() && q.front().stage <= stage) {
        const Pending& p = q.front();
        obs_.push_back({t, p.stage, MsBetween(p.due, now)});
        if (tracer_ != nullptr) {
          tracer_->Record("p2q", p.due, now, p.request);
        }
        if (in_this_poll++ > 0) ++multi_complete_;
        q.pop_front();
        --outstanding_;
        ++seen;
      }
      last_seen_ = now;
    }
    if (q.empty()) {
      is_active_[t] = 0;
    } else {
      active_[keep++] = t;
    }
  }
  active_.resize(keep);
  return seen;
}

bool P2qTracker::PollUntilDone(const cs::StreamEngine& engine,
                               double interval_ms, double timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(timeout_ms * 1000.0));
  const auto interval =
      std::chrono::microseconds(static_cast<int64_t>(interval_ms * 1000.0));
  while (outstanding_ > 0) {
    Poll(engine);
    if (outstanding_ == 0) break;
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(interval);
  }
  return true;
}

// --- Readers ---------------------------------------------------------------

namespace {

// Query spans are sampled: one in kQuerySpanEvery.
constexpr int64_t kQuerySpanEvery = 256;
// Latency reservoir sizes (bounded memory for millions of queries).
constexpr size_t kReservoir = 1 << 20;
constexpr size_t kWindowReservoir = 1 << 16;
constexpr double kWindowMs = 1000.0;

// Cuts a reader's latencies into kWindowMs windows and keeps a pooled
// sample; Finish() summarizes every window with a supported p99.
class LatencyWindows {
 public:
  LatencyWindows(Clock::time_point start, uint64_t seed)
      : start_(start),
        window_(kWindowReservoir, seed),
        pooled_(kReservoir, seed ^ 0x9001ull) {}

  /// Moves to the window that holds `at`, closing the previous one.
  void Enter(Clock::time_point at) {
    const int64_t index =
        static_cast<int64_t>(MsBetween(start_, at) / kWindowMs);
    if (index == index_) return;
    if (index_ >= 0) Close();
    index_ = index;
  }

  void Add(double us) {
    window_.Add(us);
    pooled_.Add(us);
  }

  void Finish(ReaderStats* out) {
    Close();
    out->latency_us.insert(out->latency_us.end(), pooled_.sample().begin(),
                           pooled_.sample().end());
    out->window_p50_us.insert(out->window_p50_us.end(), p50_.begin(),
                              p50_.end());
    out->window_p99_us.insert(out->window_p99_us.end(), p99_.begin(),
                              p99_.end());
  }

 private:
  void Close() {
    const PercentileReport r = ReportPercentiles(window_.sample(), 99.0);
    if (r.hi_pct == 99.0) {
      p50_.push_back(r.p50);
      p99_.push_back(r.hi);
    }
    window_.Clear();
  }

  Clock::time_point start_;
  int64_t index_ = -1;
  Reservoir window_;
  Reservoir pooled_;
  std::vector<double> p50_, p99_;
};

struct QueryOnce {
  cs::StreamEngine* engine;
  cs::QueryContext* ctx;
  const QueryPlan* plan;
  std::vector<uint64_t> last_version;

  void Run(cerl::Rng* rng, ReaderStats* out) {
    const int t = plan->pick_tenant(rng);
    const cerl::linalg::Matrix& rows = *plan->rows[t];
    const int r = static_cast<int>(rng->UniformInt(rows.rows()));
    double ite = 0.0;
    cs::EffectQueryMeta meta;
    const cerl::Status st =
        engine->QueryEffect(ctx, t, rows.row(r), kFeatures, &ite, &meta);
    ++out->queries;
    if (!st.ok() || !std::isfinite(ite)) {
      ++out->failed;
      return;
    }
    if (last_version[t] != 0 && meta.snapshot_version != last_version[t]) {
      ++out->version_reloads;
    }
    last_version[t] = meta.snapshot_version;
  }
};

}  // namespace

void RunOpenLoopReader(cs::StreamEngine* engine, const QueryPlan& plan,
                       Clock::time_point start, double horizon_ms,
                       double rate_per_s, uint64_t seed, Tracer* tracer,
                       ReaderStats* out) {
  const std::vector<double> due_ms =
      PoissonTimes(seed, rate_per_s, horizon_ms);
  QueryOnce q{engine, engine->CreateQueryContext(), &plan,
              std::vector<uint64_t>(plan.rows.size(), 0)};
  cerl::Rng rng(seed ^ 0x5eedull);
  PrioritizeLoadThread();
  LatencyWindows windows(start, seed ^ 0x7e5ull);
  out->late_ms.reserve(due_ms.size());
  for (double at : due_ms) {
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(at * 1e6));
    windows.Enter(due);
    std::this_thread::sleep_until(due);
    const Clock::time_point t0 = Clock::now();
    q.Run(&rng, out);
    const Clock::time_point t1 = Clock::now();
    out->late_ms.push_back(MsBetween(due, t0));
    windows.Add(MsBetween(t0, t1) * 1000.0);
    if (tracer != nullptr && out->queries % kQuerySpanEvery == 0) {
      tracer->Record("query", due, t1);
    }
  }
  windows.Finish(out);
  out->elapsed_s = horizon_ms / 1000.0;
}

void RunClosedLoopReader(cs::StreamEngine* engine, const QueryPlan& plan,
                         const std::atomic<bool>& stop, uint64_t seed,
                         Tracer* tracer, ReaderStats* out) {
  QueryOnce q{engine, engine->CreateQueryContext(), &plan,
              std::vector<uint64_t>(plan.rows.size(), 0)};
  cerl::Rng rng(seed ^ 0xc105edull);
  PrioritizeLoadThread();
  const Clock::time_point begin = Clock::now();
  LatencyWindows windows(begin, seed ^ 0x7e5ull);
  while (!stop.load(std::memory_order_relaxed)) {
    windows.Enter(Clock::now());
    const Clock::time_point t0 = Clock::now();
    q.Run(&rng, out);
    const Clock::time_point t1 = Clock::now();
    windows.Add(MsBetween(t0, t1) * 1000.0);
    if (tracer != nullptr && out->queries % kQuerySpanEvery == 0) {
      tracer->Record("query", t0, t1);
    }
  }
  windows.Finish(out);
  out->elapsed_s += MsBetween(begin, Clock::now()) / 1000.0;
}

// --- Quality ---------------------------------------------------------------

PeheResult MeasurePehe(
    cs::StreamEngine* engine,
    const std::vector<const cerl::data::CausalDataset*>& first_test,
    const std::vector<const cerl::data::CausalDataset*>& last_test) {
  PeheResult result;
  cs::QueryContext* ctx = engine->CreateQueryContext();
  cerl::linalg::Vector ite;
  const auto score = [&](int t, const cerl::data::CausalDataset& test,
                         double* acc) {
    ++result.queries;
    const cerl::Status st = engine->QueryEffectBatch(ctx, t, test.x, &ite);
    if (!st.ok() || static_cast<int>(ite.size()) != test.num_units()) {
      ++result.failed;
      return;
    }
    double sq = 0.0;
    for (int i = 0; i < test.num_units(); ++i) {
      const double err = ite[i] - (test.mu1[i] - test.mu0[i]);
      sq += err * err;
    }
    *acc += std::sqrt(sq / std::max(1, test.num_units()));
  };
  const int n = static_cast<int>(first_test.size());
  for (int t = 0; t < n; ++t) {
    score(t, *first_test[t], &result.pehe_old);
    score(t, *last_test[t], &result.pehe_new);
  }
  result.pehe_old /= std::max(1, n);
  result.pehe_new /= std::max(1, n);
  return result;
}

Fingerprints ReadFingerprints(const cs::StreamEngine& engine) {
  Fingerprints f;
  for (int t = 0; t < engine.num_streams(); ++t) {
    const auto snap = engine.effect_snapshot(t);
    f.fingerprint.push_back(snap != nullptr ? snap->fingerprint : 0);
    f.stage.push_back(snap != nullptr ? snap->stage : 0);
  }
  return f;
}

// --- Serial replay ---------------------------------------------------------

ReplayResult SerialReplay(
    const cerl::core::CerlConfig& config,
    const std::vector<const cerl::data::DataSplit*>& domains, Tracer* tracer,
    uint64_t request) {
  ReplayResult result;
  cerl::core::CerlTrainer trainer(config, kFeatures);
  ScopedSpan tenant_span(tracer, "replay.tenant", request);
  for (size_t d = 0; d < domains.size(); ++d) {
    const cerl::data::DataSplit& split = *domains[d];
    DomainTimes times;
    ScopedSpan domain_span(tracer, "replay.domain", request,
                           tenant_span.id());
    const auto timed = [&](const char* name, double* ms, auto&& body) {
      ScopedSpan span(tracer, name, request, domain_span.id());
      const Clock::time_point t0 = Clock::now();
      body();
      *ms = MsBetween(t0, Clock::now());
    };
    cerl::Status valid;
    timed("core.validate", &times.validate_ms, [&] {
      valid = cerl::core::CerlTrainer::ValidateDomain(split, kFeatures);
    });
    if (!valid.ok()) {
      result.error = "validation: " + valid.ToString();
      return result;
    }
    std::unique_ptr<cerl::core::CerlTrainer::StageContext> ctx;
    timed("core.begin", &times.begin_ms,
          [&] { ctx = trainer.BeginStage(split); });
    cerl::causal::TrainStats stats;
    timed("core.train", &times.train_ms,
          [&] { stats = trainer.TrainStage(ctx.get()); });
    cerl::Status health;
    timed("core.migrate", &times.migrate_ms, [&] {
      trainer.MigrateStage(ctx.get());
      health = trainer.CheckNumericalHealth();
    });
    ctx.reset();
    if (!health.ok()) {
      result.error = "numerical health: " + health.ToString();
      return result;
    }
    timed("core.evaluate", &times.evaluate_ms,
          [&] { (void)trainer.Evaluate(split.test); });
    cerl::Status serialized;
    timed("core.serialize", &times.serialize_ms,
          [&] { serialized = trainer.SerializeCheckpoint(&result.blob); });
    if (!serialized.ok()) {
      result.error = "serialize: " + serialized.ToString();
      return result;
    }
    double build_ms = 0.0;
    timed("serve.build_snapshot", &build_ms, [&] {
      result.snapshot = cerl::serve::BuildEffectSnapshot(
          trainer, static_cast<uint64_t>(d + 1));
    });
    times.build_snapshot_us = build_ms * 1000.0;
    times.epochs_run = stats.epochs_run;
    times.train_step_us =
        stats.steps > 0 ? stats.wall_seconds * 1e6 / stats.steps : 0.0;
    result.domains.push_back(times);
  }
  if (result.snapshot != nullptr) {
    result.fingerprint = result.snapshot->fingerprint;
  }
  return result;
}

// --- Crash / recover -------------------------------------------------------

namespace {

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

void RunRecoverCycles(
    const RunContext& rc, const CrashImage& image, int min_cycles,
    double min_seconds, const QueryPlan* reader_plan, ReaderStats* reader,
    const std::function<void(cs::StreamEngine*)>& on_last_cycle,
    RecoverStats* stats, RunOutput* out) {
  const int tenants = static_cast<int>(image.final_state.stage.size());
  stats->wal_mb = static_cast<double>(FileBytes(image.wal_path)) /
                  (1024.0 * 1024.0);

  // Per-tenant stage inside the snapshot: a standalone LoadSnapshot into an
  // engine without WAL or store trains nothing (the backlog lives in the
  // WAL), so its published stages are exactly the snapshot's.
  std::vector<int> snap_stage(tenants, 0);
  {
    cs::StreamEngineOptions o;
    o.num_workers = kWorkers;
    cs::StreamEngine probe(o);
    ScopedSpan span(rc.tracer, "stream.load_snapshot");
    const Clock::time_point t0 = Clock::now();
    const cerl::Status st = probe.LoadSnapshot(image.snapshot_path);
    stats->load_snapshot_ms = MsBetween(t0, Clock::now());
    out->Check(st.ok(), "standalone LoadSnapshot: " + st.ToString());
    if (!st.ok()) return;
    out->Check(probe.num_streams() == tenants,
               "snapshot holds the wrong number of tenants");
    if (probe.num_streams() != tenants) return;
    for (int t = 0; t < tenants; ++t) {
      const auto snap = probe.effect_snapshot(t);
      snap_stage[t] = snap != nullptr ? snap->stage : 0;
    }
  }
  {
    // Read-only scan of the crash WAL (no torn tail, so nothing is cut).
    ScopedSpan span(rc.tracer, "storage.wal_open");
    const Clock::time_point t0 = Clock::now();
    auto wal = cerl::storage::Wal::Open(image.wal_path, {});
    stats->wal_open_ms = MsBetween(t0, Clock::now());
    out->Check(wal.ok(), "standalone Wal::Open: " + wal.status().ToString());
  }
  stats->tail_domains = 0;
  for (int t = 0; t < tenants; ++t) {
    stats->tail_domains += image.final_state.stage[t] - snap_stage[t];
  }

  const Clock::time_point begin = Clock::now();
  for (int cycle = 0;; ++cycle) {
    const std::string dir =
        rc.tmp_dir + "/recover-" + std::to_string(cycle);
    MakeDirs(dir);
    cs::StreamEngineOptions options = EngineOptions(dir, image.max_resident);
    options.wal_path = image.wal_path;
    auto engine = std::make_unique<cs::StreamEngine>(options);
    ScopedSpan cycle_span(rc.tracer, "recover.cycle");

    const Clock::time_point t0 = Clock::now();
    cerl::Status st;
    {
      ScopedSpan span(rc.tracer, "stream.recover", 0, cycle_span.id());
      st = engine->Recover(image.snapshot_path);
    }
    ++stats->attempted;
    if (!st.ok() || engine->num_streams() != tenants) {
      ++stats->failed;
      out->Check(false, "Recover: " + st.ToString());
      return;
    }
    // Recovered = every tenant answers a query.
    {
      cs::QueryContext* ctx = engine->CreateQueryContext();
      std::vector<double> x(kFeatures, 0.25);
      int answered = 0;
      std::vector<char> ok(tenants, 0);
      const Clock::time_point deadline = t0 + std::chrono::seconds(60);
      while (answered < tenants && Clock::now() < deadline) {
        for (int t = 0; t < tenants; ++t) {
          if (ok[t]) continue;
          double ite = 0.0;
          if (engine->QueryEffect(ctx, t, x.data(), kFeatures, &ite).ok()) {
            ok[t] = 1;
            ++answered;
          }
        }
      }
      stats->attempted += tenants;
      stats->failed += tenants - answered;
      out->Check(answered == tenants, "a recovered tenant never answered");
    }
    stats->recover_ms.push_back(MsBetween(t0, Clock::now()));

    P2qTracker tracker(tenants, rc.tracer);
    for (int t = 0; t < tenants; ++t) {
      for (int s = snap_stage[t] + 1; s <= image.final_state.stage[t]; ++s) {
        tracker.Expect(t, s, t0);
      }
    }
    std::atomic<bool> stop{false};
    std::thread reader_thread;
    if (reader != nullptr) {
      reader_thread = std::thread([&] {
        RunClosedLoopReader(engine.get(), *reader_plan, stop,
                            rc.seed + 7919 * (cycle + 1), rc.tracer, reader);
      });
    }
    const bool caught_up = tracker.PollUntilDone(*engine, 0.5, 120000.0);
    stop.store(true);
    if (reader_thread.joinable()) reader_thread.join();
    out->Check(caught_up, "recovered tail never became queryable");
    engine->Drain();
    const double catchup_ms = MsBetween(t0, tracker.last_seen());
    if (stats->tail_domains > 0 && catchup_ms > 0.0) {
      stats->catchup_dps.push_back(1000.0 * stats->tail_domains / catchup_ms);
    }
    stats->observations.insert(stats->observations.end(),
                               tracker.observations().begin(),
                               tracker.observations().end());
    stats->multi_complete += tracker.multi_complete();
    stats->max_outstanding =
        std::max(stats->max_outstanding, tracker.max_outstanding());

    // Accepted implies recoverable, bit for bit.
    const Fingerprints now = ReadFingerprints(*engine);
    int mismatched = 0;
    for (int t = 0; t < tenants; ++t) {
      if (now.fingerprint[t] != image.final_state.fingerprint[t] ||
          now.stage[t] != image.final_state.stage[t]) {
        ++mismatched;
      }
    }
    out->Check(mismatched == 0,
               std::to_string(mismatched) +
                   " recovered tenant(s) differ from the pre-crash engine");
    for (int t = 0; t < tenants; ++t) {
      for (const auto& r : engine->results(t)) {
        if (!r.status.ok()) ++stats->failed;
      }
    }
    ++stats->cycles;
    const bool last = stats->cycles >= min_cycles &&
                      MsBetween(begin, Clock::now()) >= min_seconds * 1000.0;
    if (last) {
      stats->storage = engine->storage_stats();
      stats->sched = engine->TotalSchedStats();
      stats->steals = engine->steal_count();
      if (on_last_cycle) on_last_cycle(engine.get());
    }
    engine.reset();
    if (last) break;
  }
}

// --- Probes ----------------------------------------------------------------

size_t DomainPayloadBytes(const cerl::data::DataSplit& split) {
  size_t bytes = 0;
  for (const cerl::data::CausalDataset* d :
       {&split.train, &split.valid, &split.test}) {
    const size_t n = static_cast<size_t>(d->num_units());
    bytes += 8 * n * (d->num_features() + 3) + 4 * n + 16;
  }
  return bytes;
}

StorageProbe ProbeStorage(const std::string& dir,
                          const std::vector<std::string>& blobs,
                          const std::vector<size_t>& wal_payload_bytes,
                          Tracer* tracer) {
  constexpr int kRounds = 5;
  StorageProbe probe;
  MakeDirs(dir);
  std::vector<double> put_us, get_us, append_us;
  {
    auto disk = cerl::storage::DiskManager::Open(dir + "/probe.pages");
    if (!disk.ok()) return probe;
    cerl::storage::BufferPool pool(disk.value().get(),
                                   cs::StreamEngineOptions{}.buffer_pool_frames);
    cerl::storage::TenantStore store(&pool);
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < blobs.size(); ++i) {
        const int64_t key = static_cast<int64_t>(i);
        Clock::time_point t0 = Clock::now();
        const bool put_ok = store.Put(key, blobs[i]).ok();
        Clock::time_point t1 = Clock::now();
        if (tracer != nullptr) tracer->Record("storage.put", t0, t1);
        put_us.push_back(MsBetween(t0, t1) * 1000.0);
        if (!put_ok) continue;
        t0 = Clock::now();
        auto got = store.Get(key);
        t1 = Clock::now();
        if (tracer != nullptr) tracer->Record("storage.get", t0, t1);
        get_us.push_back(MsBetween(t0, t1) * 1000.0);
      }
      for (size_t i = 0; i < blobs.size(); ++i) {
        (void)store.Erase(static_cast<int64_t>(i));
      }
    }
  }
  {
    auto wal = cerl::storage::Wal::Open(dir + "/probe.wal", {});
    if (wal.ok()) {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t bytes : wal_payload_bytes) {
          const std::string payload(bytes, static_cast<char>(round + 1));
          const Clock::time_point t0 = Clock::now();
          (void)wal.value()->Append(2, payload);
          const Clock::time_point t1 = Clock::now();
          if (tracer != nullptr) tracer->Record("storage.wal_append", t0, t1);
          append_us.push_back(MsBetween(t0, t1) * 1000.0);
        }
      }
    }
  }
  probe.put_us = Median(put_us);
  probe.get_us = Median(get_us);
  probe.wal_append_us = Median(append_us);
  return probe;
}

namespace {
volatile double g_predict_sink = 0.0;
}  // namespace

PredictProbe ProbePredict(
    const std::vector<std::shared_ptr<const cerl::serve::EffectSnapshot>>&
        snaps,
    const std::vector<const cerl::linalg::Matrix*>& rows, Tracer* tracer) {
  constexpr int kRowCalls = 4096;
  constexpr int kBatchCalls = 128;
  PredictProbe probe;
  std::vector<double> row_ns, batch_us;
  cerl::serve::BatchPredictor predictor;
  cerl::linalg::Vector ite;
  double sink = 0.0;
  for (size_t i = 0; i < snaps.size(); ++i) {
    if (snaps[i] == nullptr) continue;
    const cerl::serve::EffectSnapshot& snap = *snaps[i];
    const cerl::linalg::Matrix& x = *rows[i];
    cerl::linalg::Matrix batch(64, kFeatures);
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < kFeatures; ++c) batch(r, c) = x(r % x.rows(), c);
    }
    predictor.PredictIte(snap, batch, &ite);  // warm the arena
    Clock::time_point t0 = Clock::now();
    for (int k = 0; k < kRowCalls; ++k) {
      sink += predictor.PredictIteRow(snap, x.row(k % x.rows()));
    }
    Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) tracer->Record("serve.predict_rows", t0, t1);
    row_ns.push_back(MsBetween(t0, t1) * 1e6 / kRowCalls);
    t0 = Clock::now();
    for (int k = 0; k < kBatchCalls; ++k) {
      predictor.PredictIte(snap, batch, &ite);
      sink += ite[k % 64];
    }
    t1 = Clock::now();
    if (tracer != nullptr) tracer->Record("serve.predict_batches", t0, t1);
    batch_us.push_back(MsBetween(t0, t1) * 1000.0 / kBatchCalls);
  }
  // Keep the predictions observable so the loops cannot be dropped.
  g_predict_sink = sink;
  probe.row_ns = Median(row_ns);
  probe.batch64_us = Median(batch_us);
  return probe;
}

// --- Process ---------------------------------------------------------------

bool PrioritizeLoadThread() {
  // 1 ns timer slack: wake at the due time instead of up to 50 us later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // A load thread must keep its schedule while the engine's workers keep
  // every core busy; without the privilege this stays at the default nice.
  const pid_t tid = static_cast<pid_t>(::syscall(SYS_gettid));
  return ::setpriority(PRIO_PROCESS, static_cast<id_t>(tid),
                       kLoadThreadNice) == 0;
}

double ProcessCpuMs() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1000.0 + tv.tv_usec / 1000.0;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string HostShapeJson() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
      }
      break;
    }
  }
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  bool prioritized = false;
  std::thread([&prioritized] { prioritized = PrioritizeLoadThread(); }).join();
  return "{\"nproc\":" + std::to_string(nproc) +
         ",\"cpu_model\":" + JsonString(model) +
         ",\"simd\":" + JsonString(cerl::linalg::simd::Kernels().name) +
         ",\"stream_workers\":" + std::to_string(kWorkers) +
         ",\"load_thread_nice\":" +
         std::to_string(prioritized ? kLoadThreadNice : 0) + "}";
}

}  // namespace perfbench
