// The three workloads. Each one: generate inputs from the seed, set up
// several times (setup_s is the median), run the timed phase, check the
// outputs, crash and recover, then (traced run only) time single layers.
//
//  ingest_skewed    open-loop Poisson bursts over Zipf-sized tenants, every
//                   plane on (WAL, publish, spill, periodic SaveSnapshot),
//                   plus a fixed-rate reader on Zipf-popular tenants.
//  query_hot        closed-loop single-row reader over a hot/cold tenant mix
//                   while a small domain trickles in every ~50 ms.
//  restart_recover  crash with a WAL tail; repeated Recover() + catch-up
//                   under a tight resident budget, reader during catch-up.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

namespace cs = cerl::stream;
using cerl::data::CausalDataset;
using cerl::data::DataSplit;

const std::vector<MetricInfo> kEndToEnd = {
    {"p2q_p50_ms", "ms", "push-to-queryable median"},
    {"p2q_p99_ms", "ms", "push-to-queryable tail"},
    {"query_p50_us", "us", "single-row query median"},
    {"query_p99_us", "us", "single-row query tail"},
    {"query_qps", "1/s", "answered queries per second"},
    {"recover_ms", "ms", "Recover() until every tenant answers"},
    {"catchup_dps", "1/s", "replayed domains per second after restart"},
    {"pehe_new", "rmse", "mean sqrt(PEHE), last domain"},
    {"pehe_old", "rmse", "mean sqrt(PEHE), first domain (forgetting)"},
    {"peak_rss_mb", "MiB", "peak resident set"},
    {"setup_s", "s", "median set-up time"},
};

constexpr const char* kTrainMoves =
    "p2q_* on ingest_skewed, catchup_dps on restart_recover; query_hot flat";
constexpr const char* kTailMoves = "p2q_p99_ms on ingest_skewed";
constexpr const char* kMedianMoves = "p2q_p50_ms on ingest_skewed";
constexpr const char* kStateMoves =
    "p2q_* on ingest_skewed; recover_ms, catchup_dps on restart_recover";
constexpr const char* kRestoreMoves = "recover_ms on restart_recover";
constexpr const char* kServeMoves = "query_qps, query_*_us on query_hot";
constexpr const char* kValidity = "open-loop validity; must stay small";

const std::vector<MetricInfo> kPerLayer = {
    {"core.validate_ms", "ms", kTrainMoves},
    {"core.begin_ms", "ms", kTrainMoves},
    {"core.train_ms", "ms", kTrainMoves},
    {"core.migrate_ms", "ms", kTrainMoves},
    {"train.step_us", "us", kTrainMoves},
    {"train.epochs_run_frac", "ratio", kTrainMoves},
    {"proc.cpu_ms_per_domain", "ms", kTrainMoves},
    {"stream.push_us", "us", kTailMoves},
    {"stream.queue_wait_ms", "ms", kTailMoves},
    {"stream.backlog_max", "count", kTailMoves},
    {"stream.cost_model_mape", "ratio", kTailMoves},
    {"stream.steals", "count", kTailMoves},
    {"stream.snapshot_fence_ms", "ms", kTailMoves},
    {"storage.wal_append_us", "us", kMedianMoves},
    {"serve.build_snapshot_us", "us", kMedianMoves},
    {"core.serialize_ms", "ms", kStateMoves},
    {"core.deserialize_ms", "ms", kStateMoves},
    {"core.blob_kb", "KiB", kStateMoves},
    {"storage.put_us", "us", kStateMoves},
    {"storage.get_us", "us", kStateMoves},
    {"storage.fault_backs_per_domain", "ratio", kStateMoves},
    {"storage.pool_hit_ratio", "ratio", kStateMoves},
    {"storage.wal_open_ms", "ms", kRestoreMoves},
    {"stream.load_snapshot_ms", "ms", kRestoreMoves},
    {"storage.wal_mb", "MiB", kRestoreMoves},
    {"serve.predict_row_ns", "ns", kServeMoves},
    {"serve.predict_batch64_us", "us", kServeMoves},
    {"stream.query_version_reloads", "count", kServeMoves},
    {"bench.driver_late_p99_ms", "ms", kValidity},
    {"bench.reader_late_p99_ms", "ms", kValidity},
    {"bench.p2q_multi_complete", "count", kValidity},
    {"failed_frac", "ratio", "must be 0 on every workload"},
};

// Stated limits of the correctness checks.
constexpr double kPeheMin = 0.02;
constexpr double kPeheMax = 2.0;
/// The open-loop driver may start its pushes at most this late (p99).
constexpr double kMaxDriverLateP99Ms = 25.0;
/// Setup repetitions; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Time limit for draining a run's backlog.
constexpr double kDrainTimeoutMs = 60000.0;

/// Everything a workload measured; Finish() turns it into metrics.
struct Collected {
  std::vector<double> setup_s;
  std::vector<P2qTracker::Observation> p2q_obs;
  ReaderStats reader;
  RecoverStats recover;
  PeheResult pehe;

  std::vector<int> replay_tenants;
  std::vector<cerl::core::CerlConfig> replay_configs;
  std::vector<std::vector<const DataSplit*>> replay_domains;
  std::vector<ReplayResult> replays;

  std::map<std::pair<int, int>, double> push_us_by_stage;
  std::vector<double> push_us;
  std::vector<double> driver_late_ms;
  std::vector<double> snapshot_ms;
  int64_t backlog_max = 0;
  int64_t multi_complete = 0;
  double cost_model_mape = 0.0;
  int64_t steals = 0;
  double fault_backs = 0.0;
  double pool_hits = 0.0;
  double pool_misses = 0.0;
  double storage_domains = 0.0;  ///< domains behind the storage counters
  double cpu_ms = 0.0;
  double cpu_domains = 0.0;
  double epochs_run_frac = 0.0;
};

std::string Fmt(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Serially replays the sampled tenants and checks each against the
/// engine's final fingerprint.
void ReplayAndCheck(const RunContext& rc, const Fingerprints& final_state,
                    Collected* c, RunOutput* out) {
  for (size_t i = 0; i < c->replay_tenants.size(); ++i) {
    const int t = c->replay_tenants[i];
    c->replays.push_back(SerialReplay(c->replay_configs[i],
                                      c->replay_domains[i], rc.tracer,
                                      static_cast<uint64_t>(t) + 1));
    const ReplayResult& r = c->replays.back();
    out->Check(r.error.empty(),
               "tenant " + std::to_string(t) + " replay failed: " + r.error);
    out->Check(r.fingerprint == final_state.fingerprint[t] &&
                   static_cast<int>(r.domains.size()) ==
                       final_state.stage[t],
               "tenant " + std::to_string(t) +
                   ": engine snapshot differs from the serial replay");
  }
}

void SetLayer(RunOutput* out, const std::string& name, double value) {
  for (const MetricInfo& m : kPerLayer) {
    if (name == m.name) {
      out->per_layer[name] = value;
      return;
    }
  }
  out->Check(false, "unknown per-layer metric " + name);
}

double TailOrMax(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  const PercentileReport r = ReportPercentiles(samples, 99.0);
  return r.supported() ? r.hi
                       : *std::max_element(samples.begin(), samples.end());
}

void FinishPerLayer(const RunContext& rc, Collected* c, RunOutput* out) {
  std::vector<double> validate, begin, train, migrate, serialize, build, step;
  std::vector<double> deserialize;
  std::vector<std::string> blobs;
  std::vector<size_t> payloads;
  std::vector<std::shared_ptr<const cerl::serve::EffectSnapshot>> snaps;
  std::vector<const cerl::linalg::Matrix*> rows;
  for (size_t i = 0; i < c->replays.size(); ++i) {
    const ReplayResult& r = c->replays[i];
    for (const DomainTimes& d : r.domains) {
      validate.push_back(d.validate_ms);
      begin.push_back(d.begin_ms);
      train.push_back(d.train_ms);
      migrate.push_back(d.migrate_ms);
      serialize.push_back(d.serialize_ms);
      build.push_back(d.build_snapshot_us);
      step.push_back(d.train_step_us);
    }
    for (const DataSplit* split : c->replay_domains[i]) {
      payloads.push_back(DomainPayloadBytes(*split));
    }
    if (r.blob.empty()) continue;
    blobs.push_back(r.blob);
    snaps.push_back(r.snapshot);
    rows.push_back(&c->replay_domains[i].front()->test.x);
    cerl::core::CerlTrainer fresh(c->replay_configs[i], kFeatures);
    ScopedSpan span(rc.tracer, "core.deserialize");
    const Clock::time_point t0 = Clock::now();
    const cerl::Status st = fresh.DeserializeCheckpoint(r.blob);
    deserialize.push_back(MsBetween(t0, Clock::now()));
    out->Check(st.ok(), "DeserializeCheckpoint: " + st.ToString());
  }

  // Queue wait = p2q minus the domain's serial layer sum (push call, the
  // four trainer stages, and the engine's per-domain epilogue), for every
  // observed domain of a replayed tenant.
  std::map<int, size_t> replay_index;
  for (size_t i = 0; i < c->replay_tenants.size(); ++i) {
    replay_index[c->replay_tenants[i]] = i;
  }
  std::vector<double> waits, sampled_p2q, serial_sums;
  for (const auto& o : c->p2q_obs) {
    const auto it = replay_index.find(o.tenant);
    if (it == replay_index.end()) continue;
    const ReplayResult& r = c->replays[it->second];
    if (o.stage < 1 || o.stage > static_cast<int>(r.domains.size())) continue;
    const auto push = c->push_us_by_stage.find({o.tenant, o.stage});
    const double serial =
        r.domains[o.stage - 1].SerialMs() +
        (push != c->push_us_by_stage.end() ? push->second / 1000.0 : 0.0);
    waits.push_back(o.p2q_ms - serial);
    sampled_p2q.push_back(o.p2q_ms);
    serial_sums.push_back(serial);
  }
  const double med_p2q = Median(sampled_p2q);
  const double med_serial = Median(serial_sums);
  const double med_wait = Median(waits);
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
  };
  out->notes.push_back(
      Fmt("accounting over %g sampled domains: ",
          static_cast<double>(waits.size())) +
      Fmt("median p2q %.3f ms vs median serial layer sum %.3f ms + median "
          "queue wait %.3f ms",
          med_p2q, med_serial, med_wait) +
      Fmt("; mean p2q %.3f ms = mean serial %.3f ms + mean queue wait %.3f ms",
          mean(sampled_p2q), mean(serial_sums), mean(waits)));

  const StorageProbe storage =
      ProbeStorage(rc.tmp_dir + "/probe", blobs, payloads, rc.tracer);
  const PredictProbe predict = ProbePredict(snaps, rows, rc.tracer);

  double blob_bytes = 0.0;
  for (const std::string& b : blobs) blob_bytes += b.size();
  const double pool_total = c->pool_hits + c->pool_misses;

  SetLayer(out, "core.validate_ms", Median(validate));
  SetLayer(out, "core.begin_ms", Median(begin));
  SetLayer(out, "core.train_ms", Median(train));
  SetLayer(out, "core.migrate_ms", Median(migrate));
  SetLayer(out, "train.step_us", Median(step));
  SetLayer(out, "train.epochs_run_frac", c->epochs_run_frac);
  SetLayer(out, "proc.cpu_ms_per_domain",
           c->cpu_domains > 0 ? c->cpu_ms / c->cpu_domains : 0.0);
  SetLayer(out, "stream.push_us", Median(c->push_us));
  SetLayer(out, "stream.queue_wait_ms", med_wait);
  SetLayer(out, "stream.backlog_max", static_cast<double>(c->backlog_max));
  SetLayer(out, "stream.cost_model_mape", c->cost_model_mape);
  SetLayer(out, "stream.steals", static_cast<double>(c->steals));
  SetLayer(out, "stream.snapshot_fence_ms", Median(c->snapshot_ms));
  SetLayer(out, "storage.wal_append_us", storage.wal_append_us);
  SetLayer(out, "serve.build_snapshot_us", Median(build));
  SetLayer(out, "core.serialize_ms", Median(serialize));
  SetLayer(out, "core.deserialize_ms", Median(deserialize));
  SetLayer(out, "core.blob_kb",
           blobs.empty() ? 0.0 : blob_bytes / blobs.size() / 1024.0);
  SetLayer(out, "storage.put_us", storage.put_us);
  SetLayer(out, "storage.get_us", storage.get_us);
  SetLayer(out, "storage.fault_backs_per_domain",
           c->storage_domains > 0 ? c->fault_backs / c->storage_domains : 0.0);
  SetLayer(out, "storage.pool_hit_ratio",
           pool_total > 0 ? c->pool_hits / pool_total : 0.0);
  SetLayer(out, "storage.wal_open_ms", c->recover.wal_open_ms);
  SetLayer(out, "stream.load_snapshot_ms", c->recover.load_snapshot_ms);
  SetLayer(out, "storage.wal_mb", c->recover.wal_mb);
  SetLayer(out, "serve.predict_row_ns", predict.row_ns);
  SetLayer(out, "serve.predict_batch64_us", predict.batch64_us);
  SetLayer(out, "stream.query_version_reloads",
           static_cast<double>(c->reader.version_reloads));
  SetLayer(out, "bench.driver_late_p99_ms", TailOrMax(c->driver_late_ms));
  SetLayer(out, "bench.reader_late_p99_ms", TailOrMax(c->reader.late_ms));
  SetLayer(out, "bench.p2q_multi_complete",
           static_cast<double>(c->multi_complete));
}

/// Common tail of every workload: end-to-end metrics, the checks shared by
/// all workloads, and (traced) the per-layer metrics.
void Finish(const RunContext& rc, Collected* c, RunOutput* out) {
  out->attempted +=
      c->reader.queries + c->pehe.queries + c->recover.attempted;
  out->failed += c->reader.failed + c->pehe.failed + c->recover.failed;

  std::vector<double> p2q_ms;
  for (const auto& o : c->p2q_obs) p2q_ms.push_back(o.p2q_ms);
  const PercentileReport p2q = ReportPercentiles(p2q_ms, 99.0);
  const PercentileReport query = ReportPercentiles(c->reader.latency_us, 99.0);
  out->notes.push_back("p2q: " + p2q.Describe("ms"));
  out->notes.push_back("query (pooled): " + query.Describe("us") +
                       Fmt(" of %g answered; %g windows", c->reader.queries,
                           static_cast<double>(c->reader.window_p99_us.size())));
  out->Check(p2q.supported(), "too few push-to-queryable samples");
  out->Check(!c->reader.window_p99_us.empty(),
             "no query window with a supported p99");
  out->Check(!c->recover.recover_ms.empty() && !c->recover.catchup_dps.empty(),
             "no recovery cycle completed");

  MetricSet& e = out->end_to_end;
  e["p2q_p50_ms"] = p2q.p50;
  e["p2q_p99_ms"] = p2q.hi;
  e["query_p50_us"] = Median(c->reader.window_p50_us);
  e["query_p99_us"] = Median(c->reader.window_p99_us);
  e["query_qps"] = c->reader.elapsed_s > 0
                       ? c->reader.queries / c->reader.elapsed_s
                       : 0.0;
  e["recover_ms"] = Median(c->recover.recover_ms);
  e["catchup_dps"] = Median(c->recover.catchup_dps);
  e["pehe_new"] = c->pehe.pehe_new;
  e["pehe_old"] = c->pehe.pehe_old;
  e["setup_s"] = Median(c->setup_s);
  out->notes.push_back(
      Fmt("recovery: %g cycles, %g replayed domains each, ",
          c->recover.cycles, static_cast<double>(c->recover.tail_domains)) +
      Fmt("recover_ms per cycle median %.3f, catchup_dps median %.3f",
          Median(c->recover.recover_ms), Median(c->recover.catchup_dps)));

  for (double v : {c->pehe.pehe_new, c->pehe.pehe_old}) {
    out->Check(std::isfinite(v) && v >= kPeheMin && v <= kPeheMax,
               Fmt("PEHE %g outside the sanity band [%g, %g]", v, kPeheMin,
                   kPeheMax));
  }
  if (!c->driver_late_ms.empty()) {
    const double late = TailOrMax(c->driver_late_ms);
    out->Check(late <= kMaxDriverLateP99Ms,
               Fmt("open-loop driver fell behind: p99 lateness %.3f ms > "
                   "%.3f ms",
                   late, kMaxDriverLateP99Ms));
  }
  if (rc.trace) FinishPerLayer(rc, c, out);
  // Last, so every counted operation is in: rejects and failures over
  // attempts (the reader, PEHE, pushes, recovery probes).
  out->Check(out->failed == 0,
             Fmt("%g of %g operations failed", static_cast<double>(out->failed),
                 static_cast<double>(out->attempted)));
  if (rc.trace) {
    SetLayer(out, "failed_frac",
             out->attempted > 0
                 ? static_cast<double>(out->failed) / out->attempted
                 : 0.0);
  }
  e["peak_rss_mb"] = PeakRssMb();
}

/// Per-tenant training-epoch share, over every trained domain of `engine`.
double EpochsRunFrac(const cs::StreamEngine& engine, int configured_epochs) {
  double run = 0.0, total = 0.0;
  for (int t = 0; t < engine.num_streams(); ++t) {
    for (const cs::DomainResult& r : engine.results(t)) {
      if (!r.status.ok()) continue;
      run += r.stats.epochs_run;
      total += configured_epochs;
    }
  }
  return total > 0 ? run / total : 0.0;
}

/// Counts dropped domains of `engine` as failures.
int64_t DroppedDomains(const cs::StreamEngine& engine) {
  int64_t dropped = 0;
  for (int t = 0; t < engine.num_streams(); ++t) {
    for (const cs::DomainResult& r : engine.results(t)) {
      if (!r.status.ok()) ++dropped;
    }
  }
  return dropped;
}

std::vector<int> SampleTenants(int tenants, bool traced, int traced_count) {
  if (!traced) return {0, tenants / 2, tenants - 1};
  std::vector<int> picks;
  // Roughly log-spaced ranks: heavy tenants and the long tail both show.
  for (int i = 0; i < traced_count; ++i) {
    const double frac = static_cast<double>(i) / (traced_count - 1);
    const int rank = static_cast<int>(std::lround(
        std::pow(static_cast<double>(tenants), frac) - 1.0));
    if (picks.empty() || rank > picks.back()) picks.push_back(rank);
  }
  return picks;
}

// --- Shared workload pieces -------------------------------------------------

/// Every tenant's generated domains and config, plus the copies that must
/// outlive the pushes: test splits for PEHE, reader rows, and the sampled
/// tenants' domains for the serial replay.
struct Inputs {
  std::vector<std::vector<DataSplit>> domains;
  std::vector<cerl::core::CerlConfig> configs;
  std::vector<CausalDataset> first_test, last_test;
  std::vector<cerl::linalg::Matrix> reader_rows;
  std::vector<std::vector<DataSplit>> replay_copies;

  /// Call once the domains are generated: keeps the copies and points the
  /// replay set of `c` at them.
  void Keep(const std::vector<int>& replay_tenants, Collected* c) {
    for (const auto& tenant : domains) {
      first_test.push_back(tenant.front().test);
      last_test.push_back(tenant.back().test);
      reader_rows.push_back(tenant.front().test.x);
    }
    c->replay_tenants = replay_tenants;
    for (int t : replay_tenants) replay_copies.push_back(domains[t]);
    for (size_t i = 0; i < replay_tenants.size(); ++i) {
      c->replay_configs.push_back(configs[replay_tenants[i]]);
      std::vector<const DataSplit*> ptrs;
      for (const DataSplit& s : replay_copies[i]) ptrs.push_back(&s);
      c->replay_domains.push_back(ptrs);
    }
  }

  QueryPlan Plan(std::function<int(cerl::Rng*)> pick) const {
    QueryPlan plan;
    plan.pick_tenant = std::move(pick);
    for (const auto& m : reader_rows) plan.rows.push_back(&m);
    return plan;
  }

  PeheResult Pehe(cs::StreamEngine* engine) const {
    std::vector<const CausalDataset*> first, last;
    for (size_t t = 0; t < first_test.size(); ++t) {
      first.push_back(&first_test[t]);
      last.push_back(&last_test[t]);
    }
    return MeasurePehe(engine, first, last);
  }
};

/// The set-up every workload starts with: an engine in `dir` with every
/// tenant registered, its first domain trained, and a snapshot.
std::unique_ptr<cs::StreamEngine> SetUpEngine(const std::string& dir,
                                              int max_resident,
                                              const Inputs& in, Collected* c,
                                              RunOutput* out) {
  MakeDirs(dir);
  auto engine =
      std::make_unique<cs::StreamEngine>(EngineOptions(dir, max_resident));
  cerl::Status st = engine->OpenStorage();
  out->Check(st.ok(), "OpenStorage: " + st.ToString());
  const int tenants = static_cast<int>(in.domains.size());
  for (int t = 0; t < tenants; ++t) {
    engine->AddStream("tenant-" + std::to_string(t), in.configs[t], kFeatures);
  }
  for (int t = 0; t < tenants; ++t) {
    ++out->attempted;
    if (!engine->PushDomain(t, in.domains[t].front()).ok()) ++out->failed;
  }
  engine->Drain();
  const Clock::time_point s0 = Clock::now();
  st = engine->SaveSnapshot(dir + "/engine.snap");
  c->snapshot_ms.push_back(MsBetween(s0, Clock::now()));
  out->Check(st.ok(), "SaveSnapshot: " + st.ToString());
  return engine;
}

/// Times one pushed domain from its due time and registers it with the
/// push-to-queryable tracker under the snapshot stage that includes it.
void PushTimed(cs::StreamEngine* engine, const RunContext& rc, int tenant,
               int stage, DataSplit split, Clock::time_point due,
               P2qTracker* tracker, Collected* c, RunOutput* out) {
  const uint64_t request = static_cast<uint64_t>(tenant) * 1000 + stage;
  const Clock::time_point t0 = Clock::now();
  cerl::Status st;
  {
    ScopedSpan span(rc.tracer, "stream.push", request);
    st = engine->PushDomain(tenant, std::move(split));
  }
  const double push_us = MsBetween(t0, Clock::now()) * 1000.0;
  c->push_us.push_back(push_us);
  c->driver_late_ms.push_back(MsBetween(due, t0));
  ++out->attempted;
  if (st.ok()) {
    tracker->Expect(tenant, stage, due, request);
    c->push_us_by_stage[{tenant, stage}] = push_us;
  } else {
    ++out->failed;
  }
}

/// Epilogue of the live-engine workloads: counters of the timed phase,
/// PEHE, the fingerprint check against the serial replay, then a crash
/// (the engine's last snapshot plus its WAL) and `cycles` recoveries.
void CheckCrashAndFinish(const RunContext& rc,
                         std::unique_ptr<cs::StreamEngine> engine,
                         const std::string& dir, int max_resident, int cycles,
                         const P2qTracker& tracker, double domains,
                         int epochs, const Inputs& in, Collected* c,
                         RunOutput* out) {
  c->p2q_obs = tracker.observations();
  c->backlog_max = tracker.max_outstanding();
  c->multi_complete = tracker.multi_complete();
  c->cost_model_mape = engine->TotalSchedStats().cost_model_error;
  c->steals = engine->steal_count();
  const auto storage = engine->storage_stats();
  c->fault_backs = static_cast<double>(storage.fault_backs);
  c->pool_hits = static_cast<double>(storage.pool_hits);
  c->pool_misses = static_cast<double>(storage.pool_misses);
  c->storage_domains = domains;
  c->epochs_run_frac = EpochsRunFrac(*engine, epochs);
  out->failed += DroppedDomains(*engine);

  c->pehe = in.Pehe(engine.get());
  const Fingerprints final_state = ReadFingerprints(*engine);
  ReplayAndCheck(rc, final_state, c, out);
  const CrashImage image{dir + "/engine.snap", dir + "/engine.wal",
                         max_resident, final_state};
  engine.reset();
  RunRecoverCycles(rc, image, cycles, 0.0, nullptr, nullptr, nullptr,
                   &c->recover, out);
  Finish(rc, c, out);
}

// --- ingest_skewed ---------------------------------------------------------

namespace ingest {
constexpr int kTenants = 200;
constexpr int kMinUnits = 100;
/// With 1600 (and still with 800) the p2q tail was a handful of events in
/// which the heaviest tenants' bursts overlapped and held both workers;
/// their count per seed moved p2q_p99_ms by up to 2x between runs.
constexpr int kMaxUnits = 400;
constexpr double kZipf = 1.0;
/// Offered domain arrivals per second. Fixed here, never recalibrated in
/// the run: about a third of the closed-loop catch-up rate of this mix with
/// two stream workers on a 4-core x86-64 VM (~300 domains/s). Nearer to
/// capacity, the shared host's minute-scale speed drift (+-15%) is
/// amplified by queueing into 2x swings of the p2q tail between runs.
constexpr double kRateDps = 100.0;
constexpr int kBurst = 2;
constexpr double kReaderQps = 2000.0;
/// The snapshotter calls SaveSnapshot every kFencePeriodMs until the
/// schedule's last kTailSlots slots begin, with the final fence exactly on
/// that slot boundary. The final snapshot is the crash image, so those
/// slots (plus the backlog at the fence) are the recovered WAL tail, the
/// same share of every tenant's load on every seed.
constexpr double kFencePeriodMs = 500.0;
constexpr int kTailSlots = 2;
constexpr int kMaxResident = kTenants / 4;
constexpr int kRecoverCycles = 2;
}  // namespace ingest

void RunIngestSkewed(const RunContext& rc, RunOutput* out) {
  using namespace ingest;
  Collected c;
  TenantShape shape;  // rep {32}/16, heads {32}, 10 epochs
  const int bursts = std::max(1, static_cast<int>(std::lround(
                                     kRateDps * rc.seconds /
                                     (kTenants * kBurst))));
  const int per_tenant = bursts * kBurst;
  const double horizon_ms = 1000.0 * per_tenant * kTenants / kRateDps;
  const double slot_ms = horizon_ms / bursts;
  const std::vector<int> units =
      ZipfSizes(kTenants, kMinUnits, kMaxUnits, kZipf);

  // Domain 0 of every tenant is trained in set-up, domains 1..per_tenant
  // arrive in the open loop.
  Inputs in;
  cerl::Rng base(rc.seed);
  for (int t = 0; t < kTenants; ++t) {
    cerl::Rng rng = base.Split();
    in.domains.emplace_back();
    for (int d = 0; d <= per_tenant; ++d) {
      in.domains[t].push_back(MakeDomain(&rng, units[t], 0.3 * d));
    }
    in.configs.push_back(TenantConfig(shape, rc.seed * 1000003ull + t));
  }
  in.Keep(SampleTenants(kTenants, rc.trace, 16), &c);
  const std::vector<Arrival> schedule = BurstSchedule(
      rc.seed ^ 0xa5a5a5a5ull, kTenants, per_tenant, kBurst, horizon_ms);
  // Zipf popularity over a seeded permutation of tenants.
  std::vector<int> popularity(kTenants);
  std::iota(popularity.begin(), popularity.end(), 0);
  cerl::Rng perm_rng(rc.seed ^ 0x9090ull);
  perm_rng.Shuffle(&popularity);
  const ZipfPicker picker(kTenants, 1.0);
  const QueryPlan plan = in.Plan(
      [&](cerl::Rng* rng) { return popularity[picker.Pick(rng)]; });
  out->notes.push_back(
      Fmt("ingest_skewed: %g tenants, %g open-loop domains each, ", kTenants,
          per_tenant) +
      Fmt("offered %g domains/s over %.0f ms, reader %g queries/s", kRateDps,
          horizon_ms, kReaderQps));

  std::unique_ptr<cs::StreamEngine> engine;
  std::string dir;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    dir = rc.tmp_dir + "/ingest-" + std::to_string(rep);
    ScopedSpan span(rc.tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    engine = SetUpEngine(dir, kMaxResident, in, &c, out);
    c.setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }

  // Timed phase: driver (this thread), reader, snapshotter.
  P2qTracker tracker(kTenants, rc.tracer);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [start](double ms) {
    return start + std::chrono::nanoseconds(static_cast<int64_t>(ms * 1e6));
  };
  std::thread reader([&] {
    RunOpenLoopReader(engine.get(), plan, start, horizon_ms, kReaderQps,
                      rc.seed ^ 0x4ead4ull, rc.tracer, &c.reader);
  });
  std::vector<double> fence_serialize_ms;
  int snapshot_failures = 0;
  std::thread snapshotter([&] {
    const double last_fence_ms = (bursts - kTailSlots) * slot_ms;
    for (int k = 1; last_fence_ms > 0.0; ++k) {
      const double fence_ms = std::min(k * kFencePeriodMs, last_fence_ms);
      std::this_thread::sleep_until(at(fence_ms));
      cs::StreamEngine::SnapshotInfo info;
      ScopedSpan span(rc.tracer, "stream.snapshot_fence");
      const Clock::time_point t0 = Clock::now();
      const cerl::Status st = engine->SaveSnapshot(dir + "/engine.snap", &info);
      c.snapshot_ms.push_back(MsBetween(t0, Clock::now()));
      fence_serialize_ms.push_back(info.serialize_ms);
      if (!st.ok()) ++snapshot_failures;
      if (fence_ms >= last_fence_ms) break;
    }
  });

  PrioritizeLoadThread();
  const double cpu0 = ProcessCpuMs();
  const auto poll_interval = std::chrono::microseconds(500);
  for (size_t next = 0; next < schedule.size();) {
    for (; next < schedule.size() && at(schedule[next].due_ms) <= Clock::now();
         ++next) {
      const Arrival& a = schedule[next];
      PushTimed(engine.get(), rc, a.tenant, a.domain + 2,
                std::move(in.domains[a.tenant][a.domain + 1]),
                at(a.due_ms), &tracker, &c, out);
    }
    tracker.Poll(*engine);
    Clock::time_point wake = Clock::now() + poll_interval;
    if (next < schedule.size()) {
      wake = std::min(wake, at(schedule[next].due_ms));
    }
    std::this_thread::sleep_until(wake);
  }
  const bool drained = tracker.PollUntilDone(*engine, 0.5, kDrainTimeoutMs);
  out->Check(drained, "open-loop backlog never drained");
  reader.join();
  snapshotter.join();
  engine->Drain();
  c.cpu_ms = ProcessCpuMs() - cpu0;
  c.cpu_domains = static_cast<double>(schedule.size());
  out->Check(snapshot_failures == 0, "a periodic SaveSnapshot failed");
  out->notes.push_back(
      Fmt("snapshots: %g fences, median %.3f ms (serialize %.3f ms)",
          static_cast<double>(fence_serialize_ms.size()),
          Median(c.snapshot_ms), Median(fence_serialize_ms)));
  CheckCrashAndFinish(rc, std::move(engine), dir, kMaxResident,
                      kRecoverCycles, tracker,
                      static_cast<double>(schedule.size()), shape.epochs, in,
                      &c, out);
}

// --- query_hot -------------------------------------------------------------

namespace hot {
constexpr int kTenants = 64;
constexpr int kHotTenants = 8;
constexpr double kHotShare = 0.9;
constexpr int kSetupUnits = 256;
constexpr int kTrickleUnits = 64;
constexpr double kTrickleRate = 20.0;  ///< one small domain every ~50 ms
/// Covariate shift of every trickle domain against the set-up domain. One
/// fixed step, not a cumulative drift: a tenant's domain count is random,
/// and PEHE would follow it.
constexpr double kTrickleShift = 0.3;
constexpr int kRecoverCycles = 3;
}  // namespace hot

void RunQueryHot(const RunContext& rc, RunOutput* out) {
  using namespace hot;
  Collected c;
  // Wider nets than ingest_skewed: ~40 KB of weights per tenant, so the 64
  // tenants' weights together exceed a 2 MiB L2.
  TenantShape shape;
  shape.rep_hidden = {80};
  shape.head_hidden = {64};
  const double horizon_ms = rc.seconds * 1000.0;
  const std::vector<double> trickle_ms =
      PoissonTimes(rc.seed ^ 0x7c1e7ull, kTrickleRate, horizon_ms);
  std::vector<int> trickle_tenant(trickle_ms.size());
  std::vector<int> domains_of(kTenants, 1);
  {
    cerl::Rng rng(rc.seed ^ 0x71c4ull);
    for (size_t i = 0; i < trickle_ms.size(); ++i) {
      trickle_tenant[i] = static_cast<int>(rng.UniformInt(kTenants));
      ++domains_of[trickle_tenant[i]];
    }
  }
  Inputs in;
  cerl::Rng base(rc.seed);
  for (int t = 0; t < kTenants; ++t) {
    cerl::Rng rng = base.Split();
    in.domains.emplace_back();
    for (int d = 0; d < domains_of[t]; ++d) {
      in.domains[t].push_back(
          MakeDomain(&rng, d == 0 ? kSetupUnits : kTrickleUnits,
                     d == 0 ? 0.0 : kTrickleShift));
    }
    in.configs.push_back(TenantConfig(shape, rc.seed * 1000003ull + t));
  }
  in.Keep(SampleTenants(kTenants, rc.trace, 12), &c);
  const QueryPlan plan = in.Plan([](cerl::Rng* rng) {
    if (rng->Uniform() < kHotShare) {
      return static_cast<int>(rng->UniformInt(kHotTenants));
    }
    return kHotTenants +
           static_cast<int>(rng->UniformInt(kTenants - kHotTenants));
  });

  std::unique_ptr<cs::StreamEngine> engine;
  std::string dir;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    dir = rc.tmp_dir + "/hot-" + std::to_string(rep);
    ScopedSpan span(rc.tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    engine = SetUpEngine(dir, 0, in, &c, out);
    c.setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  {
    const auto snap = engine->effect_snapshot(0);
    double doubles = 0.0;
    for (const auto* layers : {&snap->rep, &snap->head0, &snap->head1}) {
      for (const auto& l : *layers) {
        doubles += static_cast<double>(l.weight.size() + l.bias.size());
      }
    }
    out->notes.push_back(Fmt(
        "query_hot: %g tenants, %.1f KiB of weights each, ", kTenants,
        doubles * 8.0 / 1024.0) +
        Fmt("%g%% of queries on %g hot tenants", 100.0 * kHotShare,
            kHotTenants));
  }

  P2qTracker tracker(kTenants, rc.tracer);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    RunClosedLoopReader(engine.get(), plan, stop, rc.seed ^ 0x4ead4ull,
                        rc.tracer, &c.reader);
  });
  PrioritizeLoadThread();
  const double cpu0 = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  std::vector<int> next_domain(kTenants, 1);
  const auto poll_interval = std::chrono::microseconds(500);
  for (size_t i = 0; i < trickle_ms.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::nanoseconds(
                    static_cast<int64_t>(trickle_ms[i] * 1e6));
    while (Clock::now() + poll_interval < due) {
      tracker.Poll(*engine);
      std::this_thread::sleep_for(poll_interval);
    }
    std::this_thread::sleep_until(due);
    const int t = trickle_tenant[i];
    const int d = next_domain[t]++;
    PushTimed(engine.get(), rc, t, d + 1, std::move(in.domains[t][d]), due,
              &tracker, &c, out);
  }
  std::this_thread::sleep_until(
      start + std::chrono::nanoseconds(static_cast<int64_t>(horizon_ms * 1e6)));
  stop.store(true);
  reader.join();
  const bool drained = tracker.PollUntilDone(*engine, 0.5, kDrainTimeoutMs);
  out->Check(drained, "trickle domains never became queryable");
  engine->Drain();
  c.cpu_ms = ProcessCpuMs() - cpu0;
  c.cpu_domains = static_cast<double>(trickle_ms.size());
  CheckCrashAndFinish(rc, std::move(engine), dir, 0, kRecoverCycles, tracker,
                      static_cast<double>(trickle_ms.size()), shape.epochs,
                      in, &c, out);
}

// --- restart_recover -------------------------------------------------------

namespace restart {
constexpr int kTenants = 1000;
constexpr int kMinUnits = 48;
constexpr int kMaxUnits = 144;
constexpr int kMaxResident = 64;
constexpr int kMinCycles = 3;
}  // namespace restart

void RunRestartRecover(const RunContext& rc, RunOutput* out) {
  using namespace restart;
  Collected c;
  TenantShape shape;
  shape.head_hidden = {16};
  shape.memory_capacity = 60;

  // Half the tenants (seeded) get a one-domain WAL tail after the snapshot.
  std::vector<int> tail_tenants(kTenants);
  std::iota(tail_tenants.begin(), tail_tenants.end(), 0);
  {
    cerl::Rng rng(rc.seed ^ 0x7a11ull);
    rng.Shuffle(&tail_tenants);
    tail_tenants.resize(kTenants / 2);
    std::sort(tail_tenants.begin(), tail_tenants.end());
  }
  std::vector<char> has_tail(kTenants, 0);
  for (int t : tail_tenants) has_tail[t] = 1;
  Inputs in;
  cerl::Rng base(rc.seed);
  for (int t = 0; t < kTenants; ++t) {
    cerl::Rng rng = base.Split();
    const int units =
        kMinUnits + static_cast<int>(rng.UniformInt(kMaxUnits - kMinUnits + 1));
    in.domains.emplace_back();
    for (int d = 0; d < (has_tail[t] ? 2 : 1); ++d) {
      in.domains[t].push_back(MakeDomain(&rng, units, 0.3 * d));
    }
    in.configs.push_back(TenantConfig(shape, rc.seed * 1000003ull + t));
  }
  // Replay tenants come from the tail set (their tail is what p2q sees).
  std::vector<int> replay;
  for (int i :
       SampleTenants(static_cast<int>(tail_tenants.size()), rc.trace, 16)) {
    replay.push_back(tail_tenants[i]);
  }
  in.Keep(replay, &c);
  const QueryPlan plan = in.Plan([](cerl::Rng* rng) {
    return static_cast<int>(rng->UniformInt(kTenants));
  });
  out->notes.push_back(Fmt(
      "restart_recover: %g tenants, %g with a one-domain WAL tail, ",
      kTenants, static_cast<double>(tail_tenants.size())) +
      Fmt("resident budget %g", kMaxResident));

  // Set-up: train, snapshot, push the tail, let it train, crash.
  CrashImage image;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string dir = rc.tmp_dir + "/restart-" + std::to_string(rep);
    ScopedSpan span(rc.tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<cs::StreamEngine> engine =
        SetUpEngine(dir, kMaxResident, in, &c, out);
    for (int t : tail_tenants) {
      const Clock::time_point p0 = Clock::now();
      ++out->attempted;
      if (!engine->PushDomain(t, in.domains[t][1]).ok()) ++out->failed;
      c.push_us.push_back(MsBetween(p0, Clock::now()) * 1000.0);
    }
    engine->Drain();
    if (rep == kSetupRepeats - 1) {
      image = {dir + "/engine.snap", dir + "/engine.wal", kMaxResident,
               ReadFingerprints(*engine)};
      c.epochs_run_frac = EpochsRunFrac(*engine, shape.epochs);
      out->failed += DroppedDomains(*engine);
    }
    engine.reset();
    c.setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  ReplayAndCheck(rc, image.final_state, &c, out);

  const double cpu0 = ProcessCpuMs();
  RunRecoverCycles(
      rc, image, kMinCycles, rc.seconds, &plan, &c.reader,
      [&](cs::StreamEngine* e) { c.pehe = in.Pehe(e); }, &c.recover, out);
  c.cpu_ms = ProcessCpuMs() - cpu0;
  c.cpu_domains =
      static_cast<double>(c.recover.tail_domains) * c.recover.cycles;
  c.p2q_obs = c.recover.observations;
  c.backlog_max = c.recover.max_outstanding;
  c.multi_complete = c.recover.multi_complete;
  c.cost_model_mape = c.recover.sched.cost_model_error;
  c.steals = c.recover.steals;
  c.fault_backs = static_cast<double>(c.recover.storage.fault_backs);
  c.pool_hits = static_cast<double>(c.recover.storage.pool_hits);
  c.pool_misses = static_cast<double>(c.recover.storage.pool_misses);
  c.storage_domains = static_cast<double>(c.recover.tail_domains);
  Finish(rc, &c, out);
}

}  // namespace

const std::vector<MetricInfo>& EndToEndMetrics() { return kEndToEnd; }
const std::vector<MetricInfo>& PerLayerMetrics() { return kPerLayer; }

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "ingest_skewed", "query_hot", "restart_recover"};
  return names;
}

void RunWorkload(const RunContext& rc, RunOutput* out) {
  if (rc.workload == "ingest_skewed") {
    RunIngestSkewed(rc, out);
  } else if (rc.workload == "query_hot") {
    RunQueryHot(rc, out);
  } else if (rc.workload == "restart_recover") {
    RunRestartRecover(rc, out);
  } else {
    out->Check(false, "unknown workload " + rc.workload);
  }
}

}  // namespace perfbench
