// Engine-facing pieces shared by the three workloads: input generation,
// tenant configs, the push-to-queryable poller, query readers, PEHE
// readout, the crash/recover cycle, the serial CerlTrainer replay, and the
// single-layer probes of the traced run. Everything talks to the engine
// through the public headers of src/ only.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "serve/effect_snapshot.h"
#include "stream/stream_engine.h"

namespace perfbench {

/// Covariates per unit, every workload.
constexpr int kFeatures = 16;
/// Stream workers of every engine the benchmark builds (never 0, so the
/// worker count does not follow the host's core count).
constexpr int kWorkers = 2;

/// One run's settings, from the command line.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;  ///< per-run scratch (WAL, page store, snapshots)
  Tracer* tracer = nullptr;  ///< non-null only in the traced run
};

/// Metric name -> value; units and print order come from the catalogue
/// (workloads.h).
using MetricSet = std::map<std::string, double>;

/// What a workload hands back to main.
struct RunOutput {
  MetricSet end_to_end;
  MetricSet per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty = correct
  std::vector<std::string> notes;           ///< printed before the result

  void Check(bool ok, const std::string& what);
};

// --- Inputs ----------------------------------------------------------------

/// Network and training shape of a workload's tenants.
struct TenantShape {
  std::vector<int> rep_hidden = {32};
  int rep_dim = 16;
  std::vector<int> head_hidden = {32};
  int epochs = 10;
  int patience = 3;
  int batch_size = 32;
  int memory_capacity = 100;
};

cerl::core::CerlConfig TenantConfig(const TenantShape& shape, uint64_t seed);

/// A confounded domain with a heterogeneous treatment effect. `shift` moves
/// the covariate distribution (domain drift between a tenant's domains).
cerl::data::DataSplit MakeDomain(cerl::Rng* rng, int units, double shift);

/// Engine options shared by all workloads: kWorkers stream workers, WAL
/// without fsync under `dir`, and a page store under `dir` when
/// `max_resident` > 0.
cerl::stream::StreamEngineOptions EngineOptions(const std::string& dir,
                                                int max_resident);

/// Creates `path` (and parents). Returns false on failure.
bool MakeDirs(const std::string& path);

// --- Push-to-queryable -----------------------------------------------------

/// Tracks domains from their scheduled arrival until the benchmark first sees
/// a published snapshot whose stage includes them (effect_snapshot polling).
class P2qTracker {
 public:
  struct Observation {
    int tenant = 0;
    int stage = 0;  ///< the snapshot stage that includes the domain
    double p2q_ms = 0.0;
  };

  P2qTracker(int tenants, Tracer* tracer);

  /// The domain becomes queryable once tenant's snapshot stage >= `stage`.
  void Expect(int tenant, int stage, Clock::time_point due,
              uint64_t request = 0);
  /// Polls every tenant with outstanding domains; returns the number seen.
  int Poll(const cerl::stream::StreamEngine& engine);
  /// Polls every `interval_ms` until nothing is outstanding or the deadline
  /// passes; false on timeout.
  bool PollUntilDone(const cerl::stream::StreamEngine& engine,
                     double interval_ms, double timeout_ms);

  int64_t outstanding() const { return outstanding_; }
  int64_t max_outstanding() const { return max_outstanding_; }
  /// Observations that shared their poll with an earlier domain of the
  /// same tenant (two or more domains completed between two polls).
  int64_t multi_complete() const { return multi_complete_; }
  Clock::time_point last_seen() const { return last_seen_; }
  const std::vector<Observation>& observations() const { return obs_; }

 private:
  struct Pending {
    int stage;
    Clock::time_point due;
    uint64_t request;
  };
  Tracer* tracer_;
  std::vector<std::deque<Pending>> pending_;
  std::vector<int> active_;  ///< tenants with a non-empty pending queue
  std::vector<char> is_active_;
  int64_t outstanding_ = 0;
  int64_t max_outstanding_ = 0;
  int64_t multi_complete_ = 0;
  Clock::time_point last_seen_{};
  std::vector<Observation> obs_;
};

// --- Query readers ---------------------------------------------------------

/// Which tenant and which covariate row a reader asks about next.
struct QueryPlan {
  std::function<int(cerl::Rng*)> pick_tenant;
  /// rows[t]: covariate rows of tenant t the reader draws from.
  std::vector<const cerl::linalg::Matrix*> rows;
};

struct ReaderStats {
  std::vector<double> latency_us;  ///< pooled sample of per-query latencies
  /// Per 1 s window with a supported p99: the window's median and p99. The
  /// reported query latencies are medians over windows, so one slow
  /// stretch of a shared host moves one window, not the run's figure.
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> late_ms;     ///< open loop: call start minus due time
  int64_t queries = 0;
  int64_t failed = 0;
  int64_t version_reloads = 0;  ///< answers from a newer snapshot version
  double elapsed_s = 0.0;
};

/// Open loop: single-row queries at Poisson times (`rate_per_s`) over
/// [start, start + horizon_ms). Each query's latency is timed around the
/// QueryEffect call and its start is timed against its due time (late_ms),
/// so a stalled reader shows as lateness instead of hiding behind
/// coordinated omission. Timing latency from the due time instead would
/// fold the host's stalls into the query tail: on a 4-vCPU VM, ~12 ms
/// hypervisor steal episodes covering ~1% of wall time made such a p99
/// swing 10x between identical runs.
void RunOpenLoopReader(cerl::stream::StreamEngine* engine,
                       const QueryPlan& plan, Clock::time_point start,
                       double horizon_ms, double rate_per_s, uint64_t seed,
                       Tracer* tracer, ReaderStats* out);

/// Closed loop: back-to-back single-row queries until `stop` is set.
void RunClosedLoopReader(cerl::stream::StreamEngine* engine,
                         const QueryPlan& plan,
                         const std::atomic<bool>& stop, uint64_t seed,
                         Tracer* tracer, ReaderStats* out);

// --- Quality ---------------------------------------------------------------

struct PeheResult {
  double pehe_old = 0.0;  ///< mean sqrt(PEHE) on each tenant's first domain
  double pehe_new = 0.0;  ///< ... and on its last domain
  int64_t queries = 0;
  int64_t failed = 0;
};

/// Answers every tenant's first and last test split through
/// QueryEffectBatch and scores it against mu1 - mu0.
PeheResult MeasurePehe(cerl::stream::StreamEngine* engine,
                       const std::vector<const cerl::data::CausalDataset*>&
                           first_test,
                       const std::vector<const cerl::data::CausalDataset*>&
                           last_test);

/// Final published fingerprint and stage of every tenant.
struct Fingerprints {
  std::vector<uint64_t> fingerprint;
  std::vector<int> stage;
};
Fingerprints ReadFingerprints(const cerl::stream::StreamEngine& engine);

// --- Serial replay (the reference for correctness and layer timings) ------

struct DomainTimes {
  double validate_ms = 0.0;
  double begin_ms = 0.0;
  double train_ms = 0.0;
  double migrate_ms = 0.0;   ///< MigrateStage + the numerical health scan
  double evaluate_ms = 0.0;  ///< test-split PEHE the engine records
  double serialize_ms = 0.0; ///< last-good checkpoint capture
  double build_snapshot_us = 0.0;
  double train_step_us = 0.0;
  int epochs_run = 0;
  double SerialMs() const {
    return validate_ms + begin_ms + train_ms + migrate_ms + evaluate_ms +
           serialize_ms + build_snapshot_us / 1000.0;
  }
};

struct ReplayResult {
  std::vector<DomainTimes> domains;
  uint64_t fingerprint = 0;
  std::string blob;  ///< final CERLCKP1 checkpoint
  std::shared_ptr<const cerl::serve::EffectSnapshot> snapshot;
  std::string error;  ///< non-empty when a stage failed
};

/// Runs `domains` through one standalone CerlTrainer stage by stage
/// (ValidateDomain / BeginStage / TrainStage / MigrateStage, then the
/// engine's per-domain epilogue: Evaluate, SerializeCheckpoint,
/// BuildEffectSnapshot), timing each call.
ReplayResult SerialReplay(const cerl::core::CerlConfig& config,
                          const std::vector<const cerl::data::DataSplit*>&
                              domains,
                          Tracer* tracer, uint64_t request);

// --- Crash / recover -------------------------------------------------------

/// What survives a crash, plus what the pre-crash engine ended with.
struct CrashImage {
  std::string snapshot_path;
  std::string wal_path;
  int max_resident = 0;
  Fingerprints final_state;  ///< pre-crash, after the tail was trained
};

struct RecoverStats {
  std::vector<double> recover_ms;   ///< Recover() call until all answer
  std::vector<double> catchup_dps;  ///< replayed domains / catch-up time
  /// Replayed domains, timed from the Recover() call.
  std::vector<P2qTracker::Observation> observations;
  int64_t multi_complete = 0;
  int64_t max_outstanding = 0;
  int64_t tail_domains = 0;  ///< per cycle
  int cycles = 0;
  double load_snapshot_ms = 0.0;  ///< standalone LoadSnapshot
  double wal_open_ms = 0.0;       ///< standalone Wal::Open of the crash WAL
  double wal_mb = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  cerl::stream::StreamEngine::StorageStats storage;  ///< last cycle
  cerl::stream::StreamSchedStats sched;               ///< last cycle
  int64_t steals = 0;
};

/// Recovers `image` into fresh engines, cycle after cycle, until at least
/// `min_cycles` ran and `min_seconds` passed. Each cycle: Recover(), probe
/// every tenant with a query, poll until every replayed domain is
/// queryable, drain, and compare every tenant's fingerprint with the
/// pre-crash engine. With a non-null `reader`, a closed-loop reader runs
/// `reader_plan` during every catch-up and accumulates into it.
/// `on_last_cycle` sees the final recovered engine.
void RunRecoverCycles(
    const RunContext& rc, const CrashImage& image, int min_cycles,
    double min_seconds, const QueryPlan* reader_plan, ReaderStats* reader,
    const std::function<void(cerl::stream::StreamEngine*)>& on_last_cycle,
    RecoverStats* stats, RunOutput* out);

// --- Single-layer probes (traced run) -------------------------------------

struct StorageProbe {
  double put_us = 0.0;
  double get_us = 0.0;
  double wal_append_us = 0.0;
};

/// Times TenantStore Put/Get of `blobs` through a BufferPool of the engine's
/// default size, and Wal::Append of records of `wal_payload_bytes`.
StorageProbe ProbeStorage(const std::string& dir,
                          const std::vector<std::string>& blobs,
                          const std::vector<size_t>& wal_payload_bytes,
                          Tracer* tracer);

struct PredictProbe {
  double row_ns = 0.0;
  double batch64_us = 0.0;
};

/// Times BatchPredictor single rows and 64-row batches on each snapshot.
PredictProbe ProbePredict(
    const std::vector<std::shared_ptr<const cerl::serve::EffectSnapshot>>&
        snaps,
    const std::vector<const cerl::linalg::Matrix*>& rows, Tracer* tracer);

/// Approximate WAL record payload of a domain: every number it carries.
size_t DomainPayloadBytes(const cerl::data::DataSplit& split);

// --- Process ---------------------------------------------------------------

/// Nice value of the benchmark's load threads (push driver, reader).
constexpr int kLoadThreadNice = -10;
/// Gives the calling load thread 1 ns timer slack and kLoadThreadNice, so
/// its schedule holds while the engine saturates the cores. Returns false
/// when the nice value could not be set (no privilege).
bool PrioritizeLoadThread();
double ProcessCpuMs();
double PeakRssMb();
/// {"nproc":..,"cpu_model":..,"simd":..} of this host.
std::string HostShapeJson();

}  // namespace perfbench
