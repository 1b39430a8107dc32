// Tests for StreamEngine::SaveSnapshot / LoadSnapshot: multi-stream
// snapshots taken UNDER LOAD without pausing the engine (domains still
// queued or training), bitwise continuation after snapshot + WAL recovery,
// fresh-engine preconditions, and all-or-nothing restore on bad input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "stream/stream_engine.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cerl::stream {
namespace {

using core::CerlConfig;
using core::CerlTrainer;
using data::CausalDataset;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;

constexpr int kFeatures = 8;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

CausalDataset ShiftedToy(Rng* rng, int n, double shift) {
  CausalDataset d;
  d.x = Matrix(n, kFeatures);
  d.t.resize(n);
  d.y.resize(n);
  d.mu0.resize(n);
  d.mu1.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < kFeatures; ++j) d.x(i, j) = rng->Normal(shift, 1.0);
    const double tau = 1.0 + std::sin(d.x(i, 0));
    d.mu0[i] = std::sin(d.x(i, 1)) + std::cos(d.x(i, 2));
    d.mu1[i] = d.mu0[i] + tau;
    const double prop =
        1.0 / (1.0 + std::exp(-(0.7 * d.x(i, 0) + 0.7 * d.x(i, 3) -
                                1.4 * shift)));
    d.t[i] = rng->Uniform() < prop ? 1 : 0;
    d.y[i] = (d.t[i] == 1 ? d.mu1[i] : d.mu0[i]) + rng->Normal(0, 0.1);
  }
  return d;
}

std::vector<DataSplit> MakeStream(uint64_t seed, int domains, double shift) {
  Rng rng(seed);
  std::vector<DataSplit> stream;
  for (int d = 0; d < domains; ++d) {
    stream.push_back(
        data::SplitDataset(ShiftedToy(&rng, 300, shift * d), &rng));
  }
  return stream;
}

CerlConfig FastConfig(uint64_t seed) {
  CerlConfig c;
  c.net.rep_hidden = {16};
  c.net.rep_dim = 8;
  c.net.head_hidden = {8};
  c.train.epochs = 12;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 12;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 80;
  return c;
}

void ExpectTrainersBitIdentical(CerlTrainer* a, CerlTrainer* b,
                                const Matrix& probe, const std::string& tag) {
  ASSERT_EQ(a->stages_seen(), b->stages_seen()) << tag;
  const Vector ia = a->PredictIte(probe);
  const Vector ib = b->PredictIte(probe);
  ASSERT_EQ(ia.size(), ib.size()) << tag;
  for (size_t i = 0; i < ia.size(); ++i) {
    ASSERT_EQ(ia[i], ib[i]) << tag << " unit " << i;
  }
  ASSERT_EQ(a->memory().size(), b->memory().size()) << tag;
  EXPECT_EQ(Matrix::MaxAbsDiff(a->memory().reps(), b->memory().reps()), 0.0)
      << tag;
  EXPECT_EQ(a->memory().y(), b->memory().y()) << tag;
  EXPECT_EQ(a->memory().t(), b->memory().t()) << tag;
}

// The acceptance scenario: a WAL-attached 4-stream engine is snapshotted
// WHILE domains are still queued or training, recovered into a fresh engine
// from the snapshot plus the WAL, and the continuation — WAL replay plus
// one extra pushed domain per stream — must be bitwise identical to the
// uninterrupted run.
TEST(EngineCheckpointTest, FourStreamSnapshotUnderLoadContinuesBitIdentical) {
  const int kStreams = 4;
  const int kSnapshotDomains = 4;  // pushed before the snapshot
  const int kExtraDomains = 1;     // pushed after the restore
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    configs.push_back(FastConfig(900 + 31 * s));
    domains.push_back(MakeStream(40 + s, kSnapshotDomains + kExtraDomains,
                                 0.4 + 0.3 * s));
  }

  // Uninterrupted reference: all domains through one engine.
  StreamEngineOptions options;
  options.num_workers = 4;
  StreamEngine reference(options);
  std::vector<int> ref_ids;
  for (int s = 0; s < kStreams; ++s) {
    ref_ids.push_back(reference.AddStream("tenant-" + std::to_string(s),
                                          configs[s], kFeatures));
    for (const DataSplit& split : domains[s]) {
      reference.PushDomain(ref_ids[s], split);
    }
  }
  reference.Drain();

  // Snapshotted run: push the first kSnapshotDomains of every stream, then
  // snapshot immediately — training a domain takes far longer than the
  // capture, so most of the pushed domains must still be pending in it.
  const std::string path = TempPath("engine_underload.snap");
  StreamEngineOptions wal_options = options;
  wal_options.wal_path = TempPath("engine_underload.wal");
  StreamEngine::SnapshotInfo info;
  {
    StreamEngine original(wal_options);
    ASSERT_TRUE(original.OpenStorage().ok());
    std::vector<int> ids;
    for (int s = 0; s < kStreams; ++s) {
      ids.push_back(original.AddStream("tenant-" + std::to_string(s),
                                       configs[s], kFeatures));
      for (int d = 0; d < kSnapshotDomains; ++d) {
        original.PushDomain(ids[s], domains[s][d]);
      }
    }
    ASSERT_TRUE(original.SaveSnapshot(path, &info).ok());
    // The WAL-replay path must be exercised: work must still have been
    // pending at the capture.
    ASSERT_GT(info.pending_domains, 0);
    EXPECT_EQ(info.num_streams, kStreams);
    EXPECT_EQ(info.completed_domains + info.pending_domains,
              kStreams * kSnapshotDomains);
    // The original engine keeps serving after the snapshot.
    original.Drain();
  }

  // Recover into a fresh engine ("new process"), let the WAL replay, push
  // the remaining domains, and compare against the reference.
  StreamEngine restored(wal_options);
  ASSERT_TRUE(restored.Recover(path).ok());
  ASSERT_EQ(restored.num_streams(), kStreams);
  for (int s = 0; s < kStreams; ++s) {
    EXPECT_EQ(restored.name(s), "tenant-" + std::to_string(s));
    for (int d = kSnapshotDomains; d < kSnapshotDomains + kExtraDomains;
         ++d) {
      restored.PushDomain(s, domains[s][d]);
    }
  }
  restored.Drain();
  for (int s = 0; s < kStreams; ++s) {
    ExpectTrainersBitIdentical(&reference.trainer(ref_ids[s]),
                               &restored.trainer(s), domains[s][0].test.x,
                               "stream " + std::to_string(s));
    // Domain indices continue across the restart: the replayed and newly
    // pushed domains carry their original positions.
    const std::vector<DomainResult>& results = restored.results(s);
    ASSERT_FALSE(results.empty());
    EXPECT_EQ(results.back().domain_index,
              kSnapshotDomains + kExtraDomains - 1);
  }
}

TEST(EngineCheckpointTest, DrainedSnapshotRoundTripsAndKeepsServing) {
  const CerlConfig config = FastConfig(77);
  const std::vector<DataSplit> domains = MakeStream(50, 3, 0.8);
  StreamEngineOptions options;
  options.num_workers = 2;

  StreamEngine original(options);
  const int id = original.AddStream("drained", config, kFeatures);
  original.PushDomain(id, domains[0]);
  original.PushDomain(id, domains[1]);
  original.Drain();

  const std::string path = ::testing::TempDir() + "/engine_drained.snap";
  StreamEngine::SnapshotInfo info;
  ASSERT_TRUE(original.SaveSnapshot(path, &info).ok());
  EXPECT_EQ(info.pending_domains, 0);
  EXPECT_EQ(info.completed_domains, 2);

  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  restored.Drain();  // nothing is queued after a restore: immediately idle
  ExpectTrainersBitIdentical(&original.trainer(id), &restored.trainer(0),
                             domains[0].test.x, "drained");

  // Both engines absorb the next domain identically.
  original.PushDomain(id, domains[2]);
  restored.PushDomain(0, domains[2]);
  original.Drain();
  restored.Drain();
  ExpectTrainersBitIdentical(&original.trainer(id), &restored.trainer(0),
                             domains[0].test.x, "drained+1");
}

TEST(EngineCheckpointTest, SnapshotOfEngineWithUntrainedStream) {
  // A registered stream with zero observed domains has no trainer blob yet;
  // the snapshot must carry it (name + config) and restore it functional.
  const CerlConfig config = FastConfig(88);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine original(options);
  original.AddStream("empty", config, kFeatures);
  const std::string path = ::testing::TempDir() + "/engine_empty.snap";
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  ASSERT_EQ(restored.num_streams(), 1);
  EXPECT_EQ(restored.name(0), "empty");
  EXPECT_EQ(restored.trainer(0).stages_seen(), 0);

  const std::vector<DataSplit> domains = MakeStream(51, 1, 0.0);
  restored.PushDomain(0, domains[0]);
  restored.Drain();
  EXPECT_EQ(restored.trainer(0).stages_seen(), 1);
}

TEST(EngineCheckpointTest, LoadRequiresFreshEngine) {
  const CerlConfig config = FastConfig(99);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine original(options);
  original.AddStream("a", config, kFeatures);
  const std::string path = ::testing::TempDir() + "/engine_fresh.snap";
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  StreamEngine busy(options);
  busy.AddStream("existing", config, kFeatures);
  Status s = busy.LoadSnapshot(path);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(busy.num_streams(), 1);  // untouched
}

TEST(EngineCheckpointTest, MissingSnapshotFileIsCleanError) {
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  Status s = engine.LoadSnapshot("/nonexistent/engine.snap");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(engine.num_streams(), 0);
}

TEST(EngineCheckpointTest, HealthStateRoundTripsThroughSnapshot) {
  // A quarantined stream must restore quarantined (still rejecting pushes),
  // and its failure counters must survive the snapshot round trip.
  const CerlConfig config = FastConfig(121);
  StreamEngineOptions options;
  options.num_workers = 2;
  options.quarantine_after_failures = 2;
  StreamEngine original(options);
  const int sick = original.AddStream("sick", config, kFeatures);
  const int fine = original.AddStream("fine", config, kFeatures);

  Rng rng(7);
  DataSplit good = data::SplitDataset(ShiftedToy(&rng, 200, 0.0), &rng);
  DataSplit bad = good;
  bad.train.x(0, 0) = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(original.PushDomain(sick, bad).ok());
  ASSERT_TRUE(original.PushDomain(sick, bad).ok());
  ASSERT_TRUE(original.PushDomain(fine, good).ok());
  original.Drain();
  ASSERT_EQ(original.health(sick), StreamHealth::kQuarantined);
  ASSERT_EQ(original.health(fine), StreamHealth::kHealthy);

  const std::string path = ::testing::TempDir() + "/engine_health.snap";
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  restored.Drain();
  EXPECT_EQ(restored.health(0), StreamHealth::kQuarantined);
  EXPECT_EQ(restored.consecutive_failures(0), 2);
  EXPECT_EQ(restored.failed_domains(0), 2);
  EXPECT_EQ(restored.health(1), StreamHealth::kHealthy);
  EXPECT_EQ(restored.failed_domains(1), 0);
  // Quarantine is enforced, not just reported, after restore.
  EXPECT_EQ(restored.PushDomain(0, good).code(), StatusCode::kUnavailable);
  // The healthy stream keeps serving.
  ASSERT_TRUE(restored.PushDomain(1, good).ok());
  restored.Drain();
  EXPECT_EQ(restored.results(1).size(), 1u);
}

TEST(EngineCheckpointTest, SaveSnapshotRetriesTransientIoFailure) {
  const CerlConfig config = FastConfig(131);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  engine.AddStream("retry", config, kFeatures);

  // Two injected write failures, then the third attempt lands (SaveSnapshot
  // retries a failed write three times).
  FaultInjector::Global().Arm(FaultPoint::kIoWrite, /*scope=*/"",
                              /*probability=*/1.0, /*max_fires=*/2,
                              /*seed=*/1);
  const std::string path = ::testing::TempDir() + "/engine_retry.snap";
  Status saved = engine.SaveSnapshot(path);
  const int fires = FaultInjector::Global().fires(FaultPoint::kIoWrite);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_EQ(fires, 2);  // both injected failures were consumed by retries

  StreamEngine restored(options);
  EXPECT_TRUE(restored.LoadSnapshot(path).ok());
  EXPECT_EQ(restored.num_streams(), 1);

  // With a budget exceeding the retry allowance the save surfaces IoError.
  FaultInjector::Global().Arm(FaultPoint::kIoWrite, "", 1.0,
                              /*max_fires=*/0, /*seed=*/1);
  Status exhausted = engine.SaveSnapshot(path);
  FaultInjector::Global().Reset();
  EXPECT_EQ(exhausted.code(), StatusCode::kIoError);
}

// The container embeds each stream's last-good capture, taken by the finish
// task at its domain boundary: every restored trainer re-serializes to
// exactly the live drained trainer's bytes, and an untrained stream
// carries no blob.
TEST(EngineCheckpointTest, SnapshotEmbedsLastGoodCaptures) {
  const int kStreams = 3;
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    domains.push_back(MakeStream(60 + s, 1, 0.5));
    engine.AddStream("tenant-" + std::to_string(s), FastConfig(700 + 13 * s),
                     kFeatures);
  }
  engine.AddStream("untrained", FastConfig(999), kFeatures);
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.PushDomain(s, domains[s][0]).ok());
  }
  engine.Drain();

  const std::string path = ::testing::TempDir() + "/engine_reuse.snap";
  StreamEngine::SnapshotInfo info;
  ASSERT_TRUE(engine.SaveSnapshot(path, &info).ok());
  EXPECT_EQ(info.num_streams, kStreams + 1);
  EXPECT_EQ(info.completed_domains, kStreams);
  EXPECT_EQ(info.pending_domains, 0);
  EXPECT_GE(info.serialize_ms, 0.0);

  StreamEngine restored(options);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  for (int s = 0; s < kStreams; ++s) {
    std::string live, back;
    ASSERT_TRUE(engine.trainer(s).SerializeCheckpoint(&live).ok());
    ASSERT_TRUE(restored.trainer(s).SerializeCheckpoint(&back).ok());
    EXPECT_EQ(live, back) << "stream " << s;
  }
  EXPECT_EQ(restored.trainer(kStreams).stages_seen(), 0);
}

// A snapshot neither pauses dispatch nor waits for the in-flight domain: it
// captures the consumed state and returns while the domain still trains.
// The WAL holds the pending domain, and snapshot + WAL recover the live
// trainer byte for byte.
TEST(EngineCheckpointTest, SnapshotDoesNotWaitForInFlightDomain) {
  CerlConfig config = FastConfig(141);
  config.train.epochs = 40;
  config.train.patience = 40;
  const std::vector<DataSplit> small = MakeStream(53, 1, 0.0);
  Rng rng(54);
  // Domain 1 is large and long-trained: it takes well over 200 ms, far
  // longer than a capture, a file write and a WAL compaction.
  const DataSplit slow = data::SplitDataset(ShiftedToy(&rng, 2000, 0.5), &rng);
  StreamEngineOptions options;
  options.num_workers = 2;
  options.wal_path = TempPath("engine_nowait.wal");
  const std::string path = TempPath("engine_nowait.snap");

  StreamEngine live(options);
  ASSERT_TRUE(live.OpenStorage().ok());
  const int id = live.AddStream("nowait", config, kFeatures);
  ASSERT_TRUE(live.PushDomain(id, small[0]).ok());
  live.Drain();
  ASSERT_TRUE(live.PushDomain(id, slow).ok());
  StreamEngine::SnapshotInfo info;
  ASSERT_TRUE(live.SaveSnapshot(path, &info).ok());
  EXPECT_EQ(info.completed_domains, 1);
  EXPECT_EQ(info.pending_domains, 1);
  EXPECT_EQ(live.sched_stats(id).queue_depth, 1)
      << "SaveSnapshot waited for the in-flight domain";
  live.Drain();

  // The live engine keeps its WAL open: recover from a copy, as a restarted
  // process would find it on disk.
  const std::string wal_copy = TempPath("engine_nowait_copy.wal");
  Result<std::string> wal_bytes = ReadFileToString(options.wal_path);
  ASSERT_TRUE(wal_bytes.ok()) << wal_bytes.status().ToString();
  ASSERT_TRUE(WriteFileAtomic(wal_copy, wal_bytes.value()).ok());
  StreamEngineOptions recover_options = options;
  recover_options.wal_path = wal_copy;
  StreamEngine recovered(recover_options);
  ASSERT_TRUE(recovered.Recover(path).ok());
  recovered.Drain();
  std::string want, got;
  ASSERT_TRUE(live.trainer(id).SerializeCheckpoint(&want).ok());
  ASSERT_TRUE(recovered.trainer(0).SerializeCheckpoint(&got).ok());
  EXPECT_EQ(recovered.trainer(0).stages_seen(), 2);
  EXPECT_TRUE(want == got) << "recovered trainer differs from the live one";
}

TEST(EngineCheckpointTest, SnapshotWriteIsAtomic) {
  // A snapshot over an existing file must never leave a torn file: the temp
  // is renamed into place, so the destination always parses.
  const CerlConfig config = FastConfig(111);
  const std::vector<DataSplit> domains = MakeStream(52, 1, 0.0);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("atomic", config, kFeatures);
  engine.PushDomain(id, domains[0]);
  engine.Drain();

  const std::string path = ::testing::TempDir() + "/engine_atomic.snap";
  {
    std::ofstream prev(path, std::ios::binary);
    prev << "previous generation checkpoint";
  }
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());  // no temp file left behind

  StreamEngine restored(options);
  EXPECT_TRUE(restored.LoadSnapshot(path).ok());
  EXPECT_EQ(restored.num_streams(), 1);
}

}  // namespace
}  // namespace cerl::stream
