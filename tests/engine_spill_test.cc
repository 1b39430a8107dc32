// Spill/fault-back tests for the paged tenant-state storage engine: an
// engine bounded to max_resident_streams < num_streams must train a
// multi-tenant run bit-identically to the all-resident engine, keep serving
// effect queries for spilled tenants, embed spilled blobs in snapshots,
// recover bitwise from snapshots taken while tenants spill and fault back,
// and restart under a budget without restoring a single trainer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "stream/stream_engine.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace cerl::stream {
namespace {

using core::CerlConfig;
using core::CerlTrainer;
using data::CausalDataset;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;

constexpr int kFeatures = 6;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

CausalDataset Toy(Rng* rng, int n, double shift) {
  CausalDataset d;
  d.x = Matrix(n, kFeatures);
  d.t.resize(n);
  d.y.resize(n);
  d.mu0.resize(n);
  d.mu1.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < kFeatures; ++j) d.x(i, j) = rng->Normal(shift, 1.0);
    const double tau = 1.0 + std::sin(d.x(i, 0));
    d.mu0[i] = std::sin(d.x(i, 1));
    d.mu1[i] = d.mu0[i] + tau;
    d.t[i] = rng->Uniform() < 0.5 ? 1 : 0;
    d.y[i] = (d.t[i] == 1 ? d.mu1[i] : d.mu0[i]) + rng->Normal(0, 0.1);
  }
  return d;
}

std::vector<DataSplit> MakeStream(uint64_t seed, int domains, double shift) {
  Rng rng(seed);
  std::vector<DataSplit> stream;
  for (int d = 0; d < domains; ++d) {
    stream.push_back(data::SplitDataset(Toy(&rng, 180, shift * d), &rng));
  }
  return stream;
}

CerlConfig FastConfig(uint64_t seed) {
  CerlConfig c;
  c.net.rep_hidden = {12};
  c.net.rep_dim = 6;
  c.net.head_hidden = {6};
  c.train.epochs = 6;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 6;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 50;
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
}

// The acceptance scenario: 6 tenants bounded to 2 resident, pushed in two
// waves so tenants go cold between waves (spill) and warm up again on the
// next push (fault-back). Every trainer must end bit-identical to the
// unbounded engine's.
TEST(EngineSpillTest, BoundedResidencyIsBitIdenticalToAllResident) {
  const int kStreams = 6;
  const int kWaves = 2;
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    configs.push_back(FastConfig(300 + 17 * s));
    domains.push_back(MakeStream(20 + s, kWaves, 0.3 + 0.2 * s));
  }

  StreamEngineOptions plain;
  plain.num_workers = 3;
  StreamEngine reference(plain);
  for (int s = 0; s < kStreams; ++s) {
    reference.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
  }
  for (int w = 0; w < kWaves; ++w) {
    for (int s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(reference.PushDomain(s, domains[s][w]).ok());
    }
    reference.Drain();
  }

  StreamEngineOptions bounded = plain;
  bounded.storage_path = TempPath("spill_identity.store");
  bounded.max_resident_streams = 2;
  bounded.buffer_pool_frames = 8;
  StreamEngine engine(bounded);
  ASSERT_TRUE(engine.OpenStorage().ok());
  for (int s = 0; s < kStreams; ++s) {
    engine.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
  }
  for (int w = 0; w < kWaves; ++w) {
    for (int s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(engine.PushDomain(s, domains[s][w]).ok());
    }
    engine.Drain();
    // The drained engine respects the residency bound: every stream is
    // idle and trained, so the spiller can always reach the budget.
    const StreamEngine::StorageStats stats = engine.storage_stats();
    EXPECT_LE(stats.resident_streams, bounded.max_resident_streams)
        << "wave " << w;
    EXPECT_EQ(stats.resident_streams + stats.spilled_streams, kStreams);
  }

  const StreamEngine::StorageStats stats = engine.storage_stats();
  EXPECT_GE(stats.spills, kStreams - bounded.max_resident_streams);
  // Wave 2 pushed into spilled tenants: their state faulted back in.
  EXPECT_GE(stats.fault_backs, 1);
  EXPECT_GT(stats.store_blob_bytes, 0u);
  EXPECT_GT(stats.store_pages, 1u);

  // Results were produced for every domain despite the spill traffic.
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_EQ(engine.results(s).size(), static_cast<size_t>(kWaves));
    for (int w = 0; w < kWaves; ++w) {
      EXPECT_TRUE(engine.results(s)[w].status.ok())
          << "stream " << s << " wave " << w << ": "
          << engine.results(s)[w].status.ToString();
    }
  }

  // EnsureResident faults the spilled trainers back for inspection; the
  // restored state is bitwise the unbounded engine's.
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.EnsureResident(s).ok()) << "stream " << s;
    ExpectTrainersBitIdentical(&reference.trainer(s), &engine.trainer(s),
                               domains[s][0].test.x,
                               "stream " + std::to_string(s));
  }
  const StreamEngine::StorageStats after = engine.storage_stats();
  EXPECT_EQ(after.resident_streams, kStreams);
  EXPECT_EQ(after.spilled_streams, 0);
}

// Spilled tenants stay queryable: the published EffectSnapshot is
// independent of the trainer's residency.
TEST(EngineSpillTest, SpilledStreamsKeepServingQueries) {
  const int kStreams = 4;
  StreamEngineOptions options;
  options.num_workers = 2;
  options.storage_path = TempPath("spill_serve.store");
  options.max_resident_streams = 1;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.OpenStorage().ok());
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    domains.push_back(MakeStream(90 + s, 1, 0.4));
    engine.AddStream("tenant-" + std::to_string(s), FastConfig(400 + s),
                     kFeatures);
  }
  QueryContext* ctx = engine.CreateQueryContext();
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.PushDomain(s, domains[s][0]).ok());
  }
  engine.Drain();
  ASSERT_GT(engine.storage_stats().spilled_streams, 0);

  for (int s = 0; s < kStreams; ++s) {
    Vector ite;
    EffectQueryMeta meta;
    const Status answered =
        engine.QueryEffectBatch(ctx, s, domains[s][0].test.x, &ite, &meta);
    ASSERT_TRUE(answered.ok()) << "stream " << s << ": "
                               << answered.ToString();
    EXPECT_EQ(ite.size(), domains[s][0].test.x.rows()) << "stream " << s;
    EXPECT_EQ(meta.snapshot_stage, 1) << "stream " << s;
  }
}

// SaveSnapshot of an engine with spilled tenants embeds their store blobs:
// the snapshot restores into a plain (storage-less) engine bit-identically.
TEST(EngineSpillTest, SnapshotEmbedsSpilledBlobs) {
  const int kStreams = 4;
  StreamEngineOptions options;
  options.num_workers = 2;
  options.storage_path = TempPath("spill_snap.store");
  options.max_resident_streams = 1;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.OpenStorage().ok());
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    domains.push_back(MakeStream(120 + s, 1, 0.5));
    engine.AddStream("tenant-" + std::to_string(s), FastConfig(500 + s),
                     kFeatures);
  }
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.PushDomain(s, domains[s][0]).ok());
  }
  engine.Drain();
  const StreamEngine::StorageStats stats = engine.storage_stats();
  ASSERT_GT(stats.spilled_streams, 0);

  const std::string path = TempPath("spill_snap.snap");
  StreamEngine::SnapshotInfo info;
  ASSERT_TRUE(engine.SaveSnapshot(path, &info).ok());
  // Spilled streams are embedded from page-store reads: the snapshot never
  // faults them back in.
  EXPECT_EQ(info.completed_domains, kStreams);
  EXPECT_EQ(engine.storage_stats().spilled_streams, stats.spilled_streams);

  StreamEngineOptions plain;
  plain.num_workers = 2;
  StreamEngine restored(plain);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  restored.Drain();
  ASSERT_EQ(restored.num_streams(), kStreams);
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.EnsureResident(s).ok());
    ExpectTrainersBitIdentical(&engine.trainer(s), &restored.trainer(s),
                               domains[s][0].test.x,
                               "stream " + std::to_string(s));
  }
}

// Snapshots taken back to back while tenants spill and fault back: every
// capture must find each spilled blob in the store or in last_good (the
// fault-back erases it in the critical section that flips residency), so
// every SaveSnapshot succeeds, and the last snapshot plus the WAL recover
// every tenant bitwise.
TEST(EngineSpillTest, SnapshotsDuringSpillChurnRecoverBitIdentically) {
  const int kStreams = 6;
  const int kWaves = 3;
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    configs.push_back(FastConfig(320 + 17 * s));
    domains.push_back(MakeStream(40 + s, kWaves, 0.3 + 0.2 * s));
  }

  StreamEngineOptions plain;
  plain.num_workers = 3;
  StreamEngine reference(plain);
  for (int s = 0; s < kStreams; ++s) {
    reference.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
    for (const DataSplit& split : domains[s]) {
      ASSERT_TRUE(reference.PushDomain(s, split).ok());
    }
  }
  reference.Drain();

  StreamEngineOptions options = plain;
  options.storage_path = TempPath("spill_churn.store");
  options.max_resident_streams = 2;
  options.wal_path = TempPath("spill_churn.wal");
  const std::string snap = TempPath("spill_churn.snap");
  {
    StreamEngine engine(options);
    ASSERT_TRUE(engine.OpenStorage().ok());
    for (int s = 0; s < kStreams; ++s) {
      engine.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
    }
    std::atomic<bool> stop{false};
    std::atomic<int> snapshots{0};
    std::atomic<int> failures{0};
    std::thread snapshotter([&] {
      while (!stop.load()) {
        const Status saved = engine.SaveSnapshot(snap);
        if (!saved.ok()) {
          ADD_FAILURE() << "SaveSnapshot: " << saved.ToString();
          ++failures;
        }
        ++snapshots;
      }
    });
    for (int w = 0; w < kWaves; ++w) {
      for (int s = 0; s < kStreams; ++s) {
        // EXPECT, not ASSERT: the snapshotter must be joined on every path.
        EXPECT_TRUE(engine.PushDomain(s, domains[s][w]).ok());
      }
      // The last wave is still training when the snapshots stop, so the
      // last one leaves part of it to the WAL.
      if (w + 1 < kWaves) engine.Drain();
    }
    stop = true;
    snapshotter.join();
    engine.Drain();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(snapshots.load(), 0);
    EXPECT_GE(engine.storage_stats().fault_backs, 1);
  }

  StreamEngine recovered(options);
  ASSERT_TRUE(recovered.Recover(snap).ok());
  recovered.Drain();
  ASSERT_EQ(recovered.num_streams(), kStreams);
  for (int s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(recovered.EnsureResident(s).ok()) << "stream " << s;
    ExpectTrainersBitIdentical(&reference.trainer(s), &recovered.trainer(s),
                               domains[s][0].test.x,
                               "stream " + std::to_string(s));
  }
}

// A restart under a resident budget restores no trainer: each trained
// tenant starts spilled on its blob's byte range of the snapshot file and
// answers from a snapshot decoded from that blob. Before any push only the
// untrained stream is resident, and queries, a SaveSnapshot to the same
// path and a domain pushed to a cold tenant all match an engine that never
// restarted.
TEST(EngineSpillTest, RecoverUnderBudgetStartsTrainedTenantsSpilled) {
  const int kStreams = 5;
  const int kTrained = 4;  // the last stream never sees a domain
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    configs.push_back(FastConfig(700 + 13 * s));
    domains.push_back(MakeStream(140 + s, 2, 0.3 + 0.1 * s));
  }
  StreamEngineOptions plain;
  plain.num_workers = 3;
  StreamEngine reference(plain);
  for (int s = 0; s < kStreams; ++s) {
    reference.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
  }
  for (int s = 0; s < kTrained; ++s) {
    ASSERT_TRUE(reference.PushDomain(s, domains[s][0]).ok());
  }
  reference.Drain();

  StreamEngineOptions options = plain;
  options.storage_path = TempPath("cold_start.store");
  options.max_resident_streams = 2;
  options.wal_path = TempPath("cold_start.wal");
  const std::string snap = TempPath("cold_start.snap");
  std::vector<uint64_t> fingerprints(kTrained);
  {
    StreamEngine engine(options);
    ASSERT_TRUE(engine.OpenStorage().ok());
    for (int s = 0; s < kStreams; ++s) {
      engine.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
    }
    for (int s = 0; s < kTrained; ++s) {
      ASSERT_TRUE(engine.PushDomain(s, domains[s][0]).ok());
    }
    engine.Drain();
    ASSERT_TRUE(engine.SaveSnapshot(snap).ok());
    for (int s = 0; s < kTrained; ++s) {
      fingerprints[s] = engine.effect_snapshot(s)->fingerprint;
    }
  }

  StreamEngine recovered(options);
  ASSERT_TRUE(recovered.Recover(snap).ok());
  ASSERT_EQ(recovered.num_streams(), kStreams);
  const StreamEngine::StorageStats cold = recovered.storage_stats();
  EXPECT_EQ(cold.resident_streams, kStreams - kTrained);
  EXPECT_EQ(cold.spilled_streams, kTrained);
  EXPECT_EQ(cold.fault_backs, 0);
  EXPECT_GT(cold.store_blob_bytes, 0u);
  EXPECT_EQ(recovered.trainer(0).stages_seen(), 0);  // nothing restored

  QueryContext* ctx = recovered.CreateQueryContext();
  for (int s = 0; s < kTrained; ++s) {
    const auto published = recovered.effect_snapshot(s);
    ASSERT_NE(published, nullptr) << "stream " << s;
    EXPECT_EQ(published->version, 1u);
    EXPECT_EQ(published->fingerprint, fingerprints[s]) << "stream " << s;
    const Matrix& x = domains[s][0].test.x;
    Vector ite;
    ASSERT_TRUE(recovered.QueryEffectBatch(ctx, s, x, &ite).ok());
    const Vector expected = reference.trainer(s).PredictIte(x);
    ASSERT_EQ(ite.size(), expected.size());
    for (size_t i = 0; i < ite.size(); ++i) {
      ASSERT_EQ(ite[i], expected[i]) << "stream " << s << " unit " << i;
    }
  }
  EXPECT_EQ(recovered.effect_snapshot(kTrained), nullptr);

  // The save renames a new file over the one the cold ranges live in; the
  // store's descriptor keeps the old bytes readable, and the new file
  // restores every trainer bit for bit.
  ASSERT_TRUE(recovered.SaveSnapshot(snap).ok());
  {
    StreamEngine restored(plain);
    ASSERT_TRUE(restored.LoadSnapshot(snap).ok());
    ASSERT_EQ(restored.num_streams(), kStreams);
    for (int s = 0; s < kTrained; ++s) {
      ExpectTrainersBitIdentical(&reference.trainer(s), &restored.trainer(s),
                                 domains[s][0].test.x,
                                 "saved stream " + std::to_string(s));
    }
  }

  // A domain pushed to a cold tenant faults it back from its range and
  // trains exactly as the engine that never restarted.
  ASSERT_TRUE(reference.PushDomain(0, domains[0][1]).ok());
  reference.Drain();
  ASSERT_TRUE(recovered.PushDomain(0, domains[0][1]).ok());
  recovered.Drain();
  ASSERT_EQ(recovered.results(0).size(), 1u);
  EXPECT_TRUE(recovered.results(0)[0].status.ok())
      << recovered.results(0)[0].status.ToString();
  EXPECT_EQ(recovered.storage_stats().fault_backs, 1);
  EXPECT_EQ(recovered.effect_snapshot(0)->fingerprint,
            reference.effect_snapshot(0)->fingerprint);
  ASSERT_TRUE(recovered.EnsureResident(0).ok());
  ExpectTrainersBitIdentical(&reference.trainer(0), &recovered.trainer(0),
                             domains[0][1].test.x, "pushed stream 0");
}

// EnsureResident on a resident stream is a cheap no-op; on an unknown id a
// clean NotFound; spill bookkeeping survives both.
TEST(EngineSpillTest, EnsureResidentEdgeCases) {
  StreamEngineOptions options;
  options.num_workers = 2;
  options.storage_path = TempPath("spill_edges.store");
  options.max_resident_streams = 1;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.OpenStorage().ok());
  const int id = engine.AddStream("only", FastConfig(600), kFeatures);
  EXPECT_EQ(engine.EnsureResident(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.EnsureResident(-1).code(), StatusCode::kNotFound);
  // Untrained and resident: nothing to fault back.
  ASSERT_TRUE(engine.EnsureResident(id).ok());
  const std::vector<DataSplit> domains = MakeStream(130, 1, 0.3);
  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
  engine.Drain();
  // A single stream within the budget never spills.
  EXPECT_EQ(engine.storage_stats().spills, 0);
  ASSERT_TRUE(engine.EnsureResident(id).ok());
  EXPECT_EQ(engine.trainer(id).stages_seen(), 1);
}

}  // namespace
}  // namespace cerl::stream
