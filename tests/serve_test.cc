// Tests for the effect-query serving plane (src/serve/ + the StreamEngine
// read path): bit-identity of snapshot predictions with the publishing
// trainer (directly, through a checkpoint round-trip, and under the forced
// scalar kernel table), snapshots decoded straight from a checkpoint blob
// (bitwise equal to the built ones; the same rejections as a trainer
// restore), the zero-allocation steady state of the inference
// arena, snapshot publish/version semantics, quarantined-stream staleness,
// and the per-stream query stats surface.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "linalg/simd.h"
#include "serve/batch_predictor.h"
#include "serve/effect_snapshot.h"
#include "stream/stream_engine.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cerl::serve {
namespace {

using core::CerlConfig;
using core::CerlTrainer;
using data::CausalDataset;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;
using stream::EffectQueryMeta;
using stream::QueryContext;
using stream::StreamEngine;
using stream::StreamEngineOptions;
using stream::StreamHealth;
using stream::StreamQueryStats;

constexpr int kFeatures = 8;

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
  std::vector<DataSplit> out;
  for (int d = 0; d < domains; ++d) {
    out.push_back(data::SplitDataset(ShiftedToy(&rng, 300, shift * d), &rng));
  }
  return out;
}

// Small but representative config: cosine-normalized representation (the
// paper's default) so the snapshot's precomputed column normalization is on
// the tested path; the representation output is always tanh.
CerlConfig SmallConfig(uint64_t seed,
                       nn::Activation hidden = nn::Activation::kElu) {
  CerlConfig c;
  c.net.activation = hidden;
  c.net.rep_hidden = {16};
  c.net.rep_dim = 8;
  c.net.head_hidden = {8};
  c.train.epochs = 10;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 10;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 100;
  return c;
}

void ExpectBitIdentical(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "row " << i;
  }
}

// Every NetConfig::activation BatchPredictor serves: the ew_forward kernels
// (elu, tanh, relu) and the libm sigmoid loop.
const nn::Activation kHiddenActivations[] = {
    nn::Activation::kElu, nn::Activation::kTanh, nn::Activation::kRelu,
    nn::Activation::kSigmoid};

// Trains `domains` stages and checks every bit-identity contract of one
// snapshot: batch vs the trainer, 1-row queries vs 1-row trainer forwards,
// and stability through a checkpoint round-trip. Runs under whichever
// kernel table is active, so the forced-scalar test reuses it wholesale.
void CheckSnapshotIdentity(uint64_t seed, nn::Activation hidden) {
  SCOPED_TRACE(testing::Message()
               << "hidden activation " << static_cast<int>(hidden));
  const CerlConfig config = SmallConfig(seed, hidden);
  const std::vector<DataSplit> domains = MakeStream(seed + 1, 2, 0.8);
  CerlTrainer trainer(config, kFeatures);
  for (const DataSplit& split : domains) trainer.ObserveDomain(split);

  auto snap = BuildEffectSnapshot(trainer, 1);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(snap->stage, 2);
  EXPECT_EQ(snap->input_dim, kFeatures);
  EXPECT_EQ(snap->fingerprint, SnapshotFingerprint(*snap));

  const Matrix& x = domains.back().test.x;
  const Vector expected = trainer.PredictIte(x);

  BatchPredictor predictor;
  Vector got;
  predictor.PredictIte(*snap, x, &got);
  ExpectBitIdentical(expected, got);

  // Single-row queries against 1-row trainer forwards (same block shape on
  // both sides, so this is bitwise too).
  Matrix one(1, kFeatures);
  for (int r = 0; r < std::min(8, x.rows()); ++r) {
    for (int c = 0; c < kFeatures; ++c) one(0, c) = x(r, c);
    const Vector expected_one = trainer.PredictIte(one);
    EXPECT_EQ(predictor.PredictIteRow(*snap, x.row(r)), expected_one[0]);
  }

  // A snapshot built from a checkpoint round-trip of the trainer is the
  // same model: same fingerprint, same predictions.
  std::string blob;
  ASSERT_TRUE(trainer.SerializeCheckpoint(&blob).ok());
  CerlTrainer restored(config, kFeatures);
  ASSERT_TRUE(restored.DeserializeCheckpoint(blob).ok());
  auto snap2 = BuildEffectSnapshot(restored, 1);
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(snap2->fingerprint, snap->fingerprint);
  Vector got2;
  BatchPredictor predictor2;
  predictor2.PredictIte(*snap2, x, &got2);
  ExpectBitIdentical(expected, got2);
}

TEST(EffectSnapshotTest, PredictsBitIdenticalToTrainerAndCheckpoint) {
  for (nn::Activation hidden : kHiddenActivations) {
    CheckSnapshotIdentity(41, hidden);
  }
}

TEST(EffectSnapshotTest, PredictsBitIdenticalUnderForcedScalarKernels) {
  // The whole flow — training, snapshot build (including the precomputed
  // cosine column normalization), and both prediction paths — on the
  // portable scalar kernel table, as CERL_FORCE_SCALAR=1 would select it.
  linalg::simd::ForceScalarForTesting(true);
  for (nn::Activation hidden : kHiddenActivations) {
    CheckSnapshotIdentity(43, hidden);
  }
  linalg::simd::ForceScalarForTesting(false);
}

TEST(EffectSnapshotTest, BuildReturnsNullBeforeFirstStage)
{
  CerlTrainer trainer(SmallConfig(7), kFeatures);
  EXPECT_EQ(BuildEffectSnapshot(trainer, 1), nullptr);
}

// --- DecodeEffectSnapshot: a snapshot straight from a CERLCKP2 blob -------

// Doubles compared as bits (a decoded snapshot must not even flip a zero's
// sign). A cosine layer's empty bias has no storage to compare.
void ExpectSameBits(const double* a, const double* b, size_t n,
                    const std::string& what) {
  if (n == 0) return;
  ASSERT_EQ(std::memcmp(a, b, n * sizeof(double)), 0) << what;
}

void ExpectLayersBitIdentical(const std::vector<DenseLayer>& a,
                              const std::vector<DenseLayer>& b,
                              const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string tag = what + " layer " + std::to_string(i);
    EXPECT_EQ(a[i].activation, b[i].activation) << tag;
    EXPECT_EQ(a[i].cosine, b[i].cosine) << tag;
    ASSERT_TRUE(a[i].weight.SameShape(b[i].weight)) << tag;
    ExpectSameBits(a[i].weight.data(), b[i].weight.data(),
                   static_cast<size_t>(a[i].weight.size()), tag + " weight");
    ASSERT_EQ(a[i].bias.size(), b[i].bias.size()) << tag;
    ExpectSameBits(a[i].bias.data(), b[i].bias.data(), a[i].bias.size(),
                   tag + " bias");
  }
}

void ExpectSnapshotsBitIdentical(const EffectSnapshot& a,
                                 const EffectSnapshot& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.input_dim, b.input_dim);
  EXPECT_EQ(a.rep_dim, b.rep_dim);
  ExpectLayersBitIdentical(a.rep, b.rep, "rep");
  ExpectLayersBitIdentical(a.head0, b.head0, "head0");
  ExpectLayersBitIdentical(a.head1, b.head1, "head1");
  ASSERT_EQ(a.x_mean.size(), b.x_mean.size());
  ExpectSameBits(a.x_mean.data(), b.x_mean.data(), a.x_mean.size(), "x mean");
  ASSERT_EQ(a.x_std.size(), b.x_std.size());
  ExpectSameBits(a.x_std.data(), b.x_std.data(), a.x_std.size(), "x std");
  ExpectSameBits(&a.y_mean, &b.y_mean, 1, "y mean");
  ExpectSameBits(&a.y_scale, &b.y_scale, 1, "y scale");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

// CERLCKP2 offsets for kFeatures inputs: the 16-byte header and 41 bytes of
// RNG state, the x-scaler mean and std (u32 length + doubles each), then
// the y-scaler mean, std and fitted flag, then the parameter block (8-byte
// magic, u64 count, then the first parameter's u32 name length and name).
constexpr size_t kXMeanAt = 57 + 4;
constexpr size_t kXStdAt = kXMeanAt + 8 * kFeatures + 4;
constexpr size_t kYMeanAt = kXStdAt + 8 * kFeatures;
constexpr size_t kYStdAt = kYMeanAt + 8;
constexpr size_t kYFittedAt = kYStdAt + 8;
constexpr size_t kFirstParamNameAt = kYFittedAt + 1 + 8 + 8 + 4;

// Trains `trainer` on `stages` domains and returns its blob.
std::string TrainedBlob(int stages, uint64_t seed, CerlTrainer* trainer) {
  for (const DataSplit& split : MakeStream(seed, stages, 0.6)) {
    trainer->ObserveDomain(split);
  }
  std::string blob;
  const Status s = trainer->SerializeCheckpoint(&blob);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return blob;
}

// Re-finalizes a payload edited behind the checksum.
std::string Refinalized(std::string blob_without_checksum) {
  AppendChecksum(&blob_without_checksum);
  return blob_without_checksum;
}

template <typename T>
std::string WithPod(const std::string& blob, size_t at, T value) {
  std::string payload = blob.substr(0, blob.size() - 8);
  std::memcpy(payload.data() + at, &value, sizeof(value));
  return Refinalized(payload);
}

// The decoded snapshot equals BuildEffectSnapshot of the live trainer and
// of the trainer the blob restores into, bit for bit, for cosine and plain
// representations after one and three stages.
TEST(DecodeEffectSnapshotTest, EqualsBuildEffectSnapshotBitwise) {
  for (bool cosine : {true, false}) {
    for (int stages : {1, 3}) {
      SCOPED_TRACE(testing::Message() << "cosine " << cosine << ", stages "
                                      << stages);
      CerlConfig config = SmallConfig(71 + stages);
      config.net.cosine_normalized_rep = cosine;
      CerlTrainer trainer(config, kFeatures);
      const std::string blob = TrainedBlob(stages, 72, &trainer);
      CerlTrainer restored(config, kFeatures);
      ASSERT_TRUE(restored.DeserializeCheckpoint(blob).ok());

      auto decoded = DecodeEffectSnapshot(blob, config.net, kFeatures, 9);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_NE(decoded.value(), nullptr);
      EXPECT_EQ(decoded.value()->stage, stages);
      EXPECT_EQ(decoded.value()->rep.back().cosine, cosine);
      ExpectSnapshotsBitIdentical(*BuildEffectSnapshot(trainer, 9),
                                  *decoded.value());
      ExpectSnapshotsBitIdentical(*BuildEffectSnapshot(restored, 9),
                                  *decoded.value());
    }
  }
}

// A blob whose outcome scaler is not fitted restores a trainer with the
// default scaler, whatever mean and std the blob carries; the decoded
// snapshot carries the same default.
TEST(DecodeEffectSnapshotTest, UnfittedOutcomeScalerDecodesAsRestored) {
  const CerlConfig config = SmallConfig(75);
  CerlTrainer trainer(config, kFeatures);
  const std::string fitted = TrainedBlob(1, 76, &trainer);
  ASSERT_EQ(fitted[kYFittedAt], 1);
  std::string unfitted = WithPod(fitted, kYFittedAt, uint8_t{0});
  unfitted = WithPod(unfitted, kYMeanAt, 5.0);
  unfitted = WithPod(unfitted, kYStdAt, 2.0);

  CerlTrainer restored(config, kFeatures);
  ASSERT_TRUE(restored.DeserializeCheckpoint(unfitted).ok());
  auto decoded = DecodeEffectSnapshot(unfitted, config.net, kFeatures, 1);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto built = BuildEffectSnapshot(restored, 1);
  EXPECT_EQ(built->y_mean, 0.0);
  EXPECT_EQ(built->y_scale, 1.0);
  ExpectSnapshotsBitIdentical(*built, *decoded.value());
}

// The decoder and DeserializeCheckpoint share one parser: every corruption
// one rejects, the other rejects with the same Status, and a well-formed
// blob of another architecture or input dimension is refused by both.
TEST(DecodeEffectSnapshotTest, RejectsWhatDeserializeCheckpointRejects) {
  const CerlConfig config = SmallConfig(77);
  CerlTrainer trainer(config, kFeatures);
  const std::string valid = TrainedBlob(3, 78, &trainer);
  const int mem_rows = trainer.memory().size();
  ASSERT_GT(mem_rows, 0);

  auto expect_both_reject = [](const std::string& bytes,
                               const CerlConfig& cfg, int input_dim,
                               const std::string& what) {
    CerlTrainer fresh(cfg, input_dim);
    const Status restored = fresh.DeserializeCheckpoint(bytes);
    const Status decoded =
        DecodeEffectSnapshot(bytes, cfg.net, input_dim, 1).status();
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(decoded.code(), restored.code()) << what;
    EXPECT_EQ(decoded.message(), restored.message()) << what;
  };

  for (size_t len = 0; len < valid.size(); ++len) {
    expect_both_reject(valid.substr(0, len), config, kFeatures,
                       "truncation at " + std::to_string(len));
  }
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::string flipped = valid;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    expect_both_reject(flipped, config, kFeatures,
                       "flip at " + std::to_string(pos));
  }

  // Structural corruptions behind a recomputed checksum.
  const std::string payload = valid.substr(0, valid.size() - 8);
  const size_t mem_at = payload.size() -
                        (8 + static_cast<size_t>(mem_rows) *
                                 (8 * config.net.rep_dim + 8 + 1) +
                         4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::string what;
    std::string bytes;
  };
  std::vector<Case> cases = {
      {"bad magic", Refinalized("X" + payload.substr(1))},
      {"zero stages", WithPod(valid, 8, uint32_t{0})},
      {"x-scaler length", WithPod(valid, 57, uint32_t{0x40000000})},
      {"rng cached flag", WithPod(valid, 48, uint8_t{2})},
      {"y fitted flag", WithPod(valid, kYFittedAt, uint8_t{2})},
      {"parameter name", WithPod(valid, kFirstParamNameAt, 'R')},
      {"parameter count", WithPod(valid, kYFittedAt + 1 + 8, uint64_t{99})},
      {"memory rows", WithPod(valid, mem_at, uint32_t{0x7fffffff})},
      {"memory cols", WithPod(valid, mem_at + 4, uint32_t{3})},
      {"memory treatment",
       WithPod(valid, payload.size() - 1, uint8_t{2})},
      {"trailing bytes", Refinalized(payload + std::string(5, '\x11'))},
      {"short payload", Refinalized(payload.substr(0, payload.size() - 9))},
  };
  for (double bad : {0.0, -1.0, nan, inf}) {
    cases.push_back({"y std", WithPod(valid, kYStdAt, bad)});
    cases.push_back({"x std", WithPod(valid, kXStdAt + 8 * 2, bad)});
  }
  for (double bad : {nan, inf, -inf}) {
    cases.push_back({"y mean", WithPod(valid, kYMeanAt, bad)});
    cases.push_back({"x mean", WithPod(valid, kXMeanAt + 8 * 5, bad)});
  }
  for (const Case& c : cases) {
    expect_both_reject(c.bytes, config, kFeatures, c.what);
  }

  // Well-formed, but not this architecture / feature space.
  expect_both_reject(valid, config, kFeatures + 1, "input dim");
  CerlConfig wider = config;
  wider.net.rep_dim += 2;
  expect_both_reject(valid, wider, kFeatures, "rep dim");
  CerlConfig plain = config;
  plain.net.cosine_normalized_rep = false;
  expect_both_reject(valid, plain, kFeatures, "plain rep");

  // Sanity: the offsets above are live, the untouched blob decodes.
  EXPECT_TRUE(DecodeEffectSnapshot(valid, config.net, kFeatures, 1).ok());
}

TEST(BatchPredictorTest, SteadyStateMakesNoArenaAllocations) {
  const CerlConfig config = SmallConfig(47);
  const std::vector<DataSplit> domains = MakeStream(48, 1, 0.5);
  CerlTrainer trainer(config, kFeatures);
  trainer.ObserveDomain(domains[0]);
  auto snap = BuildEffectSnapshot(trainer, 1);
  ASSERT_NE(snap, nullptr);

  const Matrix& x = domains[0].test.x;
  BatchPredictor predictor;
  Vector ite;
  ite.reserve(static_cast<size_t>(x.rows()));
  // Warm-up: the largest batch this predictor will see, plus the 1-row
  // shape (a smaller block than the batch's 64-row panels, but shrinking
  // never allocates — the assertion below proves it).
  predictor.PredictIte(*snap, x, &ite);
  predictor.PredictIteRow(*snap, x.row(0));
  const int64_t warm = predictor.arena_allocations();
  EXPECT_GT(warm, 0);

  double sink = 0.0;
  for (int iter = 0; iter < 200; ++iter) {
    predictor.PredictIte(*snap, x, &ite);
    sink += predictor.PredictIteRow(*snap, x.row(iter % x.rows()));
  }
  EXPECT_TRUE(std::isfinite(sink));
  EXPECT_EQ(predictor.arena_allocations(), warm)
      << "query steady state allocated";
}

TEST(QueryPlaneTest, PublishesAfterEachDomainAndAnswersBitIdentically) {
  const CerlConfig config = SmallConfig(51);
  const std::vector<DataSplit> domains = MakeStream(52, 2, 0.8);
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  const int id = engine.AddStream("tenant", config, kFeatures);
  QueryContext* ctx = engine.CreateQueryContext();

  // Before the first publish: typed precondition reject, counted.
  double ite_one = 0.0;
  const Matrix& x = domains[0].test.x;
  Status s = engine.QueryEffect(ctx, id, x.row(0), kFeatures, &ite_one);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.QueryEffect(ctx, 99, x.row(0), kFeatures, &ite_one).code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
  engine.Drain();
  EffectQueryMeta meta;
  Vector ite;
  ASSERT_TRUE(engine.QueryEffectBatch(ctx, id, x, &ite, &meta).ok());
  EXPECT_EQ(meta.snapshot_version, 1u);
  EXPECT_EQ(meta.snapshot_stage, 1);
  EXPECT_FALSE(meta.stale);
  ExpectBitIdentical(engine.trainer(id).PredictIte(x), ite);

  // Wrong dimension count: rejected without touching the model.
  Matrix bad(2, kFeatures + 1);
  Vector bad_ite;
  EXPECT_EQ(engine.QueryEffectBatch(ctx, id, bad, &bad_ite).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(engine.PushDomain(id, domains[1]).ok());
  engine.Drain();
  ASSERT_TRUE(engine.QueryEffectBatch(ctx, id, x, &ite, &meta).ok());
  EXPECT_EQ(meta.snapshot_version, 2u);
  EXPECT_EQ(meta.snapshot_stage, 2);
  ExpectBitIdentical(engine.trainer(id).PredictIte(x), ite);
  // The single-row API agrees with a 1-row batch (same code path).
  Matrix one(1, kFeatures);
  for (int c = 0; c < kFeatures; ++c) one(0, c) = x(1, c);
  Vector one_ite;
  ASSERT_TRUE(engine.QueryEffectBatch(ctx, id, one, &one_ite).ok());
  ASSERT_TRUE(engine.QueryEffect(ctx, id, x.row(1), kFeatures, &ite_one).ok());
  EXPECT_EQ(ite_one, one_ite[0]);

  const StreamQueryStats stats = engine.query_stats(id);
  EXPECT_EQ(stats.snapshot_version, 2u);
  EXPECT_EQ(stats.snapshot_stage, 2);
  EXPECT_GE(stats.staleness_ms, 0.0);
  EXPECT_FALSE(stats.stale);
  EXPECT_EQ(stats.queries, 4);  // two batches + one 1-row batch + one row
  EXPECT_EQ(stats.rows, 2 * x.rows() + 2);
  EXPECT_EQ(stats.rejected, 2);  // pre-publish + bad dims (bad id excluded)
  EXPECT_EQ(stats.latency.count(), 4);
}

TEST(QueryPlaneTest, QuarantinedStreamServesLastGoodSnapshotAsStale) {
  FaultInjector::Global().Reset();
  StreamEngineOptions options;
  options.num_workers = 2;
  options.max_domain_retries = 0;
  options.quarantine_after_failures = 1;
  StreamEngine engine(options);
  const CerlConfig config = SmallConfig(57);
  const int id = engine.AddStream("sick", config, kFeatures);
  QueryContext* ctx = engine.CreateQueryContext();
  const std::vector<DataSplit> domains = MakeStream(58, 2, 0.5);

  ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
  engine.Drain();
  Vector before;
  EffectQueryMeta meta;
  ASSERT_TRUE(
      engine.QueryEffectBatch(ctx, id, domains[0].test.x, &before, &meta)
          .ok());
  ASSERT_EQ(meta.snapshot_version, 1u);
  ASSERT_FALSE(meta.stale);

  // Every further stage attempt of this stream throws: the next domain is
  // dropped and the stream quarantined.
  FaultInjector::Global().Arm(FaultPoint::kStageThrow, "sick",
                              /*probability=*/1.0, /*max_fires=*/0,
                              /*seed=*/5);
  ASSERT_TRUE(engine.PushDomain(id, domains[1]).ok());
  engine.Drain();
  ASSERT_EQ(engine.health(id), StreamHealth::kQuarantined);
  EXPECT_EQ(engine.PushDomain(id, domains[1]).code(),
            StatusCode::kUnavailable);

  // Still serving — the last-good model, flagged stale, version unchanged.
  Vector after;
  ASSERT_TRUE(
      engine.QueryEffectBatch(ctx, id, domains[0].test.x, &after, &meta)
          .ok());
  EXPECT_EQ(meta.snapshot_version, 1u);
  EXPECT_TRUE(meta.stale);
  ExpectBitIdentical(before, after);
  EXPECT_TRUE(engine.query_stats(id).stale);
  FaultInjector::Global().Reset();
}

TEST(QueryPlaneTest, LoadSnapshotRepublishesRestoredStreams) {
  const CerlConfig config = SmallConfig(61);
  const std::vector<DataSplit> domains = MakeStream(62, 1, 0.5);
  const std::string path = ::testing::TempDir() + "/serve_republish.snap";
  Vector expected;
  {
    StreamEngineOptions options;
    options.num_workers = 2;
    StreamEngine engine(options);
    const int id = engine.AddStream("restoreme", config, kFeatures);
    ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
    engine.Drain();
    expected = engine.trainer(id).PredictIte(domains[0].test.x);
    ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  }
  StreamEngineOptions options;
  options.num_workers = 2;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.LoadSnapshot(path).ok());
  QueryContext* ctx = engine.CreateQueryContext();
  Vector ite;
  EffectQueryMeta meta;
  ASSERT_TRUE(
      engine.QueryEffectBatch(ctx, 0, domains[0].test.x, &ite, &meta).ok());
  EXPECT_EQ(meta.snapshot_version, 1u);  // publish sequence restarts
  EXPECT_EQ(meta.snapshot_stage, 1);
  ExpectBitIdentical(expected, ite);
}

}  // namespace
}  // namespace cerl::serve
