// Golden-format compatibility: small CERLCKP2 / CERLENG6 fixtures and a
// CERLWAL2 log are committed under tests/testdata/ and every build must keep
// loading them bit-identically (PredictIte parity against committed
// hexfloat values).
// This freezes every on-disk format the engine writes — an accidental
// layout change breaks these tests, not production restores.
//
// Regenerating (only when an on-disk format or the kernel numerics change
// on purpose; CHANGES.md says which):
//   CERL_REGEN_GOLDEN=1 ./build/tests/golden_format_test
// rewrites the fixtures in the source tree; commit them with the change.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/synthetic.h"
#include "linalg/simd.h"
#include "stream/stream_engine.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace cerl {
namespace {

// The committed hexfloats pin the SCALAR kernel arithmetic: they must load
// bit-identically on any machine, including ones without AVX2. Each test
// (and the regen path) forces the scalar table so the fixture values stay
// machine-independent; production numerics are covered by the parity suite
// in simd_kernel_test.cc instead.
class ScalarKernelGuard {
 public:
  ScalarKernelGuard() { linalg::simd::ForceScalarForTesting(true); }
  ~ScalarKernelGuard() { linalg::simd::ForceScalarForTesting(false); }
};

using core::CerlConfig;
using core::CerlTrainer;
using data::DataSplit;
using linalg::Matrix;
using linalg::Vector;

constexpr int kGoldenDim = 25;
constexpr int kProbeRows = 12;
// golden_expected.txt sections: trainer, engine streams a/b, then the three
// streams of the WAL fixture.
constexpr size_t kExpectedSections = 6;

std::string TestDataDir() { return CERL_TESTDATA_DIR; }
std::string TrainerFixture() { return TestDataDir() + "/golden_trainer.ckpt"; }
std::string EngineFixture() { return TestDataDir() + "/golden_engine.snap"; }
std::string WalSnapshotFixture() {
  return TestDataDir() + "/golden_wal_engine.snap";
}
std::string WalFixture() { return TestDataDir() + "/golden_engine.wal"; }
std::string ExpectedFile() { return TestDataDir() + "/golden_expected.txt"; }

bool RegenRequested() {
  const char* env = std::getenv("CERL_REGEN_GOLDEN");
  return env != nullptr && env[0] == '1';
}

// Everything below is pinned: the fixtures were generated with exactly these
// configs/seeds, and loading requires the same architecture.
CerlConfig GoldenTrainerConfig() {
  CerlConfig c;
  c.net.rep_hidden = {6};
  c.net.rep_dim = 4;
  c.net.head_hidden = {4};
  c.train.epochs = 4;
  c.train.batch_size = 32;
  c.train.seed = 1213;
  c.memory_capacity = 24;
  return c;
}

CerlConfig GoldenStreamConfig(uint64_t seed) {
  CerlConfig c = GoldenTrainerConfig();
  c.train.seed = seed;
  return c;
}

std::vector<DataSplit> GoldenStreamData(int domains, uint64_t seed) {
  data::SyntheticConfig dc;
  dc.num_confounders = 10;
  dc.num_instruments = 4;
  dc.num_irrelevant = 5;
  dc.num_adjusters = 6;  // 25 features total == kGoldenDim
  dc.num_domains = domains;
  dc.units_per_domain = 90;
  dc.seed = seed;
  auto stream = data::GenerateSyntheticStream(dc);
  Rng rng(seed + 1);
  return data::SplitStream(stream.domains, &rng);
}

// Deterministic probe inputs (bit-reproducible: our own Rng, no std::
// distributions).
Matrix ProbeInputs() {
  Rng rng(424242);
  Matrix x(kProbeRows, kGoldenDim);
  for (int i = 0; i < kProbeRows; ++i) {
    for (int j = 0; j < kGoldenDim; ++j) x(i, j) = rng.Normal();
  }
  return x;
}

// The expected-values file: one "%a" hexfloat per line, sections separated
// by labels. Hexfloat round-trips doubles exactly, so parity is bitwise.
void WriteExpected(const std::vector<Vector>& sections,
                   const std::vector<std::string>& labels) {
  std::string out;
  for (size_t s = 0; s < sections.size(); ++s) {
    out += "# " + labels[s] + "\n";
    for (double v : sections[s]) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a\n", v);
      out += buf;
    }
  }
  Status written = WriteFileAtomic(ExpectedFile(), out);
  ASSERT_TRUE(written.ok()) << written.ToString();
}

std::vector<Vector> ReadExpected() {
  std::vector<Vector> sections;
  std::ifstream in(ExpectedFile());
  EXPECT_TRUE(in.good()) << "missing fixture " << ExpectedFile();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      sections.emplace_back();
      continue;
    }
    EXPECT_FALSE(sections.empty());
    sections.back().push_back(std::strtod(line.c_str(), nullptr));
  }
  EXPECT_EQ(sections.size(), kExpectedSections);
  sections.resize(kExpectedSections);
  return sections;
}

void ExpectExactly(const Vector& actual, const Vector& expected,
                   const std::string& tag) {
  ASSERT_EQ(actual.size(), expected.size()) << tag;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << tag << " value " << i;
  }
}

// Builds the golden trainer state: 2 observed domains.
void RegenerateTrainerFixture(Vector* expected_ite) {
  auto splits = GoldenStreamData(2, 3001);
  CerlTrainer trainer(GoldenTrainerConfig(), kGoldenDim);
  trainer.ObserveDomain(splits[0]);
  trainer.ObserveDomain(splits[1]);
  ASSERT_TRUE(trainer.SaveCheckpoint(TrainerFixture()).ok());
  *expected_ite = trainer.PredictIte(ProbeInputs());
}

// Builds the golden engine state: 2 streams with two trained domains each,
// snapshotted after Drain() so the container holds both consumed domains.
void RegenerateEngineFixture(Vector* expected_a, Vector* expected_b) {
  stream::StreamEngineOptions options;
  options.num_workers = 2;
  stream::StreamEngine engine(options);
  auto splits_a = GoldenStreamData(2, 3002);
  auto splits_b = GoldenStreamData(2, 3003);
  const int a = engine.AddStream("golden-a", GoldenStreamConfig(41),
                                 kGoldenDim);
  const int b = engine.AddStream("golden-b", GoldenStreamConfig(42),
                                 kGoldenDim);
  engine.PushDomain(a, splits_a[0]);
  engine.PushDomain(a, splits_a[1]);
  engine.PushDomain(b, splits_b[0]);
  engine.PushDomain(b, splits_b[1]);
  engine.Drain();
  ASSERT_TRUE(engine.SaveSnapshot(EngineFixture()).ok());

  // Expected values come from LOADING the fixture, so verification does
  // not depend on this process's engine.
  stream::StreamEngine loaded(options);
  ASSERT_TRUE(loaded.LoadSnapshot(EngineFixture()).ok());
  *expected_a = loaded.trainer(0).PredictIte(ProbeInputs());
  *expected_b = loaded.trainer(1).PredictIte(ProbeInputs());
}

const char* const kWalStreamNames[] = {"wal-a", "wal-b", "wal-c"};

// Recover() from scratch copies of the WAL fixtures (Recover opens the WAL
// for append; the committed files must stay untouched), then drain and
// probe all three streams.
void RecoverWalFixture(std::vector<Vector>* ites) {
  const std::string snap = ::testing::TempDir() + "/golden_wal_engine.snap";
  const std::string wal = ::testing::TempDir() + "/golden_engine.wal";
  for (const auto& [from, to] : {std::pair{WalSnapshotFixture(), snap},
                                 std::pair{WalFixture(), wal}}) {
    Result<std::string> bytes = ReadFileToString(from);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    ASSERT_TRUE(WriteFileAtomic(to, bytes.value()).ok());
  }
  stream::StreamEngineOptions options;
  options.num_workers = 2;
  options.wal_path = wal;
  stream::StreamEngine engine(options);
  Status s = engine.Recover(snap);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(engine.num_streams(), 3);
  engine.Drain();
  const int stages[] = {2, 2, 1};
  for (int id = 0; id < 3; ++id) {
    EXPECT_EQ(engine.name(id), kWalStreamNames[id]);
    EXPECT_EQ(engine.trainer(id).stages_seen(), stages[id]);
    ites->push_back(engine.trainer(id).PredictIte(ProbeInputs()));
  }
}

// Builds the golden WAL-attached engine state. The snapshot lands right
// after Drain(), so nothing is pending and compaction leaves the WAL empty.
// The WAL tail logs one more domain per stream plus a third stream's
// registration and first domain, so it holds both record types.
void RegenerateWalFixture(std::vector<Vector>* expected) {
  std::remove(WalFixture().c_str());
  auto splits_a = GoldenStreamData(2, 3004);
  auto splits_b = GoldenStreamData(2, 3005);
  auto splits_c = GoldenStreamData(1, 3006);
  {
    stream::StreamEngineOptions options;
    options.num_workers = 2;
    options.wal_path = WalFixture();
    stream::StreamEngine engine(options);
    ASSERT_TRUE(engine.OpenStorage().ok());
    const int a = engine.AddStream(kWalStreamNames[0], GoldenStreamConfig(43),
                                   kGoldenDim);
    const int b = engine.AddStream(kWalStreamNames[1], GoldenStreamConfig(44),
                                   kGoldenDim);
    ASSERT_TRUE(engine.PushDomain(a, splits_a[0]).ok());
    ASSERT_TRUE(engine.PushDomain(b, splits_b[0]).ok());
    engine.Drain();
    ASSERT_TRUE(engine.SaveSnapshot(WalSnapshotFixture()).ok());
    ASSERT_TRUE(engine.PushDomain(a, splits_a[1]).ok());
    ASSERT_TRUE(engine.PushDomain(b, splits_b[1]).ok());
    const int c = engine.AddStream(kWalStreamNames[2], GoldenStreamConfig(45),
                                   kGoldenDim);
    ASSERT_TRUE(engine.PushDomain(c, splits_c[0]).ok());
    engine.Drain();
  }
  RecoverWalFixture(expected);
}

TEST(GoldenFormatTest, RegenerateIfRequested) {
  if (!RegenRequested()) return;
  ScalarKernelGuard scalar_guard;
  Vector trainer_ite, engine_a, engine_b;
  std::vector<Vector> wal_ites;
  RegenerateTrainerFixture(&trainer_ite);
  RegenerateEngineFixture(&engine_a, &engine_b);
  RegenerateWalFixture(&wal_ites);
  ASSERT_EQ(wal_ites.size(), 3u);
  WriteExpected({trainer_ite, engine_a, engine_b, wal_ites[0], wal_ites[1],
                 wal_ites[2]},
                {"trainer PredictIte", "engine stream golden-a PredictIte",
                 "engine stream golden-b PredictIte",
                 "WAL engine stream wal-a PredictIte",
                 "WAL engine stream wal-b PredictIte",
                 "WAL engine stream wal-c PredictIte"});
}

TEST(GoldenFormatTest, TrainerFixtureLoadsBitIdentically) {
  ScalarKernelGuard scalar_guard;
  const std::vector<Vector> expected = ReadExpected();
  CerlTrainer trainer(GoldenTrainerConfig(), kGoldenDim);
  Status s = trainer.LoadCheckpoint(TrainerFixture());
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(trainer.stages_seen(), 2);
  ExpectExactly(trainer.PredictIte(ProbeInputs()), expected[0],
                "golden trainer");
}

TEST(GoldenFormatTest, EngineFixtureLoadsBitIdentically) {
  ScalarKernelGuard scalar_guard;
  const std::vector<Vector> expected = ReadExpected();
  stream::StreamEngineOptions options;
  options.num_workers = 2;
  stream::StreamEngine engine(options);
  Status s = engine.LoadSnapshot(EngineFixture());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(engine.num_streams(), 2);
  EXPECT_EQ(engine.name(0), "golden-a");
  EXPECT_EQ(engine.name(1), "golden-b");
  EXPECT_EQ(engine.trainer(0).stages_seen(), 2);
  EXPECT_EQ(engine.trainer(1).stages_seen(), 2);
  ExpectExactly(engine.trainer(0).PredictIte(ProbeInputs()), expected[1],
                "golden engine stream a");
  ExpectExactly(engine.trainer(1).PredictIte(ProbeInputs()), expected[2],
                "golden engine stream b");
}

// Pins the CERLWAL2 file and record format (both record types) and a
// WAL-attached engine's CERLENG6 container: Recover() replays the WAL tail
// over the snapshot.
TEST(GoldenFormatTest, WalFixtureRecoversBitIdentically) {
  ScalarKernelGuard scalar_guard;
  const std::vector<Vector> expected = ReadExpected();
  Result<std::string> snap = ReadFileToString(WalSnapshotFixture());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_GT(snap.value().size(), 8u);
  EXPECT_EQ(snap.value().substr(0, 8), "CERLENG6");
  Result<std::string> wal = ReadFileToString(WalFixture());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.value().substr(0, 8), "CERLWAL2");
  std::vector<Vector> ites;
  RecoverWalFixture(&ites);
  ASSERT_EQ(ites.size(), 3u);
  for (size_t i = 0; i < ites.size(); ++i) {
    ExpectExactly(ites[i], expected[3 + i],
                  std::string("golden WAL stream ") + kWalStreamNames[i]);
  }
}

}  // namespace
}  // namespace cerl
