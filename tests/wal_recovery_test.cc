// WAL durability tests: torn-tail truncation at every byte offset,
// byte-flip corruption recovery (longest valid prefix), and engine-level
// crash simulation — a WAL image captured between accepted domains replays
// into a fresh engine bit-identically to the uninterrupted run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/cerl_trainer.h"
#include "data/dataset.h"
#include "storage/wal.h"
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
using storage::Wal;

constexpr int kFeatures = 6;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

void CopyFile(const std::string& from, const std::string& to) {
  auto raw = ReadFileToString(from);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_TRUE(WriteFileAtomic(to, raw.value()).ok());
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
    stream.push_back(data::SplitDataset(Toy(&rng, 200, shift * d), &rng));
  }
  return stream;
}

CerlConfig FastConfig(uint64_t seed) {
  CerlConfig c;
  c.net.rep_hidden = {12};
  c.net.rep_dim = 6;
  c.net.head_hidden = {6};
  c.train.epochs = 8;
  c.train.batch_size = 64;
  c.train.learning_rate = 3e-3;
  c.train.patience = 8;
  c.train.alpha = 0.2;
  c.train.lambda = 1e-5;
  c.train.seed = seed;
  c.memory_capacity = 60;
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

// --- Raw Wal record-level recovery ----------------------------------------

std::vector<Wal::Record> TestRecords() {
  std::vector<Wal::Record> records;
  records.push_back({1, ""});  // empty payload is a legal record
  records.push_back({2, "alpha"});
  records.push_back({7, std::string(100, '\x5c')});
  std::string mixed = "bytes-with-nul";
  mixed[5] = '\0';
  mixed[6] = '\xff';
  records.push_back({2, mixed});
  return records;
}

TEST(WalRecoveryTest, ReopenRecoversAppendedRecords) {
  const std::string path = TempPath("wal_reopen.wal");
  const std::vector<Wal::Record> records = TestRecords();
  {
    auto wal = Wal::Open(path, {});
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE(wal.value()->recovered().empty());
    for (const Wal::Record& r : records) {
      ASSERT_TRUE(wal.value()->Append(r.type, r.payload).ok());
    }
    EXPECT_EQ(wal.value()->appended_records(), records.size());
  }
  auto wal = Wal::Open(path, {});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->truncated_bytes(), 0u);
  ASSERT_EQ(wal.value()->recovered().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(wal.value()->recovered()[i].type, records[i].type) << i;
    EXPECT_EQ(wal.value()->recovered()[i].payload, records[i].payload) << i;
  }
}

// Compact keeps exactly the records its predicate accepts, byte for byte
// and in log order, and the log stays appendable afterwards.
TEST(WalRecoveryTest, CompactKeepsAcceptedRecordsVerbatim) {
  const std::string path = TempPath("wal_compact_raw.wal");
  const std::vector<Wal::Record> records = TestRecords();
  {
    auto wal = Wal::Open(path, {});
    ASSERT_TRUE(wal.ok());
    for (const Wal::Record& r : records) {
      ASSERT_TRUE(wal.value()->Append(r.type, r.payload).ok());
    }
    ASSERT_TRUE(wal.value()
                    ->Compact([](uint32_t type, std::string_view) {
                      return type == 2;
                    })
                    .ok());
    ASSERT_TRUE(wal.value()->Append(9, "after").ok());
    EXPECT_EQ(wal.value()->size_bytes(),
              static_cast<uint64_t>(ReadFileToString(path).value().size()));
  }
  auto wal = Wal::Open(path, {});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->truncated_bytes(), 0u);
  const std::vector<Wal::Record>& kept = wal.value()->recovered();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].payload, records[1].payload);
  EXPECT_EQ(kept[1].payload, records[3].payload);
  EXPECT_EQ(kept[2].type, 9u);
  EXPECT_EQ(kept[2].payload, "after");
}

// Torn tail at EVERY byte offset: for each prefix length of the log file,
// Open must recover exactly the fully contained records, truncate the rest,
// and leave the file appendable from the clean boundary. A cut inside the
// 8-byte file magic is a crash during creation: the log opens empty and
// its magic is completed.
TEST(WalRecoveryTest, TornTailTruncatedAtEveryOffset) {
  const std::string path = TempPath("wal_torn_master.wal");
  const std::vector<Wal::Record> records = TestRecords();
  std::vector<size_t> boundaries;  // end of the magic, then of each record
  {
    auto wal = Wal::Open(path, {});
    ASSERT_TRUE(wal.ok());
    boundaries.push_back(wal.value()->size_bytes());
    ASSERT_EQ(boundaries[0], 8u);
    for (const Wal::Record& r : records) {
      ASSERT_TRUE(wal.value()->Append(r.type, r.payload).ok());
      boundaries.push_back(wal.value()->size_bytes());
    }
  }
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  const std::string bytes = std::move(raw).value();
  ASSERT_EQ(bytes.size(), boundaries.back());

  const std::string torn = TempPath("wal_torn.wal");
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    ASSERT_TRUE(WriteFileAtomic(torn, bytes.substr(0, cut)).ok());
    auto wal = Wal::Open(torn, {});
    ASSERT_TRUE(wal.ok()) << "cut=" << cut;
    // Complete records before the cut survive; the torn tail is dropped.
    size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= cut) {
      ++complete;
    }
    ASSERT_EQ(wal.value()->recovered().size(), complete) << "cut=" << cut;
    const size_t dropped = cut < boundaries[0] ? 0 : cut - boundaries[complete];
    EXPECT_EQ(wal.value()->truncated_bytes(), dropped) << "cut=" << cut;
    EXPECT_EQ(wal.value()->size_bytes(), boundaries[complete])
        << "cut=" << cut;
    EXPECT_EQ(ReadFileToString(torn).value(),
              bytes.substr(0, boundaries[complete]))
        << "cut=" << cut;
    for (size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(wal.value()->recovered()[i].payload, records[i].payload)
          << "cut=" << cut << " record " << i;
    }
    // The log continues cleanly from the truncation boundary.
    ASSERT_TRUE(wal.value()->Append(99, "post-crash").ok()) << "cut=" << cut;
    wal.value().reset();
    auto reopened = Wal::Open(torn, {});
    ASSERT_TRUE(reopened.ok()) << "cut=" << cut;
    ASSERT_EQ(reopened.value()->recovered().size(), complete + 1)
        << "cut=" << cut;
    EXPECT_EQ(reopened.value()->recovered().back().payload, "post-crash");
  }
}

// A flipped byte anywhere in the records invalidates the record containing
// it; recovery keeps exactly the records before the corruption. A flip in
// the file magic makes the whole log unrecognizable: Open refuses it and
// leaves the file untouched.
TEST(WalRecoveryTest, ByteFlipCorruptionKeepsValidPrefix) {
  const std::string path = TempPath("wal_flip_master.wal");
  const std::vector<Wal::Record> records = TestRecords();
  std::vector<size_t> boundaries;
  {
    auto wal = Wal::Open(path, {});
    ASSERT_TRUE(wal.ok());
    boundaries.push_back(wal.value()->size_bytes());
    for (const Wal::Record& r : records) {
      ASSERT_TRUE(wal.value()->Append(r.type, r.payload).ok());
      boundaries.push_back(wal.value()->size_bytes());
    }
  }
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  const std::string bytes = std::move(raw).value();

  const std::string flipped = TempPath("wal_flip.wal");
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    ASSERT_TRUE(WriteFileAtomic(flipped, corrupt).ok());
    auto wal = Wal::Open(flipped, {});
    if (pos < boundaries[0]) {
      EXPECT_EQ(wal.status().code(), StatusCode::kIoError) << "pos=" << pos;
      EXPECT_EQ(ReadFileToString(flipped).value(), corrupt) << "pos=" << pos;
      continue;
    }
    ASSERT_TRUE(wal.ok()) << "pos=" << pos;
    // The record containing the flipped byte fails its checksum (or its
    // length field), so recovery stops right before it.
    size_t hit = 0;
    while (boundaries[hit + 1] <= pos) ++hit;
    ASSERT_EQ(wal.value()->recovered().size(), hit) << "pos=" << pos;
    for (size_t i = 0; i < hit; ++i) {
      EXPECT_EQ(wal.value()->recovered()[i].payload, records[i].payload)
          << "pos=" << pos << " record " << i;
    }
    EXPECT_GT(wal.value()->truncated_bytes(), 0u) << "pos=" << pos;
  }
}

// A log written by the previous WAL version: no file magic, records
// checksummed with 64-bit FNV-1a.
std::string ParentFormatLog(const std::vector<Wal::Record>& records) {
  std::string log;
  for (const Wal::Record& r : records) {
    std::string header;
    WritePod(&header, static_cast<uint32_t>(r.payload.size()));
    WritePod(&header, r.type);
    uint64_t fnv = 0xCBF29CE484222325ull;
    for (const char c : header + r.payload) {
      fnv ^= static_cast<unsigned char>(c);
      fnv *= 0x100000001B3ull;
    }
    WritePod(&header, fnv);
    log += header + r.payload;
  }
  return log;
}

// Every record of an older-format log fails the current checksum. Read as a
// torn tail, the log would be truncated to nothing and every accepted,
// unconsumed domain silently dropped; instead Open and Recover refuse it
// and the file stays byte-identical.
TEST(WalRecoveryTest, LogWithoutMagicIsRefusedUntouched) {
  const std::string path = TempPath("wal_parent_format.wal");
  for (const std::string& log :
       {ParentFormatLog(TestRecords()), std::string("\x05\0\0", 3)}) {
    ASSERT_TRUE(WriteFileAtomic(path, log).ok());
    auto wal = Wal::Open(path, {});
    ASSERT_EQ(wal.status().code(), StatusCode::kIoError);
    EXPECT_NE(wal.status().message().find("bad magic"), std::string::npos)
        << wal.status().ToString();
    EXPECT_EQ(ReadFileToString(path).value(), log);

    StreamEngineOptions options;
    options.num_workers = 1;
    options.wal_path = path;
    StreamEngine engine(options);
    EXPECT_EQ(engine.Recover("").code(), StatusCode::kIoError);
    EXPECT_EQ(engine.num_streams(), 0);
    EXPECT_EQ(ReadFileToString(path).value(), log);
  }
}

// --- Engine-level crash replay --------------------------------------------

// Kill-between-accepted-domains simulation: every PushDomain appends its
// record before returning, so a copy of the WAL taken while training is
// still in flight is exactly the on-disk state of a process killed there.
// Recovering from that image must reproduce the uninterrupted run bitwise.
TEST(WalRecoveryTest, ReplayAfterSimulatedKillIsBitIdentical) {
  const int kStreams = 2;
  const int kDomains = 3;
  std::vector<CerlConfig> configs;
  std::vector<std::vector<DataSplit>> domains;
  for (int s = 0; s < kStreams; ++s) {
    configs.push_back(FastConfig(500 + 31 * s));
    domains.push_back(MakeStream(60 + s, kDomains, 0.3 + 0.2 * s));
  }

  StreamEngineOptions plain;
  plain.num_workers = 2;
  StreamEngine reference(plain);
  for (int s = 0; s < kStreams; ++s) {
    reference.AddStream("tenant-" + std::to_string(s), configs[s], kFeatures);
    for (const DataSplit& split : domains[s]) {
      ASSERT_TRUE(reference.PushDomain(s, split).ok());
    }
  }
  reference.Drain();

  const std::string wal_path = TempPath("wal_kill.wal");
  const std::string crash_image = TempPath("wal_kill_crash.wal");
  {
    StreamEngineOptions options = plain;
    options.wal_path = wal_path;
    StreamEngine original(options);
    ASSERT_TRUE(original.OpenStorage().ok());
    for (int s = 0; s < kStreams; ++s) {
      original.AddStream("tenant-" + std::to_string(s), configs[s],
                         kFeatures);
    }
    for (int d = 0; d < kDomains; ++d) {
      for (int s = 0; s < kStreams; ++s) {
        ASSERT_TRUE(original.PushDomain(s, domains[s][d]).ok());
      }
    }
    // "Crash": capture the log while most domains are still queued or
    // training. Accepted-implies-logged means the image holds all of them.
    CopyFile(wal_path, crash_image);
    original.Drain();  // the original finishes normally; we recover the copy
  }

  StreamEngineOptions options = plain;
  options.wal_path = crash_image;
  StreamEngine recovered(options);
  ASSERT_TRUE(recovered.Recover("").ok());
  ASSERT_EQ(recovered.num_streams(), kStreams);
  recovered.Drain();
  for (int s = 0; s < kStreams; ++s) {
    EXPECT_EQ(recovered.name(s), "tenant-" + std::to_string(s));
    ASSERT_EQ(recovered.results(s).size(), static_cast<size_t>(kDomains));
    ExpectTrainersBitIdentical(&reference.trainer(s), &recovered.trainer(s),
                               domains[s][0].test.x,
                               "stream " + std::to_string(s));
  }
}

// A fault-injected WAL append rejects the push with IoError and the domain
// leaves no trace: not in the results, not in the recovered log.
TEST(WalRecoveryTest, FaultedAppendRejectsTheDomain) {
  const CerlConfig config = FastConfig(700);
  const std::vector<DataSplit> domains = MakeStream(70, 2, 0.4);
  const std::string wal_path = TempPath("wal_fault.wal");

  {
    StreamEngineOptions options;
    options.num_workers = 2;
    options.wal_path = wal_path;
    StreamEngine engine(options);
    ASSERT_TRUE(engine.OpenStorage().ok());
    const int id = engine.AddStream("faulted", config, kFeatures);

    FaultInjector::Global().Arm(FaultPoint::kIoWrite, /*scope=*/"",
                                /*probability=*/1.0, /*max_fires=*/1,
                                /*seed=*/1);
    const Status rejected = engine.PushDomain(id, domains[0]);
    FaultInjector::Global().Reset();
    EXPECT_EQ(rejected.code(), StatusCode::kIoError);

    ASSERT_TRUE(engine.PushDomain(id, domains[0]).ok());
    engine.Drain();
    // The rejected push left no result slot; the accepted retry trained.
    ASSERT_EQ(engine.results(id).size(), 1u);
    EXPECT_EQ(engine.results(id)[0].domain_index, 0);
    EXPECT_EQ(engine.storage_stats().wal_records, 2u);  // AddStream + domain
  }

  // The log carries exactly the accepted mutations.
  auto wal = Wal::Open(wal_path, {});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->recovered().size(), 2u);
  EXPECT_EQ(wal.value()->truncated_bytes(), 0u);
}

// SaveSnapshot compacts the log down to what the snapshot does not subsume;
// snapshot + compacted WAL still recover the full run bit-identically.
TEST(WalRecoveryTest, SnapshotCompactionKeepsRecoveryExact) {
  const CerlConfig config = FastConfig(800);
  const std::vector<DataSplit> domains = MakeStream(80, 3, 0.5);
  const std::string wal_path = TempPath("wal_compact.wal");
  const std::string snap_path = TempPath("wal_compact.snap");

  StreamEngineOptions plain;
  plain.num_workers = 2;
  StreamEngine reference(plain);
  reference.AddStream("tenant", config, kFeatures);
  for (const DataSplit& split : domains) {
    ASSERT_TRUE(reference.PushDomain(0, split).ok());
  }
  reference.Drain();

  {
    StreamEngineOptions options = plain;
    options.wal_path = wal_path;
    StreamEngine original(options);
    ASSERT_TRUE(original.OpenStorage().ok());
    original.AddStream("tenant", config, kFeatures);
    ASSERT_TRUE(original.PushDomain(0, domains[0]).ok());
    ASSERT_TRUE(original.PushDomain(0, domains[1]).ok());
    original.Drain();
    const uint64_t bytes_before = original.storage_stats().wal_bytes;
    ASSERT_GT(bytes_before, 0u);
    ASSERT_TRUE(original.SaveSnapshot(snap_path).ok());
    // Drained engine + snapshot: every logged record is subsumed.
    EXPECT_LT(original.storage_stats().wal_bytes, bytes_before);
    ASSERT_TRUE(original.PushDomain(0, domains[2]).ok());
    original.Drain();
  }

  StreamEngineOptions options = plain;
  options.wal_path = wal_path;
  StreamEngine recovered(options);
  ASSERT_TRUE(recovered.Recover(snap_path).ok());
  recovered.Drain();
  ASSERT_EQ(recovered.num_streams(), 1);
  ExpectTrainersBitIdentical(&reference.trainer(0), &recovered.trainer(0),
                             domains[0].test.x, "compacted");
}

}  // namespace
}  // namespace cerl::stream
