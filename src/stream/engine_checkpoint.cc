// Engine-level snapshot/restore (StreamEngine::SaveSnapshot/LoadSnapshot).
//
// A multi-tenant CERL server's entire durable state is: per stream, the
// trainer's continual state (model + scalers + memory M_d + stage counter +
// RNG — the CERLCKP2 payload from core/checkpoint.cc) plus the domains that
// were accepted but not consumed yet. The container holds only the first:
// the accepted-but-unconsumed domains live in the WAL alone (see
// engine_storage.cc), so nothing in the container is raw covariates — the
// paper's accessibility criterion.
//
// Format CERLENG6 (golden fixtures under tests/testdata/ pin the layout):
//   magic "CERLENG6",
//   u32 num_workers                                (informational),
//   u32 num_streams, then per stream:
//     u32 name_len, name bytes,
//     u32 input_dim,
//     CerlConfig block (fixed field order, see snapfmt::WriteConfig),
//     u32 completed_domains                        (consumed; resumes
//       domain indices),
//     u8 health, u32 consecutive_failures, u32 failed_domains,
//     3 x { f64 rate_ms_per_unit, i64 count }      (the stream's learned
//       StageCostModel rates),
//     u8 has_trainer, [u64 blob_len, CERLCKP2 payload incl. its checksum],
//   u64 Checksum64 (util/binary_io).
// The magic is checked first, so an older container (CERLENG5 differs only
// in its FNV-1a checksums) fails with an error that names its magic.
//
// Checksum scope: the trailing hash covers the container METADATA only —
// the embedded CERLCKP2 blob spans are excluded. Each blob already carries
// its own whole-payload checksum (verified when LoadSnapshot decodes it),
// so corruption anywhere is still detected; what the exclusion buys is that
// SaveSnapshot appends each captured blob once and never re-hashes
// megabytes of parameters.
//
// The last-good rollback blob is NOT a separate field: the embedded blob is
// the stream's state after its consumed domains, which IS its last-good
// state — LoadSnapshot re-seeds each stream's rollback target from it.
//
// LoadSnapshot publishes every trained stream's snapshot decoded straight
// from its blob. An engine with a spill store and a resident budget then
// restores no trainer at all: each trained stream starts spilled, and the
// store adopts its blob as a byte range of the snapshot file (cold start,
// O(decode) per tenant). Otherwise every trainer is restored too.
//
// Every read is bounds-checked against the remaining payload before
// allocating, and LoadSnapshot stages the entire engine (streams, trainers
// and snapshots) before publishing anything — a corrupt snapshot leaves the
// target engine with zero streams and adopts no range.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/tenant_store.h"
#include "stream/stream_engine.h"
#include "stream/stream_internal.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace cerl::stream {
namespace {

constexpr std::string_view kMagic = "CERLENG6";

// Decode-time sanity caps: generous for any real deployment, small enough
// that a corrupted count fails fast with a descriptive error instead of an
// attempted allocation (the byte-level guard is BoundedReader::Require) —
// and, for the dataset dims, small enough that rows * cols * 8 can never
// overflow uint64 and defeat that guard. The stream/name caps live in
// snapfmt (stream_internal.h) because the WAL replay path shares them.
constexpr uint32_t kMaxHiddenLayers = 1u << 10;
constexpr uint32_t kMaxLayerWidth = 1u << 20;
constexpr uint32_t kMaxUnits = 1u << 27;
constexpr uint32_t kMaxFeatures = 1u << 24;

void WriteIntVector(std::string* out, const std::vector<int>& v) {
  WritePod(out, static_cast<uint32_t>(v.size()));
  for (int x : v) WritePod(out, static_cast<int32_t>(x));
}

// Reads a hidden-layer width list; widths are construction inputs (Mlp
// CHECK-aborts on non-positive sizes), so they are validated here where a
// bad value is still a clean decode error.
Status ReadIntVector(BoundedReader* r, std::vector<int>* v,
                     const char* what) {
  uint32_t n = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&n, what));
  if (n > kMaxHiddenLayers) {
    return Status::IoError(std::string(what) + ": implausible count " +
                           std::to_string(n));
  }
  CERL_RETURN_IF_ERROR(r->Require(static_cast<uint64_t>(n) * 4, what));
  v->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t x = 0;
    CERL_RETURN_IF_ERROR(r->ReadPod(&x, what));
    if (x < 1 || x > static_cast<int32_t>(kMaxLayerWidth)) {
      return Status::IoError(std::string(what) + ": implausible width " +
                             std::to_string(x));
    }
    (*v)[i] = x;
  }
  return Status::Ok();
}

Status ReadBool(BoundedReader* r, bool* v, const char* what) {
  uint8_t b = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&b, what));
  if (b > 1) {
    return Status::IoError(std::string(what) + ": flag is not 0/1");
  }
  *v = b != 0;
  return Status::Ok();
}

// --- DataSplit dataset codec (WAL domain records) -------------------------

void WriteDataset(std::string* out, const data::CausalDataset& d) {
  WritePod(out, static_cast<uint32_t>(d.x.rows()));
  WritePod(out, static_cast<uint32_t>(d.x.cols()));
  out->append(reinterpret_cast<const char*>(d.x.data()),
              static_cast<size_t>(d.x.size()) * sizeof(double));
  for (int t : d.t) WritePod(out, static_cast<uint8_t>(t));
  WriteF64Vector(out, d.y);
  WriteF64Vector(out, d.mu0);
  WriteF64Vector(out, d.mu1);
}

// A mu column is either aligned with the units or absent (production
// domains without counterfactual ground truth serialize empty mu vectors).
Status ReadMuColumn(BoundedReader* r, uint32_t rows, linalg::Vector* v,
                    const char* what) {
  uint32_t n = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&n, what));
  if (n != rows && n != 0) {
    return Status::IoError(std::string(what) + ": size " + std::to_string(n) +
                           " does not match unit count " +
                           std::to_string(rows));
  }
  CERL_RETURN_IF_ERROR(
      r->Require(static_cast<uint64_t>(n) * sizeof(double), what));
  v->resize(n);
  return r->ReadRaw(v->data(), static_cast<uint64_t>(n) * sizeof(double),
                    what);
}

Status ReadDataset(BoundedReader* r, data::CausalDataset* d,
                   const char* what) {
  uint32_t rows = 0, cols = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&rows, what));
  CERL_RETURN_IF_ERROR(r->ReadPod(&cols, what));
  // The caps keep rows * cols * 8 far below uint64 overflow (2^27 * 2^24 *
  // 2^3 = 2^54), so the Require byte check below cannot be defeated by
  // wraparound.
  if (rows > kMaxUnits) {
    return Status::IoError(std::string(what) + ": implausible unit count " +
                           std::to_string(rows));
  }
  if (cols > kMaxFeatures) {
    return Status::IoError(std::string(what) +
                           ": implausible feature count " +
                           std::to_string(cols));
  }
  const uint64_t x_bytes = static_cast<uint64_t>(rows) * cols * sizeof(double);
  CERL_RETURN_IF_ERROR(r->Require(x_bytes, what));
  d->x.Resize(static_cast<int>(rows), static_cast<int>(cols));
  CERL_RETURN_IF_ERROR(r->ReadRaw(d->x.data(), x_bytes, what));
  CERL_RETURN_IF_ERROR(r->Require(rows, what));
  d->t.resize(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    uint8_t b = 0;
    CERL_RETURN_IF_ERROR(r->ReadPod(&b, what));
    if (b > 1) {
      return Status::IoError(std::string(what) +
                             ": treatment is not 0/1");
    }
    d->t[i] = b;
  }
  CERL_RETURN_IF_ERROR(ReadF64VectorExpected(r, rows, &d->y, what));
  CERL_RETURN_IF_ERROR(ReadMuColumn(r, rows, &d->mu0, what));
  CERL_RETURN_IF_ERROR(ReadMuColumn(r, rows, &d->mu1, what));
  return Status::Ok();
}

// Checksum64 over `bytes` minus the embedded blob spans (offset, length),
// in order: the container's metadata checksum.
uint64_t MetadataHash(std::string_view bytes,
                      const std::vector<std::pair<size_t, size_t>>& spans) {
  Checksum64Stream hasher;
  size_t pos = 0;
  for (const auto& span : spans) {
    hasher.Update(bytes.substr(pos, span.first - pos));
    pos = span.first + span.second;
  }
  hasher.Update(bytes.substr(pos));
  return hasher.digest();
}

}  // namespace

// Shared snapshot/WAL wire codecs (declared in stream_internal.h): the WAL
// registration records reuse the config codec verbatim, and the WAL domain
// records carry the split codec.
namespace snapfmt {

// --- CerlConfig codec (fixed field order; the CERLENG6 magic versions it) --

void WriteConfig(std::string* out, const core::CerlConfig& c) {
  WriteIntVector(out, c.net.rep_hidden);
  WritePod(out, static_cast<int32_t>(c.net.rep_dim));
  WriteIntVector(out, c.net.head_hidden);
  WritePod(out, static_cast<uint8_t>(c.net.activation));
  WritePod(out, static_cast<uint8_t>(c.net.cosine_normalized_rep ? 1 : 0));

  WritePod(out, static_cast<int32_t>(c.train.epochs));
  WritePod(out, static_cast<int32_t>(c.train.batch_size));
  WritePod(out, c.train.learning_rate);
  WritePod(out, static_cast<int32_t>(c.train.patience));
  WritePod(out, c.train.alpha);
  WritePod(out, c.train.lambda);
  WritePod(out, static_cast<uint8_t>(c.train.ipm));
  WritePod(out, c.train.sinkhorn.reg_fraction);
  WritePod(out, static_cast<int32_t>(c.train.sinkhorn.max_iterations));
  WritePod(out, c.train.sinkhorn.tolerance);
  // Reserved: four retired fields keep their slots, written as their old
  // defaults so the layout does not change — sinkhorn.warm_start (u8 1),
  // sinkhorn.parallel (u8 1), sinkhorn.min_parallel_elements (i64 4096)
  // and, after verbose, async_validation (u8 0). ReadConfig reads and
  // ignores them.
  WritePod(out, uint8_t{1});
  WritePod(out, uint8_t{1});
  WritePod(out, int64_t{4096});
  WritePod(out, static_cast<uint64_t>(c.train.seed));
  WritePod(out, static_cast<uint8_t>(c.train.verbose ? 1 : 0));
  WritePod(out, uint8_t{0});

  WritePod(out, c.beta);
  WritePod(out, c.delta);
  WritePod(out, static_cast<int32_t>(c.memory_capacity));
  WritePod(out, static_cast<uint8_t>(c.use_transform ? 1 : 0));
  WritePod(out, static_cast<uint8_t>(c.use_herding ? 1 : 0));
  WritePod(out, static_cast<uint8_t>(c.init_from_previous ? 1 : 0));
  WritePod(out, c.continual_lr_scale);
  WriteIntVector(out, c.transform_hidden);
}

Status ReadConfig(BoundedReader* r, core::CerlConfig* c) {
  int32_t i32 = 0;
  uint8_t u8 = 0;

  CERL_RETURN_IF_ERROR(ReadIntVector(r, &c->net.rep_hidden, "rep_hidden"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "rep_dim"));
  if (i32 < 1 || i32 > static_cast<int32_t>(kMaxLayerWidth)) {
    return Status::IoError("implausible rep_dim " + std::to_string(i32));
  }
  c->net.rep_dim = i32;
  CERL_RETURN_IF_ERROR(ReadIntVector(r, &c->net.head_hidden, "head_hidden"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&u8, "activation"));
  if (u8 > static_cast<uint8_t>(nn::Activation::kSigmoid)) {
    return Status::IoError("unknown activation code " + std::to_string(u8));
  }
  c->net.activation = static_cast<nn::Activation>(u8);
  CERL_RETURN_IF_ERROR(
      ReadBool(r, &c->net.cosine_normalized_rep, "cosine flag"));

  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "epochs"));
  if (i32 < 0) return Status::IoError("negative epochs");
  c->train.epochs = i32;
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "batch_size"));
  if (i32 < 1) return Status::IoError("non-positive batch_size");
  c->train.batch_size = i32;
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->train.learning_rate, "learning_rate"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "patience"));
  c->train.patience = i32;
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->train.alpha, "alpha"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->train.lambda, "lambda"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&u8, "ipm kind"));
  if (u8 > static_cast<uint8_t>(ot::IpmKind::kLinearMmd)) {
    return Status::IoError("unknown IPM code " + std::to_string(u8));
  }
  c->train.ipm = static_cast<ot::IpmKind>(u8);
  CERL_RETURN_IF_ERROR(
      r->ReadPod(&c->train.sinkhorn.reg_fraction, "reg_fraction"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "max_iterations"));
  c->train.sinkhorn.max_iterations = i32;
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->train.sinkhorn.tolerance, "tolerance"));
  int64_t reserved_i64 = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&u8, "reserved warm-start flag"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&u8, "reserved sinkhorn flag"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&reserved_i64, "reserved sinkhorn size"));
  uint64_t seed = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&seed, "seed"));
  c->train.seed = seed;
  CERL_RETURN_IF_ERROR(ReadBool(r, &c->train.verbose, "verbose"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&u8, "reserved validation flag"));

  CERL_RETURN_IF_ERROR(r->ReadPod(&c->beta, "beta"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&c->delta, "delta"));
  CERL_RETURN_IF_ERROR(r->ReadPod(&i32, "memory_capacity"));
  if (i32 < 0) return Status::IoError("negative memory_capacity");
  c->memory_capacity = i32;
  CERL_RETURN_IF_ERROR(ReadBool(r, &c->use_transform, "use_transform"));
  CERL_RETURN_IF_ERROR(ReadBool(r, &c->use_herding, "use_herding"));
  CERL_RETURN_IF_ERROR(
      ReadBool(r, &c->init_from_previous, "init_from_previous"));
  CERL_RETURN_IF_ERROR(
      r->ReadPod(&c->continual_lr_scale, "continual_lr_scale"));
  CERL_RETURN_IF_ERROR(
      ReadIntVector(r, &c->transform_hidden, "transform_hidden"));
  return Status::Ok();
}

void WriteSplit(std::string* out, const data::DataSplit& split) {
  WriteDataset(out, split.train);
  WriteDataset(out, split.valid);
  WriteDataset(out, split.test);
}

Status ReadSplit(BoundedReader* r, data::DataSplit* split) {
  CERL_RETURN_IF_ERROR(ReadDataset(r, &split->train, "train split"));
  CERL_RETURN_IF_ERROR(ReadDataset(r, &split->valid, "valid split"));
  CERL_RETURN_IF_ERROR(ReadDataset(r, &split->test, "test split"));
  return Status::Ok();
}

}  // namespace snapfmt

Status StreamEngine::SaveSnapshot(const std::string& path,
                                  SnapshotInfo* info) {
  const std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
  // Per stream: every field before has_trainer, and the trainer blob.
  struct Capture {
    std::string head;
    std::shared_ptr<const std::string> blob;
  };
  std::vector<Capture> captures;
  std::vector<uint32_t> consumed;
  SnapshotInfo captured;
  {
    const auto capture_start = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(state_mutex_);
    captures.resize(streams_.size());
    consumed.resize(streams_.size());
    for (size_t i = 0; i < streams_.size(); ++i) {
      const StreamState& s = *streams_[i];
      // The finish task installs last_good and clears in_flight in one
      // critical section, so the blob below is the state after exactly
      // the consumed domains.
      const int pending =
          static_cast<int>(s.queue.size()) + (s.in_flight != nullptr ? 1 : 0);
      consumed[i] = static_cast<uint32_t>(s.pushed - pending);
      captured.pending_domains += pending;
      captured.completed_domains += s.pushed - pending;
      std::string* head = &captures[i].head;
      WritePod(head, static_cast<uint32_t>(s.name.size()));
      head->append(s.name);
      WritePod(head, static_cast<uint32_t>(s.input_dim));
      // The trainer's config is fixed at construction.
      snapfmt::WriteConfig(head, s.trainer.config());
      WritePod(head, consumed[i]);
      // Health block: a restored engine must keep honoring a quarantine and
      // must resume a failure streak where it left off — otherwise a
      // restart would hand a poisoned tenant a fresh error budget.
      WritePod(head, static_cast<uint8_t>(s.health));
      WritePod(head, static_cast<uint32_t>(s.consecutive_failures));
      WritePod(head, static_cast<uint32_t>(s.failed_domains));
      // Cost-model block: a restored backlogged engine schedules with warm
      // estimates from the first dispatch instead of re-learning under load.
      s.cost_model.Serialize(head);
      if (s.resident) {
        captures[i].blob = s.last_good;  // nullptr while untrained
        continue;
      }
      // A spilled stream's state IS its stored blob (embedding it keeps the
      // snapshot self-contained — restore never needs the page store). Read
      // under the lock: a fault-back erases it only in the critical section
      // that flips `resident`.
      if (store_ == nullptr) {
        return Status::Internal("stream '" + s.name +
                                "' is spilled but no store is open");
      }
      Result<std::string> got = store_->Get(s.id);
      if (!got.ok()) return got.status();
      captures[i].blob =
          std::make_shared<const std::string>(std::move(got).value());
    }
    captured.num_streams = static_cast<int>(streams_.size());
    captured.serialize_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                capture_start)
                                .count();
  }
  if (info != nullptr) *info = captured;

  // Assembled off-lock; sized up front so each blob is copied once.
  std::string payload;
  size_t reserve_bytes = 64;
  for (const Capture& c : captures) {
    reserve_bytes += c.head.size() + 16 + (c.blob ? c.blob->size() : 0);
  }
  payload.reserve(reserve_bytes);
  payload.append(kMagic);
  WritePod(&payload, static_cast<uint32_t>(pool_.num_threads()));
  WritePod(&payload, static_cast<uint32_t>(captures.size()));
  std::vector<std::pair<size_t, size_t>> blob_spans;
  for (const Capture& c : captures) {
    payload.append(c.head);
    WritePod(&payload, static_cast<uint8_t>(c.blob != nullptr ? 1 : 0));
    if (c.blob == nullptr) continue;
    WritePod(&payload, static_cast<uint64_t>(c.blob->size()));
    blob_spans.emplace_back(payload.size(), c.blob->size());
    payload.append(*c.blob);
  }
  WritePod(&payload, MetadataHash(payload, blob_spans));

  // Transient IO failures (full disk being cleaned up, a flaky network
  // filesystem, the injected kIoWrite fault) are retried with bounded
  // exponential backoff — the payload is immutable, so a retry can never
  // observe different engine state.
  Status written = WriteFileAtomic(path, payload);
  for (int retry = 1; !written.ok() && retry <= kSnapshotIoRetries; ++retry) {
    std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs(retry)));
    written = WriteFileAtomic(path, payload);
  }
  if (written.ok() && wal_ != nullptr) {
    // Compaction failure is non-fatal: the old WAL remains, and replay
    // dedups subsumed records by domain index.
    Status compacted = CompactWal(consumed);
    if (!compacted.ok()) {
      CERL_LOG(Warning) << "WAL compaction after snapshot failed (log "
                        << "keeps full history): " << compacted.ToString();
    }
  }
  return written;
}

Status StreamEngine::LoadSnapshot(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!streams_.empty()) {
      return Status::FailedPrecondition(
          "LoadSnapshot requires a fresh engine (no streams registered)");
    }
  }
  // One descriptor reads the container, and a cold start keeps it: each
  // cold tenant's blob stays a byte range of this file, so the bytes the
  // store adopts are exactly the bytes verified below.
  Result<std::shared_ptr<const storage::ReadOnlyFile>> opened =
      storage::ReadOnlyFile::Open(path);
  if (!opened.ok()) return opened.status();
  const std::shared_ptr<const storage::ReadOnlyFile> file =
      std::move(opened).value();
  Result<std::string> bytes = file->ReadAt(0, file->size());
  if (!bytes.ok()) return bytes.status();
  const std::string& raw = bytes.value();

  // The checksum covers metadata only (blob spans excluded), so it cannot be
  // verified until the parse has located the spans — see the check below.
  if (raw.size() < kMagic.size() + sizeof(uint64_t)) {
    return Status::IoError("engine snapshot: too short to carry a checksum");
  }
  CERL_RETURN_IF_ERROR(CheckMagic(raw, kMagic, "engine snapshot"));
  const std::string_view payload =
      std::string_view(raw).substr(0, raw.size() - sizeof(uint64_t));
  uint64_t stored_hash = 0;
  std::memcpy(&stored_hash, raw.data() + payload.size(), sizeof(stored_hash));

  ViewStreambuf buf(payload);
  std::istream in(&buf);
  BoundedReader r(&in, payload.size());
  char magic[kMagic.size()];  // matched above
  CERL_RETURN_IF_ERROR(r.ReadRaw(magic, sizeof(magic), "magic"));
  uint32_t saved_workers = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&saved_workers, "worker count"));
  uint32_t num_streams = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&num_streams, "stream count"));
  if (num_streams > snapfmt::kMaxStreams) {
    return Status::IoError("implausible stream count " +
                           std::to_string(num_streams));
  }

  // Cold start: with a spill store and a resident budget no trainer is
  // restored. A trained tenant serves the snapshot decoded from its blob
  // and starts spilled on that blob's byte range of the file, so the
  // restart costs the decode, not a trainer per tenant; its first pushed
  // domain (or EnsureResident) faults the trainer in.
  const bool cold = store_ != nullptr && options_.max_resident_streams > 0;

  // Stage the whole engine before publishing anything: StreamStates are
  // built (and trainers restored) into a local vector, so any failure below
  // leaves this engine with zero streams and the store without ranges.
  std::vector<std::unique_ptr<StreamState>> staged;
  std::vector<std::shared_ptr<const serve::EffectSnapshot>> decoded;
  std::vector<std::pair<size_t, size_t>> blob_spans;
  std::vector<int> blob_streams;  // the stream of each span
  staged.reserve(num_streams);
  decoded.resize(num_streams);
  for (uint32_t i = 0; i < num_streams; ++i) {
    uint32_t name_len = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&name_len, "stream name length"));
    if (name_len > snapfmt::kMaxNameLen) {
      return Status::IoError("implausible stream name length " +
                             std::to_string(name_len));
    }
    CERL_RETURN_IF_ERROR(r.Require(name_len, "stream name"));
    std::string stream_name(name_len, '\0');
    CERL_RETURN_IF_ERROR(r.ReadRaw(stream_name.data(), name_len,
                                   "stream name"));
    uint32_t input_dim = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&input_dim, "stream input dim"));
    if (input_dim == 0 || input_dim > (1u << 24)) {
      return Status::IoError("implausible stream input dim " +
                             std::to_string(input_dim));
    }
    core::CerlConfig config;
    CERL_RETURN_IF_ERROR(snapfmt::ReadConfig(&r, &config));
    uint32_t completed = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&completed, "completed domains"));
    // Lands in StreamState::pushed (an int): cap so a corrupt counter cannot
    // go negative through the cast and poison later domain indices.
    if (completed > (1u << 30)) {
      return Status::IoError("implausible completed-domain count " +
                             std::to_string(completed));
    }
    uint8_t health = 0;
    uint32_t consecutive_failures = 0;
    uint32_t failed_domains = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&health, "stream health"));
    if (health > static_cast<uint8_t>(StreamHealth::kQuarantined)) {
      return Status::IoError("unknown stream health code " +
                             std::to_string(health));
    }
    CERL_RETURN_IF_ERROR(
        r.ReadPod(&consecutive_failures, "consecutive failures"));
    CERL_RETURN_IF_ERROR(r.ReadPod(&failed_domains, "failed domains"));
    if (consecutive_failures > (1u << 30) || failed_domains > (1u << 30)) {
      return Status::IoError("implausible failure counter");
    }

    auto state = std::make_unique<StreamState>(
        std::move(stream_name), config, static_cast<int>(input_dim), &pool_);
    state->id = static_cast<int>(i);
    SetHealth(state.get(), static_cast<StreamHealth>(health));
    state->consecutive_failures = static_cast<int>(consecutive_failures);
    state->failed_domains = static_cast<int>(failed_domains);
    // Home workers are runtime scheduling state: reassigned round-robin for
    // THIS engine's worker count, exactly as AddStream would.
    state->home = static_cast<int>(i) % pool_.num_threads();
    CERL_RETURN_IF_ERROR(state->cost_model.Deserialize(&r));
    uint8_t has_trainer = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&has_trainer, "trainer flag"));
    if (has_trainer > 1) {
      return Status::IoError("snapshot trainer flag is not 0/1");
    }
    if (has_trainer) {
      uint64_t blob_len = 0;
      CERL_RETURN_IF_ERROR(r.ReadPod(&blob_len, "trainer blob length"));
      const size_t blob_at = payload.size() - r.remaining();
      CERL_RETURN_IF_ERROR(r.Skip(blob_len, "trainer blob"));
      const std::string_view blob = payload.substr(blob_at, blob_len);
      // The blob bytes are excluded from the container checksum — record
      // the span for the post-parse verification below.
      blob_spans.emplace_back(blob_at, blob.size());
      blob_streams.push_back(static_cast<int>(i));
      // Every trained stream publishes from its blob, which validates it
      // whole (version 1: publish sequence numbers are engine-lifetime,
      // not durable).
      Result<std::shared_ptr<const serve::EffectSnapshot>> snap =
          serve::DecodeEffectSnapshot(blob, config.net,
                                      static_cast<int>(input_dim), 1);
      if (!snap.ok()) return snap.status();
      decoded[i] = std::move(snap).value();
      if (cold) {
        state->resident = false;  // the store adopts the range at commit
      } else {
        CERL_RETURN_IF_ERROR(state->trainer.DeserializeCheckpoint(blob));
        // The blob is the state after the consumed domains, so it doubles
        // as the restored stream's last-good rollback target.
        state->last_good = std::make_shared<const std::string>(blob);
      }
    }
    state->pushed = static_cast<int>(completed);
    staged.push_back(std::move(state));
  }
  if (r.remaining() != 0) {
    return Status::IoError("engine snapshot has " +
                           std::to_string(r.remaining()) + " trailing bytes");
  }
  // Post-parse metadata verification: hash everything except the blob spans
  // (each blob verified its own checksum in DecodeEffectSnapshot above).
  // Runs before anything is committed, so a corrupt container still leaves
  // the engine with zero streams.
  if (MetadataHash(payload, blob_spans) != stored_hash) {
    return Status::IoError(
        "engine snapshot: checksum mismatch (corrupted file)");
  }

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!streams_.empty()) {
      return Status::FailedPrecondition(
          "engine changed while LoadSnapshot was parsing");
    }
    for (size_t k = 0; cold && k < blob_spans.size(); ++k) {
      Status adopted = store_->Adopt(blob_streams[k], file,
                                     blob_spans[k].first, blob_spans[k].second);
      if (!adopted.ok()) {
        for (size_t j = 0; j < k; ++j) (void)store_->Erase(blob_streams[j]);
        return adopted;
      }
    }
    streams_ = std::move(staged);
  }
  // Publish the serving plane: a trained stream is queryable immediately,
  // before any WAL replay queues work behind it.
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (decoded[i] != nullptr) {
      PublishSnapshot(streams_[i].get(), std::move(decoded[i]));
    }
  }
  return Status::Ok();
}

}  // namespace cerl::stream
