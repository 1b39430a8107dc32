// CERL checkpointing: persists exactly the state the method itself keeps
// between stages — the current model h_{theta_d}(g_{w_d}) with its scalers,
// the representation memory M_d, the stage counter, and the trainer RNG
// stream. By construction no raw covariates of past domains are written (the
// accessibility criterion), so a checkpoint is as privacy-compatible as the
// in-memory state — and it is the ENTIRE durable state: a restored trainer
// continues bit-identically to the uninterrupted run.
//
// Format CERLCKP2 (frozen; golden fixtures under tests/testdata/):
//   magic "CERLCKP2",
//   u32 stage_count, u32 input_dim,
//   rng (u64 words[4], u8 has_cached_normal, f64 cached_normal),
//   x-scaler (u32 dim, mean[], u32 dim, std[]; dim must equal input_dim),
//   y-scaler (f64 mean, f64 std, u8 fitted),
//   parameter block (nn/serialize CERLPAR1 framing),
//   memory (u32 rows, u32 cols, reps[], u32 rows, y[], t[] as u8),
//   u64 Checksum64 (util/binary_io) of all preceding bytes.
//
// Reads are bounds-checked (every length field is validated against the
// bytes actually present before any allocation) and staged: ParseCheckpoint
// (core/checkpoint.h) validates the whole payload, and only then does
// DeserializeCheckpoint mutate the trainer, so corrupt or mismatched
// checkpoints return a typed Status and leave the trainer untouched. The
// serving plane's DecodeEffectSnapshot runs the same parser.
//
// The magic is checked before the checksum, so a blob of another version
// (CERLCKP1 differs only in its FNV-1a checksum) fails with an error that
// names its magic instead of reading as corruption.
#include "core/checkpoint.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "core/cerl_trainer.h"
#include "nn/serialize.h"
#include "util/binary_io.h"

namespace cerl::core {
namespace {

constexpr std::string_view kMagic = "CERLCKP2";

// Decode-time cap on memory rows: generous (the bank is bounded by
// memory_capacity, typically hundreds) yet small enough that a corrupted
// count can neither overflow the byte math nor the int casts.
constexpr uint32_t kMaxMemoryRows = 1u << 27;

bool PositiveFinite(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

Status CerlTrainer::SerializeCheckpoint(std::string* out) {
  if (model_ == nullptr) {
    return Status::FailedPrecondition(
        "nothing to checkpoint: no domain observed yet");
  }
  out->clear();
  out->append(kMagic);
  WritePod(out, static_cast<uint32_t>(stages_seen_));
  WritePod(out, static_cast<uint32_t>(input_dim_));

  // Trainer RNG: consumed by the w/o-herding memory subsampling; persisting
  // it is what makes "save -> load -> continue" bitwise-equal to the
  // uninterrupted run under every ablation, not just the default config.
  const Rng::State rng_state = rng_.SaveState();
  for (uint64_t word : rng_state.words) WritePod(out, word);
  WritePod(out, static_cast<uint8_t>(rng_state.has_cached_normal ? 1 : 0));
  WritePod(out, rng_state.cached_normal);

  causal::RepOutcomeNet& net = model_->net();
  WriteF64Vector(out, net.x_scaler().mean());
  WriteF64Vector(out, net.x_scaler().std());
  WritePod(out, net.y_scaler().mean());
  WritePod(out, net.y_scaler().scale());
  WritePod(out, static_cast<uint8_t>(net.y_scaler().fitted() ? 1 : 0));

  {
    std::ostringstream params;
    CERL_RETURN_IF_ERROR(
        nn::SaveParametersToStream(params, net.Parameters()));
    out->append(params.str());
  }

  const uint32_t mem_rows = static_cast<uint32_t>(memory_.size());
  const uint32_t mem_cols =
      memory_.empty() ? 0 : static_cast<uint32_t>(memory_.rep_dim());
  WritePod(out, mem_rows);
  WritePod(out, mem_cols);
  if (!memory_.empty()) {
    out->append(reinterpret_cast<const char*>(memory_.reps().data()),
                memory_.reps().size() * sizeof(double));
    WriteF64Vector(out, memory_.y());
    for (int t : memory_.t()) WritePod(out, static_cast<uint8_t>(t));
  }
  AppendChecksum(out);
  return Status::Ok();
}

Status ParseCheckpoint(std::string_view bytes, const causal::NetConfig& net,
                       int input_dim, bool keep_memory_reps,
                       ParsedCheckpoint* out) {
  CERL_RETURN_IF_ERROR(CheckMagic(bytes, kMagic, "checkpoint"));
  Result<std::string_view> verified = VerifyChecksum(bytes, "checkpoint");
  if (!verified.ok()) return verified.status();
  const std::string_view payload = verified.value();

  ViewStreambuf buf(payload);
  std::istream in(&buf);
  BoundedReader r(&in, payload.size());

  char magic[kMagic.size()];  // matched above; the read bounds-checks it
  CERL_RETURN_IF_ERROR(r.ReadRaw(magic, sizeof(magic), "magic"));
  uint32_t stages = 0, blob_input_dim = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&stages, "stage count"));
  CERL_RETURN_IF_ERROR(r.ReadPod(&blob_input_dim, "input dim"));
  // Counters land in ints; cap them so a corrupt value cannot go negative
  // through the cast (the checksum is integrity-only, not a trust boundary).
  if (stages == 0 || stages > (1u << 30)) {
    return Status::IoError("implausible checkpoint stage count " +
                           std::to_string(stages));
  }
  if (static_cast<int>(blob_input_dim) != input_dim) {
    return Status::InvalidArgument(
        "checkpoint input dim " + std::to_string(blob_input_dim) +
        " does not match trainer input dim " + std::to_string(input_dim));
  }
  out->stages = static_cast<int>(stages);

  for (uint64_t& word : out->rng.words) {
    CERL_RETURN_IF_ERROR(r.ReadPod(&word, "rng state"));
  }
  uint8_t rng_cached = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&rng_cached, "rng cached flag"));
  if (rng_cached > 1) {
    return Status::IoError("checkpoint rng cached flag is not 0/1");
  }
  out->rng.has_cached_normal = rng_cached != 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&out->rng.cached_normal, "rng cached"));

  // Scaler dimensions must match the trainer's input dimension — a mismatch
  // means the file belongs to a different feature space and reading on would
  // standardize garbage.
  CERL_RETURN_IF_ERROR(
      ReadF64VectorExpected(&r, blob_input_dim, &out->x_mean,
                            "x-scaler mean"));
  CERL_RETURN_IF_ERROR(
      ReadF64VectorExpected(&r, blob_input_dim, &out->x_std,
                            "x-scaler std"));
  uint8_t y_fitted = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&out->y_mean, "y-scaler mean"));
  CERL_RETURN_IF_ERROR(r.ReadPod(&out->y_std, "y-scaler std"));
  CERL_RETURN_IF_ERROR(r.ReadPod(&y_fitted, "y-scaler fitted flag"));
  if (y_fitted > 1) {
    return Status::IoError("checkpoint y-scaler flag is not 0/1");
  }
  out->y_fitted = y_fitted != 0;
  // The scalers divide by these stds and OutcomeScaler::Restore CHECK-aborts
  // on a non-positive one. Fit floors every std at 1e-8, so no blob it
  // wrote is rejected here. A non-finite mean would serve non-finite
  // effects, and no Fit writes one either.
  if (!PositiveFinite(out->y_std)) {
    return Status::IoError("checkpoint y-scaler std is not positive finite");
  }
  if (!std::isfinite(out->y_mean)) {
    return Status::IoError("checkpoint y-scaler mean is not finite");
  }
  for (double s : out->x_std) {
    if (!PositiveFinite(s)) {
      return Status::IoError("checkpoint x-scaler std is not positive finite");
    }
  }
  for (double m : out->x_mean) {
    if (!std::isfinite(m)) {
      return Status::IoError("checkpoint x-scaler mean is not finite");
    }
  }

  // The parameter block must match this architecture name-for-name and
  // shape-for-shape (that is the architecture compatibility check).
  Result<size_t> block = nn::ParseParameterBlock(
      payload.substr(payload.size() - r.remaining()),
      causal::NetParameterSpecs(net, input_dim), &out->params);
  if (!block.ok()) return block.status();
  CERL_RETURN_IF_ERROR(r.Skip(block.value(), "parameter block"));

  uint32_t mem_rows = 0, mem_cols = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&mem_rows, "memory rows"));
  CERL_RETURN_IF_ERROR(r.ReadPod(&mem_cols, "memory cols"));
  if (mem_rows > 0) {
    if (mem_rows > kMaxMemoryRows) {
      return Status::IoError("implausible memory row count " +
                             std::to_string(mem_rows));
    }
    if (static_cast<int>(mem_cols) != net.rep_dim) {
      return Status::IoError("memory rep dim " + std::to_string(mem_cols) +
                             " does not match model rep dim " +
                             std::to_string(net.rep_dim));
    }
    const uint64_t rep_bytes =
        static_cast<uint64_t>(mem_rows) * mem_cols * sizeof(double);
    if (keep_memory_reps) {
      CERL_RETURN_IF_ERROR(r.Require(rep_bytes, "memory representations"));
      out->memory_reps.Resize(static_cast<int>(mem_rows),
                              static_cast<int>(mem_cols));
      CERL_RETURN_IF_ERROR(r.ReadRaw(out->memory_reps.data(), rep_bytes,
                                     "memory representations"));
    } else {
      CERL_RETURN_IF_ERROR(r.Skip(rep_bytes, "memory representations"));
    }
    CERL_RETURN_IF_ERROR(ReadF64VectorExpected(&r, mem_rows, &out->memory_y,
                                               "memory outcomes"));
    // One byte per unit, validated in place rather than read one by one.
    const std::string_view t_bytes =
        payload.substr(payload.size() - r.remaining(), mem_rows);
    CERL_RETURN_IF_ERROR(r.Skip(mem_rows, "memory treatments"));
    out->memory_t.resize(mem_rows);
    for (uint32_t i = 0; i < mem_rows; ++i) {
      const auto b = static_cast<uint8_t>(t_bytes[i]);
      if (b > 1) {
        return Status::IoError("memory treatment is not 0/1");
      }
      out->memory_t[i] = b;
    }
  }
  if (r.remaining() != 0) {
    return Status::IoError("checkpoint has " + std::to_string(r.remaining()) +
                           " trailing bytes");
  }
  return Status::Ok();
}

Status CerlTrainer::DeserializeCheckpoint(std::string_view bytes) {
  if (stages_seen_ != 0) {
    return Status::FailedPrecondition(
        "checkpoint restore requires a fresh trainer");
  }
  // Everything is parsed and validated before the trainer is touched
  // (all-or-nothing restore).
  ParsedCheckpoint parsed;
  CERL_RETURN_IF_ERROR(ParseCheckpoint(bytes, config_.net, input_dim_,
                                       /*keep_memory_reps=*/true, &parsed));

  // Commit. The model is built from the parsed weights without drawing
  // initial ones; its own RNG is never consumed, because a restored model
  // is never trained (BeginStage builds each stage's model afresh).
  model_ = std::make_unique<causal::CfrModel>(
      config_.net, config_.train, input_dim_, /*draw_initial_weights=*/false);
  causal::RepOutcomeNet& net = model_->net();
  const std::vector<autodiff::Parameter*> params = net.Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), parsed.params[i].data(),
                parsed.params[i].size());
  }
  net.x_scaler().Restore(std::move(parsed.x_mean), std::move(parsed.x_std));
  if (parsed.y_fitted) net.y_scaler().Restore(parsed.y_mean, parsed.y_std);
  memory_.Clear();
  if (!parsed.memory_t.empty()) {
    memory_.Append(parsed.memory_reps, parsed.memory_y, parsed.memory_t);
  }
  stages_seen_ = parsed.stages;
  rng_.RestoreState(parsed.rng);
  return Status::Ok();
}

Status CerlTrainer::SaveCheckpoint(const std::string& path) {
  std::string payload;
  CERL_RETURN_IF_ERROR(SerializeCheckpoint(&payload));
  return WriteFileAtomic(path, payload);
}

Status CerlTrainer::LoadCheckpoint(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeCheckpoint(bytes.value());
}

}  // namespace cerl::core
