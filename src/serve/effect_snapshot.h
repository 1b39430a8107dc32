// EffectSnapshot — the immutable read-side model a stream publishes for
// effect queries (the serving half of the continual-causal deployment: the
// engine trains on incrementally arriving domains while this snapshot
// answers "which treatment, for this user, now?").
//
// A snapshot is built copy-on-publish from a trainer sitting at a domain
// boundary (or decoded from the trainer's CERLCKP2 blob when no trainer is
// restored at all): the current model's layer weights, the fitted
// input/outcome scalers, and the stage counter are copied into plain
// dense-layer form (no Tape, no Parameters, no trainer pointers), then the
// whole object is frozen behind shared_ptr<const ...> and swapped into the
// stream's read slot with an RCU-style atomic exchange (stream_engine.h
// "QueryEffect").
// Readers therefore never see a half-updated model: they either hold the
// old snapshot or the new one, and the shared_ptr keeps whichever they hold
// alive for the duration of the query — writers never wait on readers.
//
// Bit-identity contract: serve::BatchPredictor evaluated on a snapshot is
// bitwise equal to CerlTrainer::PredictIte on the trainer the snapshot was
// built from (and hence to a checkpoint round-trip of that trainer), under
// either kernel table (CERL_FORCE_SCALAR covered). The cosine layer's
// column normalization is precomputed here at build time with exactly the
// tape's op sequence — the weights are frozen, so normalizing once at
// publish produces the same bits as renormalizing every forward pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "linalg/matrix.h"
#include "nn/module.h"
#include "util/status.h"

namespace cerl::core {
class CerlTrainer;
}
namespace cerl::causal {
struct NetConfig;
}

namespace cerl::serve {

/// One dense layer of the forward-only predictor, frozen at publish.
struct DenseLayer {
  /// in_dim x out_dim. For cosine layers this is the column-L2-normalized
  /// weight (tape sequence precomputed at build; see BuildEffectSnapshot).
  linalg::Matrix weight;
  /// Bias row (out_dim); empty for cosine layers (no bias by construction).
  linalg::Vector bias;
  nn::Activation activation = nn::Activation::kNone;
  bool cosine = false;
};

/// Immutable read-side model of one stream at one domain boundary.
struct EffectSnapshot {
  /// Per-stream publish sequence number, 1-based and strictly increasing.
  uint64_t version = 0;
  /// Trainer stages_seen at publish (== trained domains).
  int stage = 0;
  int input_dim = 0;
  int rep_dim = 0;

  /// g_w then h_0 / h_1, in forward order.
  std::vector<DenseLayer> rep;
  std::vector<DenseLayer> head0;
  std::vector<DenseLayer> head1;

  /// Input standardization (x - mean) / std, per column.
  linalg::Vector x_mean;
  linalg::Vector x_std;
  /// Outcome de-standardization: y_raw = y_scaled * y_scale + y_mean; ITE
  /// scales by y_scale alone (means cancel in the difference).
  double y_mean = 0.0;
  double y_scale = 1.0;

  /// Checksum64 (util/binary_io) over every weight/bias/scaler byte in
  /// build order — recomputable via SnapshotFingerprint, so concurrency
  /// tests can prove a reader never observed a torn snapshot.
  uint64_t fingerprint = 0;
  std::chrono::steady_clock::time_point published_at;
};

/// Copies the trainer's current model into an immutable snapshot tagged
/// `version`. The caller must own the trainer (drained stream or the
/// stream's serialized task group) and have trained >= 1 stage; returns
/// nullptr if the trainer has no model yet.
std::shared_ptr<const EffectSnapshot> BuildEffectSnapshot(
    core::CerlTrainer& trainer, uint64_t version);

/// Decodes a CERLCKP2 trainer blob straight into a snapshot tagged
/// `version`, with no trainer in between: core::ParseCheckpoint (the parser
/// CerlTrainer::DeserializeCheckpoint commits from, so a blob it rejects
/// fails here with the same Status), then BuildEffectSnapshot's layer
/// builder. The result equals BuildEffectSnapshot of the trainer the blob
/// restores into, in every weight and in the fingerprint. `net` and
/// `input_dim` are the architecture the blob must match.
Result<std::shared_ptr<const EffectSnapshot>> DecodeEffectSnapshot(
    std::string_view blob, const causal::NetConfig& net, int input_dim,
    uint64_t version);

/// Recomputes the Checksum64 fingerprint over the snapshot's numeric
/// payload (same traversal order as BuildEffectSnapshot): one streaming
/// digest fed the arrays in order, so it equals Checksum64 of their
/// concatenated bytes.
uint64_t SnapshotFingerprint(const EffectSnapshot& snap);

}  // namespace cerl::serve
