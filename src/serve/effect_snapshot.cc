#include "serve/effect_snapshot.h"

#include <cstring>
#include <utility>

#include "causal/rep_outcome_net.h"
#include "core/cerl_trainer.h"
#include "core/checkpoint.h"
#include "linalg/simd.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace cerl::serve {
namespace {

// Feeds `n` doubles' bytes to the fingerprint (the payload is many separate
// arrays; the streaming checksum gives their concatenation's digest).
void HashDoubles(Checksum64Stream* h, const double* data, size_t n) {
  h->Update(std::string_view(reinterpret_cast<const char*>(data),
                             n * sizeof(double)));
}

// ColL2Normalize(w) replayed outside the tape, op for op (composite.cc:
// Transpose -> Square -> RowSum -> ScalarAdd(eps) -> Sqrt -> Reciprocal ->
// MulColBroadcast -> Transpose). Every step is either a dispatched kernel
// with a bitwise scalar/AVX2 contract or a plain scalar loop matching
// autodiff/ops.cc's forward exactly, so the result is the same bits the
// tape would produce each forward pass on these frozen weights. `w` is the
// rows x cols weight as raw little-endian doubles (see BuildLayers).
linalg::Matrix ColL2NormalizeLikeTape(std::string_view w, int rows,
                                      int cols) {
  constexpr double kEps = 1e-12;  // composite.h default
  const auto& ks = linalg::simd::Kernels();
  linalg::Matrix t(cols, rows);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      std::memcpy(&t(c, r),
                  w.data() + sizeof(double) *
                                 (static_cast<size_t>(r) * cols + c),
                  sizeof(double));
    }
  }
  linalg::Matrix sq(t.rows(), t.cols());
  ks.ew_forward(static_cast<int>(linalg::simd::EwFwd::kSquare), t.data(),
                sq.data(), sq.size());
  linalg::Vector norm(t.rows());
  for (int r = 0; r < sq.rows(); ++r) {
    const double* row = sq.row(r);
    double s = 0.0;  // RowSum's left-to-right accumulation order
    for (int c = 0; c < sq.cols(); ++c) s += row[c];
    norm[r] = s + kEps;
  }
  ks.ew_forward(static_cast<int>(linalg::simd::EwFwd::kSqrt), norm.data(),
                norm.data(), static_cast<int64_t>(norm.size()));
  ks.ew_forward(static_cast<int>(linalg::simd::EwFwd::kReciprocal),
                norm.data(), norm.data(), static_cast<int64_t>(norm.size()));
  linalg::Matrix scaled(t.rows(), t.cols());
  ks.mul_col_broadcast(t.data(), norm.data(), t.rows(), t.cols(),
                       scaled.data());
  linalg::Matrix out(rows, cols);
  for (int r = 0; r < scaled.rows(); ++r) {
    for (int c = 0; c < scaled.cols(); ++c) out(c, r) = scaled(r, c);
  }
  return out;
}

// Consumes this MLP's parameters (Linear: weight then bias; CosineLinear:
// weight only — the order CollectParameters emits) from `params` starting
// at *next, mirroring nn::Mlp's layer construction rules. Each parameter is
// its raw little-endian doubles: a trainer's own values or a span of a
// CERLCKP2 blob (unaligned, so only ever read with memcpy), copied straight
// into the layer's buffers. Shapes come from `config`; ParseCheckpoint has
// matched a blob's against the same architecture.
std::vector<DenseLayer> BuildLayers(const nn::MlpConfig& config,
                                    const std::vector<std::string_view>& params,
                                    size_t* next) {
  std::vector<DenseLayer> layers;
  const int n_layers = static_cast<int>(config.dims.size()) - 1;
  layers.reserve(n_layers);
  for (int i = 0; i < n_layers; ++i) {
    const bool last = i == n_layers - 1;
    const int in = config.dims[i];
    const int out = config.dims[i + 1];
    DenseLayer layer;
    layer.activation =
        last ? config.output_activation : config.hidden_activation;
    layer.cosine = last && config.cosine_normalized_output;
    CERL_CHECK_LT(*next, params.size());
    const std::string_view w = params[(*next)++];
    CERL_CHECK_EQ(w.size(), sizeof(double) * in * out);
    if (layer.cosine) {
      layer.weight = ColL2NormalizeLikeTape(w, in, out);
    } else {
      layer.weight = linalg::Matrix(in, out);
      std::memcpy(layer.weight.data(), w.data(), w.size());
      CERL_CHECK_LT(*next, params.size());
      const std::string_view b = params[(*next)++];  // 1 x out
      CERL_CHECK_EQ(b.size(), sizeof(double) * out);
      layer.bias.resize(out);
      std::memcpy(layer.bias.data(), b.data(), b.size());
    }
    layers.push_back(std::move(layer));
  }
  return layers;
}

// The snapshot of a model given as its parameter values (in
// RepOutcomeNet::Parameters() order) and scalers: the one assembly both
// BuildEffectSnapshot and DecodeEffectSnapshot use. The scalers are copied
// after the layers, so every snapshot's buffers are allocated in the same
// order, whichever path built it.
std::shared_ptr<const EffectSnapshot> AssembleSnapshot(
    const causal::NetConfig& net, int input_dim, int stage, uint64_t version,
    const std::vector<std::string_view>& params, const linalg::Vector& x_mean,
    const linalg::Vector& x_std, double y_mean, double y_scale) {
  auto snap = std::make_shared<EffectSnapshot>();
  snap->version = version;
  snap->stage = stage;
  snap->input_dim = input_dim;
  snap->rep_dim = net.rep_dim;
  size_t next = 0;
  snap->rep = BuildLayers(causal::RepMlpConfig(net, input_dim), params, &next);
  snap->head0 = BuildLayers(causal::HeadMlpConfig(net), params, &next);
  snap->head1 = BuildLayers(causal::HeadMlpConfig(net), params, &next);
  CERL_CHECK_EQ(next, params.size());
  snap->x_mean = x_mean;
  snap->x_std = x_std;
  snap->y_mean = y_mean;
  snap->y_scale = y_scale;
  snap->fingerprint = SnapshotFingerprint(*snap);
  snap->published_at = std::chrono::steady_clock::now();
  return snap;
}

void HashLayers(Checksum64Stream* h, const std::vector<DenseLayer>& layers) {
  for (const DenseLayer& layer : layers) {
    HashDoubles(h, layer.weight.data(),
                static_cast<size_t>(layer.weight.size()));
    HashDoubles(h, layer.bias.data(), layer.bias.size());
  }
}

}  // namespace

std::shared_ptr<const EffectSnapshot> BuildEffectSnapshot(
    core::CerlTrainer& trainer, uint64_t version) {
  if (trainer.stages_seen() == 0) return nullptr;  // no model yet
  causal::RepOutcomeNet* net = trainer.current_net();
  std::vector<std::string_view> values;
  for (const autodiff::Parameter* p : net->Parameters()) {
    values.emplace_back(reinterpret_cast<const char*>(p->value.data()),
                        static_cast<size_t>(p->value.size()) * sizeof(double));
  }
  return AssembleSnapshot(net->config(), net->input_dim(),
                          trainer.stages_seen(), version, values,
                          net->x_scaler().mean(), net->x_scaler().std(),
                          net->y_scaler().mean(), net->y_scaler().scale());
}

Result<std::shared_ptr<const EffectSnapshot>> DecodeEffectSnapshot(
    std::string_view blob, const causal::NetConfig& net, int input_dim,
    uint64_t version) {
  core::ParsedCheckpoint parsed;
  CERL_RETURN_IF_ERROR(core::ParseCheckpoint(
      blob, net, input_dim, /*keep_memory_reps=*/false, &parsed));
  // A restored trainer keeps its default outcome scaler unless the blob's
  // was fitted (DeserializeCheckpoint); so does its snapshot.
  const causal::OutcomeScaler unfitted;
  return AssembleSnapshot(net, input_dim, parsed.stages, version,
                          parsed.params, parsed.x_mean, parsed.x_std,
                          parsed.y_fitted ? parsed.y_mean : unfitted.mean(),
                          parsed.y_fitted ? parsed.y_std : unfitted.scale());
}

uint64_t SnapshotFingerprint(const EffectSnapshot& snap) {
  Checksum64Stream h;
  HashLayers(&h, snap.rep);
  HashLayers(&h, snap.head0);
  HashLayers(&h, snap.head1);
  HashDoubles(&h, snap.x_mean.data(), snap.x_mean.size());
  HashDoubles(&h, snap.x_std.data(), snap.x_std.size());
  HashDoubles(&h, &snap.y_mean, 1);
  HashDoubles(&h, &snap.y_scale, 1);
  return h.digest();
}

}  // namespace cerl::serve
