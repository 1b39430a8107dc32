#include "serve/effect_snapshot.h"

#include <utility>

#include "causal/rep_outcome_net.h"
#include "core/cerl_trainer.h"
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
// tape would produce each forward pass on these frozen weights.
linalg::Matrix ColL2NormalizeLikeTape(const linalg::Matrix& w) {
  constexpr double kEps = 1e-12;  // composite.h default
  const auto& ks = linalg::simd::Kernels();
  linalg::Matrix t(w.cols(), w.rows());
  for (int r = 0; r < w.rows(); ++r) {
    for (int c = 0; c < w.cols(); ++c) t(c, r) = w(r, c);
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
  linalg::Matrix out(w.rows(), w.cols());
  for (int r = 0; r < scaled.rows(); ++r) {
    for (int c = 0; c < scaled.cols(); ++c) out(c, r) = scaled(r, c);
  }
  return out;
}

// Consumes this MLP's parameters (Linear: weight then bias; CosineLinear:
// weight only — the same order CollectParameters emits) from `params`
// starting at *next, mirroring nn::Mlp's layer construction rules.
std::vector<DenseLayer> BuildLayers(
    const nn::MlpConfig& config,
    const std::vector<autodiff::Parameter*>& params, size_t* next) {
  std::vector<DenseLayer> layers;
  const int n_layers = static_cast<int>(config.dims.size()) - 1;
  layers.reserve(n_layers);
  for (int i = 0; i < n_layers; ++i) {
    const bool last = i == n_layers - 1;
    DenseLayer layer;
    layer.activation =
        last ? config.output_activation : config.hidden_activation;
    layer.cosine = last && config.cosine_normalized_output;
    CERL_CHECK_LT(*next, params.size());
    const linalg::Matrix& w = params[(*next)++]->value;
    CERL_CHECK_EQ(w.rows(), config.dims[i]);
    CERL_CHECK_EQ(w.cols(), config.dims[i + 1]);
    if (layer.cosine) {
      layer.weight = ColL2NormalizeLikeTape(w);
    } else {
      layer.weight = w;
      CERL_CHECK_LT(*next, params.size());
      const linalg::Matrix& b = params[(*next)++]->value;  // 1 x out
      CERL_CHECK_EQ(b.size(), w.cols());
      layer.bias.assign(b.data(), b.data() + b.size());
    }
    layers.push_back(std::move(layer));
  }
  return layers;
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
  auto snap = std::make_shared<EffectSnapshot>();
  snap->version = version;
  snap->stage = trainer.stages_seen();
  snap->input_dim = net->input_dim();
  snap->rep_dim = net->rep_dim();
  const std::vector<autodiff::Parameter*> params = net->Parameters();
  size_t next = 0;
  snap->rep = BuildLayers(causal::RepMlpConfig(net->config(), net->input_dim()),
                          params, &next);
  snap->head0 = BuildLayers(causal::HeadMlpConfig(net->config()), params,
                            &next);
  snap->head1 = BuildLayers(causal::HeadMlpConfig(net->config()), params,
                            &next);
  CERL_CHECK_EQ(next, params.size());
  snap->x_mean = net->x_scaler().mean();
  snap->x_std = net->x_scaler().std();
  snap->y_mean = net->y_scaler().mean();
  snap->y_scale = net->y_scaler().scale();
  snap->fingerprint = SnapshotFingerprint(*snap);
  snap->published_at = std::chrono::steady_clock::now();
  return snap;
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
