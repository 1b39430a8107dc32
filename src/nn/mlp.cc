#include "nn/mlp.h"

namespace cerl::nn {
namespace {

std::string LayerName(const std::string& name, int i) {
  return name + ".layer" + std::to_string(i);
}

}  // namespace

Mlp::Mlp(Rng* rng, const MlpConfig& config, std::string name) {
  CERL_CHECK_GE(config.dims.size(), 2u);
  in_dim_ = config.dims.front();
  out_dim_ = config.dims.back();
  const int n_layers = static_cast<int>(config.dims.size()) - 1;
  for (int i = 0; i < n_layers; ++i) {
    const bool last = (i == n_layers - 1);
    const std::string layer_name = LayerName(name, i);
    if (last && config.cosine_normalized_output) {
      layers_.push_back(std::make_unique<CosineLinear>(
          rng, config.dims[i], config.dims[i + 1], config.output_activation,
          layer_name));
    } else {
      layers_.push_back(std::make_unique<Linear>(
          rng, config.dims[i], config.dims[i + 1],
          last ? config.output_activation : config.hidden_activation,
          layer_name));
    }
  }
}

std::vector<ParamSpec> MlpParameterSpecs(const MlpConfig& config,
                                         const std::string& name) {
  std::vector<ParamSpec> specs;
  const int n_layers = static_cast<int>(config.dims.size()) - 1;
  for (int i = 0; i < n_layers; ++i) {
    const std::string layer_name = LayerName(name, i);
    const int out = config.dims[i + 1];
    specs.push_back({layer_name + ".weight", config.dims[i], out});
    // Linear carries a bias; the cosine output layer has none.
    if (i < n_layers - 1 || !config.cosine_normalized_output) {
      specs.push_back({layer_name + ".bias", 1, out});
    }
  }
  return specs;
}

void Mlp::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& layer : layers_) layer->CollectParameters(out);
}

Var Mlp::Forward(Tape* tape, Var x) {
  Var h = x;
  for (auto& layer : layers_) h = layer->Forward(tape, h);
  return h;
}

Parameter& Mlp::FirstLayerWeight() {
  CERL_CHECK(!layers_.empty());
  auto* linear = dynamic_cast<Linear*>(layers_.front().get());
  if (linear != nullptr) return linear->weight();
  auto* cosine = dynamic_cast<CosineLinear*>(layers_.front().get());
  CERL_CHECK(cosine != nullptr);
  std::vector<Parameter*> params;
  cosine->CollectParameters(&params);
  return *params.front();
}

}  // namespace cerl::nn
