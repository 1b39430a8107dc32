// Multi-layer perceptron: a stack of Linear layers with a shared hidden
// activation, an optional output activation, and optionally a cosine-
// normalized final layer (used by the representation networks, Eq. 2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/cosine_linear.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace cerl::nn {

/// Configuration for an Mlp.
struct MlpConfig {
  std::vector<int> dims;  ///< layer sizes, e.g. {in, h1, h2, out}
  Activation hidden_activation = Activation::kElu;
  Activation output_activation = Activation::kNone;
  /// If true, the final layer is CosineLinear (cosine normalization).
  bool cosine_normalized_output = false;
};

/// Feed-forward network assembled from Linear / CosineLinear layers.
class Mlp : public Module {
 public:
  /// A null `rng` leaves every weight zero for the caller to fill (a
  /// checkpoint restore) instead of drawing initial weights.
  Mlp(Rng* rng, const MlpConfig& config, std::string name = "mlp");

  void CollectParameters(std::vector<Parameter*>* out) override;
  Var Forward(Tape* tape, Var x) override;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

  /// The first Linear's weight (feature-selection layer for the elastic-net
  /// penalty, Eq. 1). Requires at least one Linear layer.
  Parameter& FirstLayerWeight();

 private:
  std::vector<std::unique_ptr<Module>> layers_;
  int in_dim_ = 0;
  int out_dim_ = 0;
};

/// Names and shapes of the parameters Mlp(rng, config, name) holds, in
/// CollectParameters order, without building it.
std::vector<ParamSpec> MlpParameterSpecs(const MlpConfig& config,
                                         const std::string& name);

}  // namespace cerl::nn
