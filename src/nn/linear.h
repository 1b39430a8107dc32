// Fully connected layer: out = act(x W + b), W stored as (in x out).
#pragma once

#include <string>

#include "nn/module.h"
#include "util/rng.h"

namespace cerl::nn {

/// Dense affine layer with optional activation.
class Linear : public Module {
 public:
  /// Initializes W via He-normal (relu/elu) or Xavier (otherwise), b = 0.
  /// A null `rng` leaves W zero for the caller to fill.
  Linear(Rng* rng, int in_dim, int out_dim,
         Activation activation = Activation::kNone,
         std::string name = "linear");

  void CollectParameters(std::vector<Parameter*>* out) override;
  Var Forward(Tape* tape, Var x) override;

  int in_dim() const { return weight_.value.rows(); }
  int out_dim() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Parameter weight_;
  Parameter bias_;
  Activation activation_;
};

}  // namespace cerl::nn
