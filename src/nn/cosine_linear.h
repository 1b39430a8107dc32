// Cosine-normalized layer (Luo et al. 2018), Eq. 2 of the paper:
//   r = sigma(cos(w, x)) = sigma((w . x) / (|w| |x|)).
// Each output unit's pre-activation is the cosine similarity between the
// input row and that unit's weight column, bounding it to [-1, 1]. The paper
// applies this in the *last* representation layer so that representation
// magnitudes are comparable between treatment/control groups and across
// sequentially arriving domains.
#pragma once

#include <string>

#include "nn/module.h"
#include "util/rng.h"

namespace cerl::nn {

/// Dense layer with cosine normalization instead of a raw dot product.
class CosineLinear : public Module {
 public:
  /// Xavier-initialized W; a null `rng` leaves W zero for the caller to
  /// fill.
  CosineLinear(Rng* rng, int in_dim, int out_dim,
               Activation activation = Activation::kTanh,
               std::string name = "cosine_linear");

  void CollectParameters(std::vector<Parameter*>* out) override;
  Var Forward(Tape* tape, Var x) override;

  int in_dim() const { return weight_.value.rows(); }
  int out_dim() const { return weight_.value.cols(); }

 private:
  Parameter weight_;
  Activation activation_;
};

}  // namespace cerl::nn
