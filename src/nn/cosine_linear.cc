#include "nn/cosine_linear.h"

#include "autodiff/composite.h"
#include "autodiff/ops.h"
#include "nn/init.h"

namespace cerl::nn {

CosineLinear::CosineLinear(Rng* rng, int in_dim, int out_dim,
                           Activation activation, std::string name)
    : weight_(Parameter(rng == nullptr ? Zeros(in_dim, out_dim)
                                       : XavierUniform(rng, in_dim, out_dim),
                        name + ".weight")),
      activation_(activation) {}

void CosineLinear::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
}

Var CosineLinear::Forward(Tape* tape, Var x) {
  Var w = tape->Param(&weight_);
  // cos(w_j, x_i) = <x_i/|x_i|, w_j/|w_j|>; no bias term by construction.
  Var cos = autodiff::MatMul(autodiff::RowL2Normalize(x),
                             autodiff::ColL2Normalize(w));
  return ApplyActivation(cos, activation_);
}

}  // namespace cerl::nn
