// The one CERLCKP2 parser (format in checkpoint.cc). Two consumers share
// it, so they accept and reject exactly the same blobs:
//  - CerlTrainer::DeserializeCheckpoint commits a parsed blob to a trainer;
//  - serve::DecodeEffectSnapshot builds a read-side model from it without
//    any trainer (the engine's cold restart path).
#pragma once

#include <string_view>
#include <vector>

#include "causal/rep_outcome_net.h"
#include "linalg/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace cerl::core {

/// A CERLCKP2 blob that passed every check: magic, whole-blob checksum,
/// header, scalers (finite means, positive finite stds), parameter names
/// and shapes, the memory section, and no trailing bytes.
struct ParsedCheckpoint {
  int stages = 0;
  Rng::State rng;
  linalg::Vector x_mean;
  linalg::Vector x_std;
  double y_mean = 0.0;
  double y_std = 1.0;
  bool y_fitted = false;
  /// Each parameter's rows*cols little-endian doubles, in
  /// RepOutcomeNet::Parameters() order: views into the parsed bytes, valid
  /// while they are.
  std::vector<std::string_view> params;
  /// The memory bank M_d. The representations are copied only when asked
  /// for (a read-side model needs none of M_d); the outcomes and treatments
  /// are small and always parsed.
  linalg::Matrix memory_reps;
  linalg::Vector memory_y;
  std::vector<int> memory_t;
};

/// Parses and validates `bytes` as the checkpoint of a trainer with
/// architecture `net` and `input_dim` features. Errors: kIoError for a
/// corrupt or truncated blob, kInvalidArgument for a well-formed blob of
/// another input dimension or architecture.
Status ParseCheckpoint(std::string_view bytes, const causal::NetConfig& net,
                       int input_dim, bool keep_memory_reps,
                       ParsedCheckpoint* out);

}  // namespace cerl::core
