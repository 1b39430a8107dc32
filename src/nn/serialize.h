// Binary save/load of Parameter lists. Used by the adaptation strategies
// (checkpoint a model, reload it for fine-tuning) and by the CERL pipeline
// (the "old model" g_{w_{d-1}} is kept as weights, never as raw data).
//
// Format: magic "CERLPAR1", u64 count, then per parameter:
//   u32 name_len, name bytes, u32 rows, u32 cols, rows*cols doubles (LE).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "autodiff/tape.h"
#include "nn/module.h"
#include "util/status.h"

namespace cerl::nn {

/// Writes all parameters to `path`, overwriting.
Status SaveParameters(const std::string& path,
                      const std::vector<autodiff::Parameter*>& params);

/// Loads into the given parameters; count, names, and shapes must match the
/// file (strict round-trip of SaveParameters).
Status LoadParameters(const std::string& path,
                      const std::vector<autodiff::Parameter*>& params);

/// Stream variant of SaveParameters, used to embed parameter blocks inside
/// larger container formats (e.g. CERL checkpoints).
Status SaveParametersToStream(std::ostream& out,
                              const std::vector<autodiff::Parameter*>& params);

/// Parses the parameter block at the front of `bytes` against `expected`
/// (count, names and shapes must match: the strict round-trip of
/// SaveParameters) without copying any value: (*values)[i] views parameter
/// i's rows*cols little-endian doubles inside `bytes`. Returns the block's
/// length in bytes. Every read is bounds-checked, and a mismatched name
/// length is rejected before its bytes are read.
Result<size_t> ParseParameterBlock(std::string_view bytes,
                                   const std::vector<ParamSpec>& expected,
                                   std::vector<std::string_view>* values);

}  // namespace cerl::nn
