#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>

#include "util/binary_io.h"

namespace cerl::nn {
namespace {

constexpr char kMagic[8] = {'C', 'E', 'R', 'L', 'P', 'A', 'R', '1'};

}  // namespace

Status SaveParametersToStream(std::ostream& out,
                              const std::vector<autodiff::Parameter*>& params) {
  out.write(kMagic, sizeof(kMagic));
  const uint64_t count = params.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto* p : params) {
    const uint32_t name_len = static_cast<uint32_t>(p->name.size());
    out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    out.write(p->name.data(), name_len);
    const uint32_t rows = p->value.rows();
    const uint32_t cols = p->value.cols();
    out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.size() * sizeof(double)));
  }
  if (!out) return Status::IoError("parameter stream write failed");
  return Status::Ok();
}

Result<size_t> ParseParameterBlock(std::string_view bytes,
                                   const std::vector<ParamSpec>& expected,
                                   std::vector<std::string_view>* values) {
  ViewStreambuf buf(bytes);
  std::istream in(&buf);
  BoundedReader r(&in, bytes.size());
  const auto pos = [&] { return bytes.size() - r.remaining(); };
  char magic[sizeof(kMagic)];
  if (!r.ReadRaw(magic, sizeof(magic), "parameter-block magic").ok() ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("bad parameter-block magic");
  }
  uint64_t count = 0;
  CERL_RETURN_IF_ERROR(r.ReadPod(&count, "parameter count"));
  if (count != expected.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: stream has " + std::to_string(count) +
        ", model has " + std::to_string(expected.size()));
  }
  values->clear();
  values->reserve(expected.size());
  for (const ParamSpec& spec : expected) {
    uint32_t name_len = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&name_len, "parameter name length"));
    // The expected name is known, so a corrupted length field is rejected
    // before it can drive a read.
    if (name_len != spec.name.size()) {
      return Status::InvalidArgument(
          "parameter name length mismatch: stream has " +
          std::to_string(name_len) + ", model expects '" + spec.name + "'");
    }
    const size_t name_at = pos();
    CERL_RETURN_IF_ERROR(r.Skip(name_len, "parameter name"));
    const std::string_view name = bytes.substr(name_at, name_len);
    uint32_t rows = 0, cols = 0;
    CERL_RETURN_IF_ERROR(r.ReadPod(&rows, "parameter rows"));
    CERL_RETURN_IF_ERROR(r.ReadPod(&cols, "parameter cols"));
    if (name != spec.name) {
      return Status::InvalidArgument("parameter name mismatch: stream '" +
                                     std::string(name) + "' vs model '" +
                                     spec.name + "'");
    }
    if (rows != static_cast<uint32_t>(spec.rows) ||
        cols != static_cast<uint32_t>(spec.cols)) {
      return Status::InvalidArgument("shape mismatch for parameter " +
                                     spec.name);
    }
    const size_t value_at = pos();
    const uint64_t value_bytes =
        static_cast<uint64_t>(rows) * cols * sizeof(double);
    CERL_RETURN_IF_ERROR(r.Skip(value_bytes, "parameter values"));
    values->push_back(bytes.substr(value_at, value_bytes));
  }
  return pos();
}

Status SaveParameters(const std::string& path,
                      const std::vector<autodiff::Parameter*>& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  CERL_RETURN_IF_ERROR(SaveParametersToStream(out, params));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Status LoadParameters(const std::string& path,
                      const std::vector<autodiff::Parameter*>& params) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  std::vector<ParamSpec> specs;
  specs.reserve(params.size());
  for (const autodiff::Parameter* p : params) {
    specs.push_back({p->name, p->value.rows(), p->value.cols()});
  }
  std::vector<std::string_view> values;
  Result<size_t> parsed = ParseParameterBlock(bytes.value(), specs, &values);
  if (!parsed.ok()) return parsed.status();
  for (size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), values[i].data(), values[i].size());
  }
  return Status::Ok();
}

}  // namespace cerl::nn
