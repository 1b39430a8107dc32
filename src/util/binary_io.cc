#include "util/binary_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "util/fault_injection.h"

namespace cerl {
namespace {

// fsync the file at `path` so the atomic-rename publish is durable, not just
// ordered. Failure is reported: a checkpoint whose durability is unknown is
// an error, not a warning.
Status FsyncPath(const std::string& path, bool directory) {
  const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IoError("cannot open for fsync: " + path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("fsync failed: " + path);
  return Status::Ok();
}

std::string ParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// XXH64's primes (all odd, so multiplying by one is a bijection).
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

template <int kBits>
uint64_t Rotl(uint64_t x) {
  static_assert(kBits > 0 && kBits < 64, "shift counts stay defined");
  return (x << kBits) | (x >> (64 - kBits));
}

uint64_t LoadWord(const unsigned char* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// A bijection of `word` for fixed `acc`, and of `acc` for fixed `word`.
uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl<31>(acc + word * kP2) * kP1;
}

// Absorbs the whole 32-byte stripes of [p, p + n) into `lanes` (kept in
// registers across the loop); returns the bytes consumed.
size_t AbsorbStripes(uint64_t lanes[4], const unsigned char* p, size_t n) {
  uint64_t a0 = lanes[0], a1 = lanes[1], a2 = lanes[2], a3 = lanes[3];
  const size_t stripes = n / 32;
  for (size_t i = 0; i < stripes; ++i, p += 32) {
    a0 = Round(a0, LoadWord(p));
    a1 = Round(a1, LoadWord(p + 8));
    a2 = Round(a2, LoadWord(p + 16));
    a3 = Round(a3, LoadWord(p + 24));
  }
  lanes[0] = a0;
  lanes[1] = a1;
  lanes[2] = a2;
  lanes[3] = a3;
  return stripes * 32;
}

}  // namespace

// XXH64's lane seeds for seed 0: P1 + P2, P2, 0, -P1 (mod 2^64).
Checksum64Stream::Checksum64Stream()
    : lanes_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Checksum64Stream::Update(std::string_view data) {
  if (data.empty()) return;  // memcpy from a null data() is UB even for 0
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  total_len_ += n;
  if (buffered_ + n < kStripeBytes) {
    std::memcpy(buffer_ + buffered_, p, n);
    buffered_ += n;
    return;
  }
  if (buffered_ > 0) {
    const size_t fill = kStripeBytes - buffered_;
    std::memcpy(buffer_ + buffered_, p, fill);
    AbsorbStripes(lanes_, buffer_, kStripeBytes);
    p += fill;
    n -= fill;
  }
  const size_t absorbed = AbsorbStripes(lanes_, p, n);
  buffered_ = n - absorbed;
  if (buffered_ > 0) std::memcpy(buffer_, p + absorbed, buffered_);
}

uint64_t Checksum64Stream::digest() const {
  uint64_t h = total_len_ * kP5;
  for (const uint64_t lane : lanes_) h = (h ^ Round(0, lane)) * kP1 + kP4;
  size_t i = 0;
  for (; i + 8 <= buffered_; i += 8) {
    h = Rotl<27>(h ^ Round(0, LoadWord(buffer_ + i))) * kP1 + kP4;
  }
  for (; i < buffered_; ++i) {
    h = Rotl<11>(h ^ static_cast<uint64_t>(buffer_[i]) * kP5) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

uint64_t Checksum64(std::string_view data) {
  Checksum64Stream hasher;
  hasher.Update(data);
  return hasher.digest();
}

Status CheckMagic(std::string_view bytes, std::string_view magic,
                  const std::string& what) {
  const std::string_view head = bytes.substr(0, magic.size());
  if (head == magic) return Status::Ok();
  std::string found;
  for (const char c : head) found += (c >= 0x20 && c < 0x7f) ? c : '?';
  return Status::IoError(what + ": bad magic \"" + found + "\" (expected \"" +
                         std::string(magic) + "\")");
}

void AppendChecksum(std::string* payload) {
  const uint64_t sum = Checksum64(*payload);
  char bytes[sizeof(sum)];
  std::memcpy(bytes, &sum, sizeof(sum));
  payload->append(bytes, sizeof(bytes));
}

Result<std::string_view> VerifyChecksum(std::string_view bytes,
                                        const std::string& what) {
  if (bytes.size() < sizeof(uint64_t)) {
    return Status::IoError(what + ": too short to carry a checksum");
  }
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload.size(), sizeof(stored));
  if (stored != Checksum64(payload)) {
    return Status::IoError(what + ": checksum mismatch (corrupted file)");
  }
  return payload;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::string contents;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot size file: " + path);
  contents.resize(static_cast<size_t>(size));
  in.seekg(0, std::ios::beg);
  in.read(contents.data(), size);
  if (!in) return Status::IoError("read failed: " + path);
  return contents;
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  if (CERL_FAULT_POINT(FaultPoint::kIoWrite)) {
    return Status::IoError("injected write failure: " + path);
  }
  // The tmp name must be unique per in-flight write: a shared `path + ".tmp"`
  // lets two concurrent saves of the same path clobber each other's
  // half-written tmp and publish a torn file via the other thread's rename.
  // pid + process-wide counter keeps names distinct across threads and
  // across processes sharing a directory.
  static std::atomic<uint64_t> tmp_counter{0};
  const uint64_t serial = tmp_counter.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(serial);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for write: " + tmp);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("write failed: " + tmp);
    }
  }
  Status synced = FsyncPath(tmp, /*directory=*/false);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  // Make the rename itself durable (the directory entry).
  return FsyncPath(ParentDirectory(path), /*directory=*/true);
}

Status BoundedReader::ReadRaw(void* dst, uint64_t n, const char* what) {
  CERL_RETURN_IF_ERROR(Require(n, what));
  in_->read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!*in_) {
    return Status::IoError(std::string("truncated read of ") + what);
  }
  remaining_ -= n;
  return Status::Ok();
}

Status BoundedReader::Skip(uint64_t n, const char* what) {
  CERL_RETURN_IF_ERROR(Require(n, what));
  in_->seekg(static_cast<std::streamoff>(n), std::ios_base::cur);
  if (!*in_) return Status::IoError(std::string("cannot skip ") + what);
  remaining_ -= n;
  return Status::Ok();
}

Status BoundedReader::Require(uint64_t n, const char* what) const {
  if (n > remaining_) {
    return Status::IoError(std::string("truncated container: ") + what +
                           " needs " + std::to_string(n) +
                           " bytes, payload has " + std::to_string(remaining_));
  }
  return Status::Ok();
}

void WriteF64Vector(std::string* out, const std::vector<double>& v) {
  WritePod(out, static_cast<uint32_t>(v.size()));
  // An empty vector's data() may be null; append(nullptr, 0) is UB.
  if (v.empty()) return;
  out->append(reinterpret_cast<const char*>(v.data()),
              v.size() * sizeof(double));
}

Status ReadF64VectorExpected(BoundedReader* r, uint32_t expect,
                             std::vector<double>* v, const char* what) {
  uint32_t n = 0;
  CERL_RETURN_IF_ERROR(r->ReadPod(&n, what));
  if (n != expect) {
    return Status::IoError(std::string(what) + ": size " + std::to_string(n) +
                           " does not match expected " +
                           std::to_string(expect));
  }
  CERL_RETURN_IF_ERROR(
      r->Require(static_cast<uint64_t>(n) * sizeof(double), what));
  v->resize(n);
  return r->ReadRaw(v->data(), static_cast<uint64_t>(n) * sizeof(double),
                    what);
}

ViewStreambuf::ViewStreambuf(std::string_view data) {
  // streambuf's get-area pointers are non-const by API; the buffer is only
  // ever read (no overflow/underflow writes).
  char* base = const_cast<char*>(data.data());
  setg(base, base, base + data.size());
}

ViewStreambuf::pos_type ViewStreambuf::seekoff(off_type off,
                                               std::ios_base::seekdir dir,
                                               std::ios_base::openmode which) {
  if (!(which & std::ios_base::in)) return pos_type(off_type(-1));
  // Resolve the target position in the integer domain before touching any
  // pointer: `eback() + off` for a hostile `off` (reachable from corrupt
  // checkpoint bytes) is out-of-range pointer arithmetic — UB even if the
  // result is only compared, never dereferenced.
  const off_type size = egptr() - eback();
  off_type base = 0;
  switch (dir) {
    case std::ios_base::beg: base = 0; break;
    case std::ios_base::cur: base = gptr() - eback(); break;
    case std::ios_base::end: base = size; break;
    default: return pos_type(off_type(-1));
  }
  // Signed-overflow guard for base + off, then the bounds check proper.
  if (off > 0 && base > std::numeric_limits<off_type>::max() - off) {
    return pos_type(off_type(-1));
  }
  if (off < 0 && base < std::numeric_limits<off_type>::min() - off) {
    return pos_type(off_type(-1));
  }
  const off_type pos = base + off;
  if (pos < 0 || pos > size) return pos_type(off_type(-1));
  setg(eback(), eback() + pos, egptr());
  return pos_type(pos);
}

ViewStreambuf::pos_type ViewStreambuf::seekpos(pos_type pos,
                                               std::ios_base::openmode which) {
  return seekoff(off_type(pos), std::ios_base::beg, which);
}

}  // namespace cerl
