// Binary checkpoint I/O substrate shared by the trainer checkpoint
// (core/checkpoint.cc), the engine snapshot (stream/engine_checkpoint.cc),
// the WAL and the spill store (storage/), and the serving-plane snapshot
// fingerprint (serve/effect_snapshot.cc):
//
//  - one streaming 64-bit checksum (Checksum64), so any corruption confined
//    to one aligned 8-byte word of a container (any single-byte flip
//    included) is detected as a clean Status error instead of being
//    deserialized into garbage state;
//  - an 8-byte format magic check whose error names the magic it found, so
//    a file of another format version is reported as such, not as
//    corruption;
//  - crash-safe whole-file writes (temp file + flush + fsync + atomic
//    rename), so a crash mid-save leaves the previous checkpoint intact and
//    readers never observe a half-written file;
//  - a BoundedReader that validates every length field against the bytes
//    actually remaining BEFORE allocating, so a corrupted u32 count turns
//    into a descriptive error rather than a multi-gigabyte allocation.
#pragma once

#include <cstdint>
#include <istream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cerl {

/// Streaming 64-bit checksum: the integrity check of every format the
/// engine writes and the serving-plane snapshot fingerprint.
///
/// Four independent 64-bit lanes absorb each 32-byte stripe word by word
/// with XXH64's round r(acc, w) = rotl(acc + w*P2, 31)*P1 (lanes seeded as
/// XXH64 with seed 0). digest() starts from total_len*P5, folds the lanes
/// in order (h = (h ^ r(0, lane))*P1 + P4), absorbs the buffered tail
/// (8-byte words, then single bytes) and ends with XXH64's avalanche.
/// The sequential fold replaces XXH64's lane merge on purpose: every step
/// is a bijection of the value it absorbs (all five primes are odd), so a
/// change confined to one 8-byte word at an offset that is a multiple of 8
/// always changes the digest — which covers every single-byte corruption.
/// The digests are therefore not XXH64's; util_test pins known answers.
///
/// Words are read with memcpy (unaligned-safe) as little-endian, like every
/// format here. There are no intrinsics and no kernel-table entry, so the
/// digest is the same on every host and under CERL_FORCE_SCALAR.
///
/// Update() buffers a partial stripe, so any segmentation of the same bytes
/// yields Checksum64 of their concatenation — used where a checksum skips
/// embedded self-checksummed spans (CERLENG6 trainer blobs) or covers
/// disjoint pieces (WAL header + payload, the arrays of a snapshot
/// fingerprint).
class Checksum64Stream {
 public:
  Checksum64Stream();

  void Update(std::string_view data);
  uint64_t digest() const;

 private:
  static constexpr size_t kStripeBytes = 32;

  uint64_t lanes_[4];
  uint64_t total_len_ = 0;
  unsigned char buffer_[kStripeBytes] = {};  // partial stripe
  size_t buffered_ = 0;
};

/// One-shot Checksum64Stream digest of `data`.
uint64_t Checksum64(std::string_view data);

/// Fails with IoError unless `bytes` starts with `magic`. The message names
/// the magic actually found (non-printable bytes shown as '?'), so a file
/// of an older format version says so instead of reading as corruption.
/// `what` names the container ("checkpoint", "engine snapshot", "WAL").
Status CheckMagic(std::string_view bytes, std::string_view magic,
                  const std::string& what);

/// Appends the 8-byte little-endian Checksum64 of `payload` to it.
/// Containers are always finalized with this before hitting disk.
void AppendChecksum(std::string* payload);

/// Verifies that `bytes` ends with the checksum of everything before it;
/// returns the payload view (checksum stripped) or a descriptive error.
/// `what` names the container in error messages ("checkpoint", "snapshot").
Result<std::string_view> VerifyChecksum(std::string_view bytes,
                                        const std::string& what);

/// Reads an entire file into memory.
Result<std::string> ReadFileToString(const std::string& path);

/// Crash-safe whole-file write: contents go to a uniquely named temp file
/// (`path + ".tmp.<pid>.<serial>"` — unique per in-flight write, so
/// concurrent saves of the same path cannot clobber each other), are flushed
/// and fsync'd, then atomically renamed over `path`. Either the old file or
/// the complete new one exists at every instant; the temp file is removed on
/// failure. Concurrent saves each publish a complete file; last rename wins.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Bounds-checked reads from a stream whose total remaining byte count is
/// known up front (in-memory checkpoint payloads). Reads past the budget —
/// the signature of a truncated or corrupted container — fail without
/// touching the destination.
class BoundedReader {
 public:
  BoundedReader(std::istream* in, uint64_t remaining)
      : in_(in), remaining_(remaining) {}

  /// Reads exactly `n` bytes into `dst`; `what` names the field in errors.
  Status ReadRaw(void* dst, uint64_t n, const char* what);

  template <typename T>
  Status ReadPod(T* value, const char* what) {
    return ReadRaw(value, sizeof(T), what);
  }

  /// Steps over `n` bytes that the caller reads in place instead: a span a
  /// sub-parser parses from the underlying buffer (nn parameter blocks) or
  /// one it only views (embedded trainer blobs).
  Status Skip(uint64_t n, const char* what);

  /// Fails unless at least `n` bytes remain — the pre-allocation guard for
  /// length fields (call before resizing a buffer to a file-provided size).
  Status Require(uint64_t n, const char* what) const;

  uint64_t remaining() const { return remaining_; }
  std::istream* stream() { return in_; }

 private:
  std::istream* in_;
  uint64_t remaining_;
};

/// Appends the raw little-endian bytes of a POD value to a payload string.
template <typename T>
void WritePod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Appends a u32 count followed by the doubles of `v`.
void WriteF64Vector(std::string* out, const std::vector<double>& v);

/// Reads a double vector whose element count must equal `expect` — every
/// vector in the checkpoint formats has a size known from its header/model,
/// which is what lets a corrupted count fail before any resize.
Status ReadF64VectorExpected(BoundedReader* r, uint32_t expect,
                             std::vector<double>* v, const char* what);

/// Read-only streambuf over a string_view: gives checkpoint payloads an
/// std::istream interface (for self-describing sub-parsers like the nn
/// parameter block) without copying the bytes. Supports tellg/seekg.
class ViewStreambuf : public std::streambuf {
 public:
  explicit ViewStreambuf(std::string_view data);

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override;
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;
};

}  // namespace cerl
