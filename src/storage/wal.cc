#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "util/binary_io.h"
#include "util/fault_injection.h"

namespace cerl {
namespace storage {
namespace {

constexpr std::string_view kFileMagic = "CERLWAL2";
constexpr size_t kHeaderBytes = 16;  // per record
// A single WAL payload is one domain's serialized splits; 1 GiB is far
// beyond any real record and caps what a corrupted length field can make
// the scanner allocate.
constexpr uint32_t kMaxPayload = 1u << 30;

uint64_t RecordChecksum(const char* header8, std::string_view payload) {
  // Checksum covers len + type (the first 8 header bytes) and the payload,
  // so a flip in any of the three is detected.
  Checksum64Stream hasher;
  hasher.Update(std::string_view(header8, 8));
  hasher.Update(payload);
  return hasher.digest();
}

// Walks the valid record prefix of `contents` (the bytes after the file
// magic), calling visit(type, payload, record bytes) for each record, and
// returns the prefix length. Stops at the first record that is short,
// oversized, or fails its checksum.
template <typename Visit>
size_t ScanRecords(std::string_view contents, Visit&& visit) {
  size_t valid_end = 0;
  while (contents.size() - valid_end >= kHeaderBytes) {
    const char* header = contents.data() + valid_end;
    uint32_t len = 0, type = 0;
    uint64_t stored = 0;
    std::memcpy(&len, header, sizeof(len));
    std::memcpy(&type, header + 4, sizeof(type));
    std::memcpy(&stored, header + 8, sizeof(stored));
    if (len > kMaxPayload ||
        static_cast<uint64_t>(len) + kHeaderBytes >
            contents.size() - valid_end) {
      break;  // torn or corrupt length
    }
    const std::string_view payload = contents.substr(valid_end + kHeaderBytes,
                                                     len);
    if (RecordChecksum(header, payload) != stored) break;
    visit(type, payload, contents.substr(valid_end, kHeaderBytes + len));
    valid_end += kHeaderBytes + len;
  }
  return valid_end;
}

}  // namespace

Wal::Wal(std::string path, Options options)
    : path_(std::move(path)), options_(options) {}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Wal::EncodeRecord(uint32_t type, std::string_view payload) {
  std::string bytes;
  bytes.reserve(kHeaderBytes + payload.size());
  const auto len = static_cast<uint32_t>(payload.size());
  WritePod(&bytes, len);
  WritePod(&bytes, type);
  const uint64_t checksum = RecordChecksum(bytes.data(), payload);
  WritePod(&bytes, checksum);
  if (!payload.empty()) bytes.append(payload.data(), payload.size());
  return bytes;
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       const Options& options) {
  std::unique_ptr<Wal> wal(new Wal(path, options));

  // Scan whatever is on disk for the valid record prefix.
  std::string contents;
  {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      ::close(fd);
      auto read = ReadFileToString(path);
      CERL_RETURN_IF_ERROR(read.status());
      contents = std::move(read).value();
    }
    // A missing file is simply an empty log.
  }
  // A file shorter than the magic that is a prefix of it is a crash during
  // creation and opens as an empty log. Any other file must carry the magic
  // and is refused untouched otherwise: records of another format version
  // would all fail their checksums and be truncated away as a torn tail.
  const bool creating = contents.size() < kFileMagic.size() &&
                        kFileMagic.substr(0, contents.size()) == contents;
  size_t valid_end = kFileMagic.size();
  if (!creating) {
    CERL_RETURN_IF_ERROR(CheckMagic(contents, kFileMagic, "WAL " + path));
    valid_end += ScanRecords(
        std::string_view(contents).substr(kFileMagic.size()),
        [&wal](uint32_t type, std::string_view payload,
               std::string_view /*record*/) {
          wal->recovered_.push_back({type, std::string(payload)});
        });
    wal->truncated_bytes_ = contents.size() - valid_end;
  }

  wal->fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (wal->fd_ < 0) return Status::IoError("cannot open WAL: " + path);
  if (creating) {
    if (::pwrite(wal->fd_, kFileMagic.data(), kFileMagic.size(), 0) !=
        static_cast<ssize_t>(kFileMagic.size())) {
      return Status::IoError("cannot write WAL magic: " + path);
    }
  } else if (wal->truncated_bytes_ > 0) {
    if (::ftruncate(wal->fd_, static_cast<off_t>(valid_end)) != 0) {
      return Status::IoError("cannot truncate torn WAL tail: " + path);
    }
  }
  if (::lseek(wal->fd_, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    return Status::IoError("cannot seek WAL: " + path);
  }
  wal->size_bytes_ = valid_end;
  return wal;
}

Status Wal::Append(uint32_t type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    return Status::InvalidArgument("WAL record payload too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::IoError("WAL is closed: " + path_);
  if (CERL_FAULT_POINT(FaultPoint::kIoWrite)) {
    return Status::IoError("injected WAL append failure: " + path_);
  }
  const std::string bytes = EncodeRecord(type, payload);
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t rc = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (rc < 0) {
      // Restore the pre-append length so a half-written record never
      // becomes a parseable-looking tail.
      (void)::ftruncate(fd_, static_cast<off_t>(size_bytes_));
      (void)::lseek(fd_, static_cast<off_t>(size_bytes_), SEEK_SET);
      return Status::IoError("WAL append failed: " + path_);
    }
    done += static_cast<size_t>(rc);
  }
  if (options_.fsync_each_append && ::fsync(fd_) != 0) {
    (void)::ftruncate(fd_, static_cast<off_t>(size_bytes_));
    (void)::lseek(fd_, static_cast<off_t>(size_bytes_), SEEK_SET);
    return Status::IoError("WAL fsync failed: " + path_);
  }
  size_bytes_ += bytes.size();
  ++appended_records_;
  return Status::Ok();
}

Status Wal::Compact(
    const std::function<bool(uint32_t type, std::string_view payload)>&
        keep) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::IoError("WAL is closed: " + path_);
  // Every record on disk is complete: Open cut any torn tail, and a failed
  // append restores the previous length.
  Result<std::string> read = ReadFileToString(path_);
  CERL_RETURN_IF_ERROR(read.status());
  CERL_RETURN_IF_ERROR(CheckMagic(read.value(), kFileMagic, "WAL " + path_));
  std::string contents(kFileMagic);
  ScanRecords(std::string_view(read.value()).substr(kFileMagic.size()),
              [&](uint32_t type, std::string_view payload,
                  std::string_view record) {
                if (keep(type, payload)) contents.append(record);
              });
  // WriteFileAtomic publishes the compacted log or leaves the old one —
  // never a torn intermediate — then the fd is repointed at the new file.
  CERL_RETURN_IF_ERROR(WriteFileAtomic(path_, contents));
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0 || ::lseek(fd_, 0, SEEK_END) < 0) {
    // The old fd points at the unlinked file: appends through it would be
    // lost, so the log closes instead.
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    return Status::IoError("cannot reopen WAL after compaction: " + path_);
  }
  size_bytes_ = contents.size();
  return Status::Ok();
}

uint64_t Wal::size_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_bytes_;
}

uint64_t Wal::appended_records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_records_;
}

}  // namespace storage
}  // namespace cerl
