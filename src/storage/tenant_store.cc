#include "storage/tenant_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "util/binary_io.h"

namespace cerl {
namespace storage {
namespace {

constexpr uint32_t kNextBytes = 4;                 // every page
constexpr uint32_t kHeadHeaderBytes = 4 + 8 + 8;   // next + size + checksum
constexpr uint32_t kHeadCapacity = kPageSize - kHeadHeaderBytes;
constexpr uint32_t kTailCapacity = kPageSize - kNextBytes;

}  // namespace

Result<std::shared_ptr<const ReadOnlyFile>> ReadOnlyFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open for read: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot size file: " + path);
  }
  return std::shared_ptr<const ReadOnlyFile>(
      new ReadOnlyFile(path, fd, static_cast<uint64_t>(st.st_size)));
}

ReadOnlyFile::~ReadOnlyFile() { ::close(fd_); }

Result<std::string> ReadOnlyFile::ReadAt(uint64_t offset, uint64_t n) const {
  std::string bytes(n, '\0');
  CERL_RETURN_IF_ERROR(PreadFull(fd_, bytes.data(), n, offset, path_));
  return bytes;
}

Status TenantStore::DropLocked(Catalog::iterator it) {
  const PageId head = it->second.head;
  const bool chain = it->second.file == nullptr;
  stored_bytes_ -= it->second.size;
  catalog_.erase(it);
  return chain ? FreeChainLocked(head) : Status::Ok();
}

Status TenantStore::FreeChainLocked(PageId head) {
  DiskManager* disk = pool_->disk();
  PageId id = head;
  while (id != kInvalidPageId) {
    PageId next = kInvalidPageId;
    {
      auto page = pool_->Fetch(id);
      CERL_RETURN_IF_ERROR(page.status());
      std::memcpy(&next, page.value().data(), sizeof(next));
    }
    pool_->Discard(id);
    CERL_RETURN_IF_ERROR(disk->FreePage(id));
    id = next;
  }
  return Status::Ok();
}

Status TenantStore::Put(int64_t key, std::string_view blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Replace semantics: drop the old blob first so its pages are reusable
  // for the new one (a tenant's new blob is usually the same size).
  auto it = catalog_.find(key);
  if (it != catalog_.end()) CERL_RETURN_IF_ERROR(DropLocked(it));

  // Allocate and fill the chain front-to-back; each page is linked to its
  // successor after the successor exists, so a mid-Put failure leaks no
  // dangling next pointers into live chains (the partial chain is freed).
  const uint64_t checksum = Checksum64(blob);
  std::vector<PageId> pages;
  Status status = Status::Ok();
  size_t off = 0;
  do {
    auto page = pool_->Create();
    status = page.status();
    if (!status.ok()) break;
    PageHandle& h = page.value();
    pages.push_back(h.id());
    char* data = h.data();
    uint32_t header = kNextBytes;
    if (pages.size() == 1) {
      const uint64_t size = blob.size();
      std::memcpy(data + 4, &size, sizeof(size));
      std::memcpy(data + 12, &checksum, sizeof(checksum));
      header = kHeadHeaderBytes;
    }
    const size_t room = kPageSize - header;
    const size_t take = std::min(room, blob.size() - off);
    if (take > 0) std::memcpy(data + header, blob.data() + off, take);
    off += take;
    h.MarkDirty();
  } while (off < blob.size());

  if (status.ok()) {
    // Link the chain (next pointers were zero-initialized by Create).
    for (size_t i = 0; i + 1 < pages.size(); ++i) {
      auto page = pool_->Fetch(pages[i]);
      status = page.status();
      if (!status.ok()) break;
      const PageId next = pages[i + 1];
      std::memcpy(page.value().data(), &next, sizeof(next));
      page.value().MarkDirty();
    }
  }

  if (!status.ok()) {
    DiskManager* disk = pool_->disk();
    for (const PageId id : pages) {
      pool_->Discard(id);
      (void)disk->FreePage(id);
    }
    return status;
  }

  catalog_[key] = Entry{pages.front(), blob.size(), nullptr, 0};
  stored_bytes_ += blob.size();
  return Status::Ok();
}

Status TenantStore::Adopt(int64_t key,
                          std::shared_ptr<const ReadOnlyFile> file,
                          uint64_t offset, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = catalog_.find(key);
  if (it != catalog_.end()) CERL_RETURN_IF_ERROR(DropLocked(it));
  catalog_[key] = Entry{kInvalidPageId, size, std::move(file), offset};
  stored_bytes_ += size;
  return Status::Ok();
}

Result<std::string> TenantStore::Get(int64_t key) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = catalog_.find(key);
  if (it == catalog_.end()) {
    return Status::NotFound("tenant store has no blob for key " +
                            std::to_string(key));
  }
  if (it->second.file != nullptr) {
    // The copied entry keeps the descriptor open, so the read runs
    // off-lock: concurrent fault-backs do not queue behind each other.
    const Entry range = it->second;
    lock.unlock();
    Result<std::string> blob = range.file->ReadAt(range.offset, range.size);
    if (!blob.ok()) return blob.status();
    CERL_RETURN_IF_ERROR(
        VerifyChecksum(blob.value(),
                       "tenant store range for key " + std::to_string(key))
            .status());
    return blob;
  }
  std::string blob;
  blob.reserve(it->second.size);
  uint64_t declared_size = 0;
  uint64_t checksum = 0;
  PageId id = it->second.head;
  bool first = true;
  // The head page is always visited (it carries size + checksum even for an
  // empty blob); tail pages only while payload bytes remain.
  while (id != kInvalidPageId && (first || blob.size() < it->second.size)) {
    auto page = pool_->Fetch(id);
    CERL_RETURN_IF_ERROR(page.status());
    const char* data = page.value().data();
    PageId next = kInvalidPageId;
    std::memcpy(&next, data, sizeof(next));
    uint32_t header = kNextBytes;
    if (first) {
      std::memcpy(&declared_size, data + 4, sizeof(declared_size));
      std::memcpy(&checksum, data + 12, sizeof(checksum));
      if (declared_size != it->second.size) {
        return Status::IoError("tenant store chain for key " +
                               std::to_string(key) +
                               " has inconsistent size header");
      }
      header = kHeadHeaderBytes;
      first = false;
    }
    const size_t take = std::min<uint64_t>(kPageSize - header,
                                           it->second.size - blob.size());
    blob.append(data + header, take);
    id = next;
  }
  if (blob.size() != it->second.size) {
    return Status::IoError("tenant store chain for key " +
                           std::to_string(key) + " is truncated");
  }
  if (Checksum64(blob) != checksum) {
    return Status::IoError("tenant store blob for key " +
                           std::to_string(key) +
                           " failed its checksum (corrupted store)");
  }
  return blob;
}

Status TenantStore::Erase(int64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = catalog_.find(key);
  if (it == catalog_.end()) {
    return Status::NotFound("tenant store has no blob for key " +
                            std::to_string(key));
  }
  return DropLocked(it);
}

bool TenantStore::Contains(int64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return catalog_.count(key) != 0;
}

size_t TenantStore::num_blobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return catalog_.size();
}

uint64_t TenantStore::stored_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stored_bytes_;
}

}  // namespace storage
}  // namespace cerl
