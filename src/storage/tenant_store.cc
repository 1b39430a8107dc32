#include "storage/tenant_store.h"

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
  // Replace semantics: drop the old chain first so its pages are reusable
  // for the new one (a tenant's new blob is usually the same size).
  auto it = catalog_.find(key);
  if (it != catalog_.end()) {
    stored_bytes_ -= it->second.size;
    const PageId old_head = it->second.head;
    catalog_.erase(it);
    CERL_RETURN_IF_ERROR(FreeChainLocked(old_head));
  }

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

  catalog_[key] = Entry{pages.front(), blob.size()};
  stored_bytes_ += blob.size();
  return Status::Ok();
}

Result<std::string> TenantStore::Get(int64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = catalog_.find(key);
  if (it == catalog_.end()) {
    return Status::NotFound("tenant store has no blob for key " +
                            std::to_string(key));
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
  const PageId head = it->second.head;
  stored_bytes_ -= it->second.size;
  catalog_.erase(it);
  return FreeChainLocked(head);
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
