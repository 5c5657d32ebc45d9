// BufferManager: a page cache between the disk-resident index structures
// and the Env file seam. Readers Pin() pages — faulting them from disk with
// CRC validation on every fault — and hold a PageRef while the bytes are in
// use. Clean pages live in one sharded LruCache (common/lru_cache.h) keyed by
// (file, page) and are evicted by charge when the pool exceeds its byte
// capacity. A PageRef owns a shared_ptr to its immutable frame, so a pinned
// page stays valid after it is evicted: there are no pin counts, and a hit
// takes only one cache shard's lock. Checkpoint builders AppendPage() new
// pages through the same pool; dirty pages are held in their file's list
// (pinnable, never evicted) until Flush() writes them — in page-id order,
// which for append-only files is append order — syncs, and moves them into
// the cache.
//
// All I/O goes through Env, so the fault-injection environment covers
// checkpoint files exactly like block segments. Internally synchronized.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/lru_cache.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace sebdb {

struct BufferPoolOptions {
  /// Total frame budget in bytes (frames are whole pages).
  uint64_t capacity_bytes = 64ull << 20;
  /// nullptr means Env::Default(). Tests plug a FaultInjectionEnv.
  Env* env = nullptr;
};

class BufferManager {
 public:
  using FileId = uint32_t;
  static constexpr FileId kInvalidFileId = 0xFFFFFFFFu;

  /// Snapshot of the pool counters, surfaced through ChainManager and the
  /// node startup log like CacheStats.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;        // faults from disk
    uint64_t evictions = 0;
    uint64_t dirty_writes = 0;  // pages written by Flush
    uint64_t pages = 0;         // frames resident (clean + dirty)
    uint64_t dirty = 0;         // frames awaiting Flush
    uint64_t usage = 0;         // resident bytes (clean + dirty)
    uint64_t capacity = 0;
    uint64_t files = 0;
  };

  explicit BufferManager(BufferPoolOptions options);
  ~BufferManager();
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Opens an existing page file read-only. Fails unless the size is a whole
  /// number of pages (a torn checkpoint file — such files are never
  /// referenced by a published manifest).
  Status OpenFile(const std::string& path, FileId* id) EXCLUDES(mu_);

  /// Creates (truncating semantics: the file must not exist) a writable page
  /// file; pages are added with AppendPage and become readable immediately.
  Status CreateFile(const std::string& path, FileId* id) EXCLUDES(mu_);

  /// Drops every frame of `id` (dirty ones included) and closes its handles.
  /// Abort path for checkpoint builds whose manifest publish failed.
  void DropFile(FileId id) EXCLUDES(mu_);

  struct Frame;

  /// Pin guard: owns the page's immutable frame, so its payload view stays
  /// valid until release even if the pool evicts the page meanwhile.
  /// Movable, not copyable.
  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&&) noexcept = default;
    PageRef& operator=(PageRef&&) noexcept = default;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;

    bool valid() const { return frame_ != nullptr; }
    PageType type() const;
    Slice payload() const;
    void Release() { frame_.reset(); }

   private:
    friend class BufferManager;
    explicit PageRef(std::shared_ptr<const Frame> frame)
        : frame_(std::move(frame)) {}
    std::shared_ptr<const Frame> frame_;
  };

  /// Pins page `page` of `file`, faulting it from disk (with CRC validation)
  /// on a miss.
  Status Pin(FileId file, PageId page, PageRef* out) EXCLUDES(mu_);

  /// Appends a new page to a writable file. The frame is dirty — held in
  /// the file's list and pinnable, but not evictable — until Flush. When
  /// dirty bytes exceed half the pool capacity the file is flushed inline
  /// (bounds memory while building checkpoints larger than the pool).
  Status AppendPage(FileId file, PageType type, const Slice& payload,
                    PageId* page) EXCLUDES(mu_);

  /// Writes the file's dirty pages (in page order), syncs, and moves them
  /// into the clean-page cache.
  Status Flush(FileId file) EXCLUDES(mu_);

  /// Pages in the file (appended-but-unflushed pages included).
  uint64_t file_pages(FileId file) const EXCLUDES(mu_);
  uint64_t file_size(FileId file) const { return file_pages(file) * kPageSize; }

  Stats stats() const EXCLUDES(mu_);
  uint64_t capacity() const { return options_.capacity_bytes; }
  Env* env() const { return env_; }

 private:
  struct FileState {
    std::string path;
    bool writable = false;
    bool failed = false;  // a write error wedged the file
    std::unique_ptr<WritableFile> writer;
    std::unique_ptr<ReadableFile> reader;  // opened on first fault
    PageId num_pages = 0;      // appended (flushed or not)
    PageId flushed_pages = 0;  // durable prefix
    // Pages [flushed_pages, num_pages), in append order.
    std::vector<std::shared_ptr<const Frame>> dirty;
  };

  Status FlushLocked(FileId file, FileState* fs) REQUIRES(mu_);
  static uint64_t FrameKey(FileId file, PageId page) {
    return (static_cast<uint64_t>(file) << 32) | page;
  }

  BufferPoolOptions options_;
  Env* env_;
  LruCache<uint64_t, const Frame> clean_;  // flushed pages, internally locked

  mutable Mutex mu_;
  std::vector<std::unique_ptr<FileState>> files_ GUARDED_BY(mu_);
  uint64_t dirty_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t dirty_hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t dirty_writes_ GUARDED_BY(mu_) = 0;
};

}  // namespace sebdb
