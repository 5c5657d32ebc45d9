#include "storage/buffer_manager.h"

namespace sebdb {

// A resident page. `data` is the full encoded page; the payload follows its
// header. Written once (on fault or append) and immutable afterwards, so a
// PageRef reads it without any lock.
struct BufferManager::Frame {
  std::string data;
  PageType type = PageType::kBlob;
  uint32_t payload_len = 0;
};

PageType BufferManager::PageRef::type() const { return frame_->type; }

Slice BufferManager::PageRef::payload() const {
  return Slice(frame_->data.data() + kPageHeaderSize, frame_->payload_len);
}

BufferManager::BufferManager(BufferPoolOptions options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      clean_(options.capacity_bytes) {}

BufferManager::~BufferManager() = default;

Status BufferManager::OpenFile(const std::string& path, FileId* id) {
  uint64_t size = 0;
  Status s = env_->FileSize(path, &size);
  if (!s.ok()) return s;
  if (size % kPageSize != 0) {
    return Status::Corruption("page file " + path +
                              " is not a whole number of pages");
  }
  MutexLock lock(&mu_);
  auto fs = std::make_unique<FileState>();
  fs->path = path;
  fs->num_pages = static_cast<PageId>(size / kPageSize);
  fs->flushed_pages = fs->num_pages;
  *id = static_cast<FileId>(files_.size());
  files_.push_back(std::move(fs));
  return Status::OK();
}

Status BufferManager::CreateFile(const std::string& path, FileId* id) {
  uint64_t size = 0;
  if (env_->FileSize(path, &size).ok() && size > 0) {
    // Env's writable files are append-only; a leftover file (crashed
    // checkpoint build) must be removed first so pages land at offset 0.
    Status s = env_->RemoveFile(path);
    if (!s.ok()) return s;
  }
  std::unique_ptr<WritableFile> writer;
  Status s = env_->NewWritableFile(path, &writer);
  if (!s.ok()) return s;
  MutexLock lock(&mu_);
  auto fs = std::make_unique<FileState>();
  fs->path = path;
  fs->writable = true;
  fs->writer = std::move(writer);
  *id = static_cast<FileId>(files_.size());
  files_.push_back(std::move(fs));
  return Status::OK();
}

void BufferManager::DropFile(FileId id) {
  MutexLock lock(&mu_);
  if (id >= files_.size() || files_[id] == nullptr) return;
  FileState* fs = files_[id].get();
  for (PageId p = 0; p < fs->flushed_pages; p++) clean_.Erase(FrameKey(id, p));
  dirty_bytes_ -= fs->dirty.size() * kPageSize;
  if (fs->writer != nullptr) fs->writer->Close().ok();
  files_[id] = nullptr;
}

Status BufferManager::Pin(FileId file, PageId page, PageRef* out) {
  if (auto frame = clean_.Lookup(FrameKey(file, page))) {
    *out = PageRef(std::move(frame));
    return Status::OK();
  }
  const ReadableFile* reader = nullptr;
  std::string path;
  {
    MutexLock lock(&mu_);
    if (file >= files_.size() || files_[file] == nullptr) {
      return Status::InvalidArgument("unknown buffer pool file");
    }
    FileState* fs = files_[file].get();
    if (page >= fs->num_pages) {
      return Status::InvalidArgument("page " + std::to_string(page) +
                                     " past end of " + fs->path);
    }
    if (page >= fs->flushed_pages) {
      dirty_hits_++;
      *out = PageRef(fs->dirty[page - fs->flushed_pages]);
      return Status::OK();
    }
    misses_++;
    if (fs->reader == nullptr) {
      Status s = env_->NewReadableFile(fs->path, &fs->reader);
      if (!s.ok()) return s;
    }
    // The reader pointer stays valid outside the lock: it is only destroyed
    // by DropFile/destruction, which callers must not race with Pin.
    reader = fs->reader.get();
    path = fs->path;
  }

  auto frame = std::make_shared<Frame>();
  Status s = reader->Read(static_cast<uint64_t>(page) * kPageSize, kPageSize,
                          &frame->data);
  if (!s.ok()) return s;
  if (frame->data.size() != kPageSize) {
    return Status::IOError("short page read from " + path);
  }
  Slice payload;
  s = DecodePage(Slice(frame->data), &frame->type, &payload);
  if (!s.ok()) return s;
  frame->payload_len = static_cast<uint32_t>(payload.size());
  // A concurrent fault of the same page may insert too; the copies are
  // identical and the later one replaces the earlier.
  clean_.Insert(FrameKey(file, page), frame, kPageSize);
  *out = PageRef(std::move(frame));
  return Status::OK();
}

Status BufferManager::AppendPage(FileId file, PageType type,
                                 const Slice& payload, PageId* page) {
  MutexLock lock(&mu_);
  if (file >= files_.size() || files_[file] == nullptr) {
    return Status::InvalidArgument("unknown buffer pool file");
  }
  FileState* fs = files_[file].get();
  if (!fs->writable) {
    return Status::InvalidArgument("file " + fs->path + " is read-only");
  }
  if (fs->failed) {
    return Status::IOError("file " + fs->path +
                           " wedged by an earlier write failure");
  }
  auto frame = std::make_shared<Frame>();
  Status s = EncodePage(type, payload, &frame->data);
  if (!s.ok()) return s;
  frame->type = type;
  frame->payload_len = static_cast<uint32_t>(payload.size());
  *page = fs->num_pages++;
  fs->dirty.push_back(std::move(frame));
  dirty_bytes_ += kPageSize;
  if (dirty_bytes_ > options_.capacity_bytes / 2) {
    return FlushLocked(file, fs);
  }
  return Status::OK();
}

Status BufferManager::FlushLocked(FileId file, FileState* fs) {
  if (fs->dirty.empty()) return Status::OK();
  for (const auto& frame : fs->dirty) {
    Status s = fs->writer->Append(frame->data);
    if (!s.ok()) {
      fs->failed = true;  // unknown how much reached the file
      return s;
    }
    dirty_writes_++;
  }
  Status s = fs->writer->Sync();
  if (!s.ok()) {
    fs->failed = true;
    return s;
  }
  for (size_t i = 0; i < fs->dirty.size(); i++) {
    clean_.Insert(FrameKey(file, fs->flushed_pages + static_cast<PageId>(i)),
                  std::move(fs->dirty[i]), kPageSize);
  }
  dirty_bytes_ -= fs->dirty.size() * kPageSize;
  fs->dirty.clear();
  fs->flushed_pages = fs->num_pages;
  return Status::OK();
}

Status BufferManager::Flush(FileId file) {
  MutexLock lock(&mu_);
  if (file >= files_.size() || files_[file] == nullptr) {
    return Status::InvalidArgument("unknown buffer pool file");
  }
  FileState* fs = files_[file].get();
  if (!fs->writable) return Status::OK();
  if (fs->failed) {
    return Status::IOError("file " + fs->path +
                           " wedged by an earlier write failure");
  }
  return FlushLocked(file, fs);
}

uint64_t BufferManager::file_pages(FileId file) const {
  MutexLock lock(&mu_);
  if (file >= files_.size() || files_[file] == nullptr) return 0;
  return files_[file]->num_pages;
}

BufferManager::Stats BufferManager::stats() const {
  const auto clean = clean_.stats();
  MutexLock lock(&mu_);
  Stats out;
  out.hits = clean.hits + dirty_hits_;
  out.misses = misses_;
  out.evictions = clean.evictions;
  out.dirty_writes = dirty_writes_;
  out.dirty = dirty_bytes_ / kPageSize;
  out.pages = clean.entries + out.dirty;
  out.usage = clean.usage + dirty_bytes_;
  out.capacity = options_.capacity_bytes;
  for (const auto& fs : files_) {
    if (fs != nullptr) out.files++;
  }
  return out;
}

}  // namespace sebdb
