#include "storage/block_store.h"

#include <algorithm>
#include <cstdio>

#include "common/coding.h"
#include "common/crc32.h"

namespace sebdb {

namespace {

constexpr uint32_t kRecordMagic = 0x5ebdb10c;
constexpr size_t kFrameHeaderSize = 8;  // magic + payload length
constexpr size_t kFrameTrailerSize = 4;  // crc32 of payload

std::string SegmentName(uint32_t id) {
  char buf[32];
  snprintf(buf, sizeof(buf), "seg_%06u.blk", id);
  return buf;
}

// Sentinel for "no defect found" in ScanSegment's degraded out-param.
constexpr uint64_t kNoDefect = ~0ull;

uint64_t TxnCacheKey(BlockId height, uint32_t index) {
  return (height << 20) | index;  // blocks hold far fewer than 2^20 txns
}

}  // namespace

void TrustedPrefix::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(segments.size()));
  for (const auto& seg : segments) {
    PutVarint32(dst, static_cast<uint32_t>(seg.size()));
    for (uint32_t len : seg) PutVarint32(dst, len);
  }
}

bool TrustedPrefix::DecodeFrom(Slice* in, TrustedPrefix* out) {
  uint32_t nsegs;
  if (!GetVarint32(in, &nsegs) || nsegs > in->size()) return false;
  out->segments.clear();
  out->segments.resize(nsegs);
  for (uint32_t s = 0; s < nsegs; s++) {
    uint32_t nrecs;
    if (!GetVarint32(in, &nrecs) || nrecs > in->size()) return false;
    out->segments[s].reserve(nrecs);
    for (uint32_t i = 0; i < nrecs; i++) {
      uint32_t len;
      if (!GetVarint32(in, &len)) return false;
      out->segments[s].push_back(len);
    }
  }
  return true;
}

Status BlockStore::Open(const BlockStoreOptions& options,
                        const std::string& dir) {
  MutexLock lock(&mu_);
  if (open_) return Status::Busy("block store already open");
  options_ = options;
  env_ = options.env != nullptr ? options.env : Env::Default();
  dir_ = dir;
  Status s = env_->CreateDirIfMissing(dir);
  if (!s.ok()) return s;
  if (options_.block_cache_bytes > 0) {
    block_cache_ = std::make_unique<LruCache<uint64_t, const Block>>(
        options_.block_cache_bytes);
  }
  if (options_.transaction_cache_bytes > 0) {
    txn_cache_ = std::make_unique<LruCache<uint64_t, const Transaction>>(
        options_.transaction_cache_bytes);
  }
  s = RecoverSegments();
  if (!s.ok()) return s;
  open_ = true;
  wedged_ = false;
  return Status::OK();
}

// Scans one segment, CRC-validating every record, and appends valid
// locations. Any invalid frame — bad magic, implausible length, torn bytes,
// CRC mismatch — ends the valid prefix: in the tail segment the file is
// truncated back to it (crash self-healing), anywhere else the store
// refuses to open (real mid-chain corruption, not a crash artifact) unless
// degraded handling is armed via `defect_offset`.
Status BlockStore::ScanSegment(uint32_t seg_id, const std::string& name,
                               bool is_tail, uint64_t start_offset,
                               uint64_t* defect_offset) {
  const std::string path = dir_ + "/" + name;
  RandomAccessFile file;
  Status s = file.Open(path, env_);
  if (!s.ok()) return s;

  const uint64_t file_size = file.size();
  uint64_t offset = start_offset;  // end of the valid prefix
  std::string defect;
  size_t valid_records = 0;
  while (defect.empty() && offset + kFrameHeaderSize <= file_size) {
    std::string frame;
    s = file.Read(offset, kFrameHeaderSize, &frame);
    if (!s.ok()) return s;  // I/O error, not corruption: do not truncate
    uint32_t magic = DecodeFixed32(frame.data());
    uint32_t len = DecodeFixed32(frame.data() + 4);
    if (magic != kRecordMagic) {
      defect = "bad record magic";
      break;
    }
    if (offset + kFrameHeaderSize + len + kFrameTrailerSize > file_size) {
      defect = "torn record body";
      break;
    }
    std::string payload;
    s = file.Read(offset + kFrameHeaderSize, len + kFrameTrailerSize,
                  &payload);
    if (!s.ok()) return s;
    uint32_t stored_crc = DecodeFixed32(payload.data() + len);
    if (Crc32(0, payload.data(), len) != stored_crc) {
      defect = "record crc mismatch";
      break;
    }
    locations_.push_back({seg_id, offset + kFrameHeaderSize, len});
    valid_records++;
    offset += kFrameHeaderSize + len + kFrameTrailerSize;
  }
  if (defect.empty() && offset < file_size) {
    defect = "torn frame header";  // trailing fragment shorter than a header
  }
  s = file.Close();
  if (!s.ok()) return s;  // I/O error, not corruption: do not truncate

  if (defect.empty()) return Status::OK();
  if (!is_tail) {
    if (options_.degraded_open && defect_offset != nullptr) {
      *defect_offset = offset;
      fprintf(stderr,
              "[sebdb] block store %s: %s in non-tail segment %s at offset "
              "%llu; degraded open, quarantining chain suffix\n",
              dir_.c_str(), defect.c_str(), name.c_str(),
              static_cast<unsigned long long>(offset));
      return Status::OK();
    }
    return Status::Corruption(defect + " in non-tail segment " + name +
                              " at offset " + std::to_string(offset));
  }
  // Torn tail from a crash mid-append: truncate back to the last valid
  // record so the writer resumes there instead of appending after garbage.
  // Well-framed records past the defect are dropped too — without a valid
  // prefix they cannot be trusted to be the records consensus committed.
  uint64_t garbage = file_size - offset;
  s = env_->TruncateFile(path, offset);
  if (!s.ok()) return s;
  recovery_.bytes_truncated += garbage;
  recovery_.tail_truncated = true;
  // Count whole frames lost after the defect point (best effort: at least
  // the defective record itself).
  recovery_.records_dropped += 1;
  fprintf(stderr,
          "[sebdb] block store %s: %s in tail segment %s; truncated %llu "
          "byte(s), %zu valid record(s) kept\n",
          dir_.c_str(), defect.c_str(), name.c_str(),
          static_cast<unsigned long long>(garbage), valid_records);
  return Status::OK();
}

Status BlockStore::RecoverSegments() {
  std::vector<std::string> files;
  Status s = env_->ListDir(dir_, &files);
  if (!s.ok()) return s;
  std::vector<std::string> segments;
  for (const auto& f : files) {
    if (f.size() == 14 && f.rfind(".blk") == 10 && f.rfind("seg_", 0) == 0) {
      segments.push_back(f);
    }
  }
  std::sort(segments.begin(), segments.end());

  locations_.clear();
  recovery_ = RecoveryStats{};
  uint32_t tail_seg =
      segments.empty() ? 0 : static_cast<uint32_t>(segments.size() - 1);
  if (options_.trusted_prefix == nullptr ||
      !TryTrustedRecover(*options_.trusted_prefix, segments)) {
    // Full validating scan (no checkpoint, or the prefix did not match).
    locations_.clear();
    recovery_ = RecoveryStats{};
    for (uint32_t seg_id = 0; seg_id < segments.size(); seg_id++) {
      uint64_t defect_offset = kNoDefect;
      s = ScanSegment(seg_id, segments[seg_id],
                      /*is_tail=*/seg_id + 1 == segments.size(),
                      /*start_offset=*/0, &defect_offset);
      if (!s.ok()) return s;
      if (defect_offset != kNoDefect) {
        // Degraded open: set the defective suffix aside and resume appends
        // at the end of the verified prefix. Later segments are never
        // scanned — without a valid predecessor their records cannot be
        // trusted to be the chain consensus committed.
        s = QuarantineSuffix(seg_id, defect_offset, segments);
        if (!s.ok()) return s;
        tail_seg = seg_id;
        break;
      }
    }
  }
  recovery_.blocks_recovered = locations_.size();
  recovery_.segments_scanned = static_cast<uint32_t>(segments.size());

  active_segment_ = tail_seg;
  return OpenSegmentForAppend(active_segment_);
}

// Copies the defective byte range and every later segment to .quar files
// (post-mortem evidence), then drops them from the live chain: later
// segments are removed highest-first so the live set stays dense, and the
// defective segment is truncated back to its verified prefix last. A crash
// anywhere in between leaves a state the next open self-heals: either the
// defect is re-detected (re-quarantine) or the defective segment has become
// the tail and ordinary tail truncation finishes the job.
Status BlockStore::QuarantineSuffix(uint32_t defect_seg, uint64_t defect_offset,
                                    const std::vector<std::string>& segments) {
  uint64_t bytes = 0;
  for (size_t seg = defect_seg; seg < segments.size(); seg++) {
    const std::string src_path = dir_ + "/" + segments[seg];
    const std::string quar_path = src_path + ".quar";
    const uint64_t from = seg == defect_seg ? defect_offset : 0;
    RandomAccessFile src;
    Status s = src.Open(src_path, env_);
    if (!s.ok()) return s;
    std::string contents;
    if (src.size() > from) {
      s = src.Read(from, src.size() - from, &contents);
      if (!s.ok()) {
        (void)src.Close();
        return s;
      }
    }
    s = src.Close();
    if (!s.ok()) return s;
    (void)env_->RemoveFile(quar_path);  // stale copy from an earlier repair
    AppendOnlyFile quar;
    s = quar.Open(quar_path, env_);
    if (!s.ok()) return s;
    s = quar.Append(contents);
    if (s.ok()) s = quar.Sync();
    Status close = quar.Close();
    if (s.ok()) s = close;
    if (!s.ok()) return s;
    bytes += contents.size();
  }
  Status s;
  for (size_t seg = segments.size(); seg-- > defect_seg + 1;) {
    s = env_->RemoveFile(dir_ + "/" + segments[seg]);
    if (!s.ok()) return s;
  }
  s = env_->TruncateFile(dir_ + "/" + segments[defect_seg], defect_offset);
  if (!s.ok()) return s;
  s = env_->SyncDir(dir_);
  if (!s.ok()) return s;
  recovery_.degraded = true;
  recovery_.segments_quarantined =
      static_cast<uint32_t>(segments.size() - defect_seg);
  recovery_.bytes_quarantined = bytes;
  fprintf(stderr,
          "[sebdb] block store %s: quarantined %u segment(s), %llu byte(s); "
          "serving verified prefix of %zu record(s)\n",
          dir_.c_str(), recovery_.segments_quarantined,
          static_cast<unsigned long long>(bytes), locations_.size());
  return Status::OK();
}

// Adopts the checkpoint's layout digest: rebuild Locations arithmetically,
// verify segment sizes are consistent with the claimed record lists, CRC
// spot-check the newest trusted record, then scan only the bytes past the
// prefix. Returns false (caller falls back to the full scan) on any
// mismatch — a digest is an optimization, never a source of truth.
bool BlockStore::TryTrustedRecover(const TrustedPrefix& trusted,
                                   const std::vector<std::string>& segments) {
  const size_t nt = trusted.segments.size();
  if (nt == 0 || nt > segments.size() || trusted.num_records() == 0) {
    return false;
  }

  Location last_loc{0, 0, 0};
  std::vector<uint64_t> seg_end(nt, 0);
  for (size_t t = 0; t < nt; t++) {
    uint64_t offset = 0;
    for (uint32_t len : trusted.segments[t]) {
      if (len > options_.segment_size) return false;
      locations_.push_back({static_cast<uint32_t>(t),
                            offset + kFrameHeaderSize, len});
      last_loc = locations_.back();
      offset += kFrameHeaderSize + len + kFrameTrailerSize;
    }
    seg_end[t] = offset;
    uint64_t actual = 0;
    if (!env_->FileSize(dir_ + "/" + segments[t], &actual).ok()) return false;
    // Rolled-past segments never grow, so anything but an exact size match
    // means the digest describes some other history. The last trusted
    // segment may legitimately have grown (appends since the checkpoint).
    if (t + 1 < nt ? actual != offset : actual < offset) return false;
  }

  // One CRC spot-check of the newest trusted record guards against the
  // pathological "same sizes, different bytes" case (e.g. a restored
  // backup); per-record validation stays where it always was: on read.
  std::string payload;
  {
    RandomAccessFile file;
    if (!file.Open(dir_ + "/" + segments[last_loc.segment], env_).ok()) {
      return false;
    }
    Status s = file.Read(last_loc.offset,
                         last_loc.length + kFrameTrailerSize, &payload);
    (void)file.Close();
    if (!s.ok() || payload.size() != last_loc.length + kFrameTrailerSize) {
      return false;
    }
  }
  uint32_t stored_crc = DecodeFixed32(payload.data() + last_loc.length);
  if (Crc32(0, payload.data(), last_loc.length) != stored_crc) return false;

  recovery_.blocks_trusted = locations_.size();
  recovery_.used_trusted_prefix = true;

  // Scan the unverified remainder: the tail of the last trusted segment,
  // then every later segment in full. Degraded handling stays disarmed here
  // (null defect pointer): a non-tail defect fails the trusted path and the
  // full-scan fallback quarantines with complete knowledge of the layout.
  for (size_t seg = nt - 1; seg < segments.size(); seg++) {
    Status s = ScanSegment(static_cast<uint32_t>(seg), segments[seg],
                           /*is_tail=*/seg + 1 == segments.size(),
                           /*start_offset=*/seg == nt - 1 ? seg_end[seg] : 0,
                           /*defect_offset=*/nullptr);
    if (!s.ok()) return false;
  }
  return true;
}

TrustedPrefix BlockStore::trusted_prefix_snapshot() const {
  MutexLock lock(&mu_);
  TrustedPrefix out;
  out.segments.resize(active_segment_ + 1);
  for (const Location& loc : locations_) {
    out.segments[loc.segment].push_back(loc.length);
  }
  return out;
}

Status BlockStore::OpenSegmentForAppend(uint32_t segment_id) {
  if (writer_.is_open() && options_.sync_on_append) {
    // Rolling: make the finished segment durable before moving on.
    Status s = writer_.Sync();
    if (!s.ok()) return s;
  }
  Status s = writer_.Close();
  if (!s.ok()) return s;
  const std::string path = dir_ + "/" + SegmentName(segment_id);
  uint64_t existing = 0;
  bool created = !env_->FileSize(path, &existing).ok();
  active_segment_ = segment_id;
  s = writer_.Open(path, env_);
  if (!s.ok()) return s;
  if (created) {
    // fsync the directory so the new segment's directory entry survives a
    // crash (otherwise recovery could find block N+1's segment but not N's).
    s = env_->SyncDir(dir_);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status BlockStore::Append(const Block& block) {
  MutexLock lock(&mu_);
  if (!open_) return Status::IOError("block store not open");
  if (wedged_) {
    return Status::IOError(
        "block store wedged by an earlier write failure; reopen to recover");
  }
  if (block.height() != locations_.size()) {
    return Status::InvalidArgument(
        "non-consecutive block height " + std::to_string(block.height()) +
        " (expected " + std::to_string(locations_.size()) + ")");
  }

  std::string payload;
  block.EncodeTo(&payload);
  return AppendPayload(payload);
}

Status BlockStore::AppendRaw(BlockId height, const Slice& payload) {
  MutexLock lock(&mu_);
  if (!open_) return Status::IOError("block store not open");
  if (wedged_) {
    return Status::IOError(
        "block store wedged by an earlier write failure; reopen to recover");
  }
  if (height != locations_.size()) {
    return Status::InvalidArgument(
        "non-consecutive block height " + std::to_string(height) +
        " (expected " + std::to_string(locations_.size()) + ")");
  }
  return AppendPayload(payload);
}

// Shared framing path for Append/AppendRaw: rolls the segment when the
// frame would overflow it, then writes magic | len | payload | crc32.
Status BlockStore::AppendPayload(const Slice& payload) {
  if (writer_.size() + kFrameHeaderSize + payload.size() + kFrameTrailerSize >
          options_.segment_size &&
      writer_.size() > 0) {
    Status s = OpenSegmentForAppend(active_segment_ + 1);
    if (!s.ok()) {
      wedged_ = true;
      return s;
    }
  }

  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size() + kFrameTrailerSize);
  PutFixed32(&frame, kRecordMagic);
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  uint64_t payload_offset = writer_.size() + frame.size();
  frame.append(payload.data(), payload.size());
  PutFixed32(&frame, Crc32(0, payload.data(), payload.size()));

  Status s = writer_.Append(frame);
  if (!s.ok()) {
    wedged_ = true;  // unknown how much of the frame reached the file
    return s;
  }
  if (options_.sync_on_append) {
    s = writer_.Sync();
    if (!s.ok()) {
      wedged_ = true;  // record written but not durable; replay on reopen
      return s;
    }
  }

  locations_.push_back({active_segment_, payload_offset,
                        static_cast<uint32_t>(payload.size())});
  stats_.blocks_appended.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_appended.fetch_add(frame.size(), std::memory_order_relaxed);

  // A freshly appended segment invalidates any stale reader for it (size
  // changed); drop it so the next read reopens.
  if (active_segment_ < readers_.size()) {
    readers_[active_segment_].reset();
  }
  return Status::OK();
}

uint64_t BlockStore::num_blocks() const {
  MutexLock lock(&mu_);
  return locations_.size();
}

std::shared_ptr<RandomAccessFile> BlockStore::Reader(uint32_t segment) const {
  if (segment >= readers_.size()) readers_.resize(segment + 1);
  if (readers_[segment] == nullptr) {
    auto file = std::make_shared<RandomAccessFile>();
    Status s = file->Open(dir_ + "/" + SegmentName(segment), env_);
    if (!s.ok()) return nullptr;
    readers_[segment] = std::move(file);
  }
  return readers_[segment];
}

Status BlockStore::ReadAt(uint32_t segment, uint64_t offset, size_t n,
                          std::string* out) const {
  std::shared_ptr<RandomAccessFile> reader;
  {
    MutexLock lock(&mu_);
    reader = Reader(segment);
  }
  if (reader == nullptr) {
    return Status::IOError("cannot open segment " + std::to_string(segment));
  }
  return reader->Read(offset, n, out);
}

Status BlockStore::Locate(BlockId height, Location* loc,
                          std::shared_ptr<RandomAccessFile>* reader) const {
  MutexLock lock(&mu_);
  if (height >= locations_.size()) {
    return Status::NotFound("no block at height " + std::to_string(height));
  }
  *loc = locations_[height];
  *reader = Reader(loc->segment);
  if (*reader == nullptr) {
    return Status::IOError("cannot open segment " +
                           std::to_string(loc->segment));
  }
  return Status::OK();
}

Status BlockStore::ReadPayload(const RandomAccessFile& reader,
                               const Location& loc, std::string* out) {
  std::string with_crc;
  Status s = reader.Read(loc.offset, loc.length + kFrameTrailerSize, &with_crc);
  if (!s.ok()) return s;
  uint32_t stored_crc = DecodeFixed32(with_crc.data() + loc.length);
  if (Crc32(0, with_crc.data(), loc.length) != stored_crc) {
    return Status::Corruption("block record crc mismatch");
  }
  with_crc.resize(loc.length);
  *out = std::move(with_crc);
  return Status::OK();
}

Status BlockStore::ReadBlock(BlockId height,
                             std::shared_ptr<const Block>* out) {
  if (block_cache_ != nullptr) {
    if (auto cached = block_cache_->Lookup(height)) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      *out = std::move(cached);
      return Status::OK();
    }
  }
  Location loc;
  std::shared_ptr<RandomAccessFile> reader;
  Status s = Locate(height, &loc, &reader);
  if (!s.ok()) return s;
  std::string payload;
  s = ReadPayload(*reader, loc, &payload);
  if (!s.ok()) return s;
  stats_.blocks_read.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_read.fetch_add(payload.size(), std::memory_order_relaxed);

  auto block = std::make_shared<Block>();
  Slice input(payload);
  s = Block::DecodeFrom(&input, block.get());
  if (!s.ok()) return s;
  if (block_cache_ != nullptr) {
    block_cache_->Insert(height, block, block->ByteSize());
  }
  *out = std::move(block);
  return Status::OK();
}

Status BlockStore::ReadBlocks(BlockId first, uint64_t count,
                              std::vector<std::shared_ptr<const Block>>* out) {
  // Cap on the bytes coalesced into one pread; keeps peak memory bounded on
  // chains with large blocks while still amortizing syscall + seek cost.
  constexpr uint64_t kReadaheadBytes = 4ull << 20;

  out->assign(count, nullptr);
  std::vector<Location> locations(count);
  {
    MutexLock lock(&mu_);
    if (first + count > locations_.size()) {
      return Status::NotFound("no block at height " +
                              std::to_string(first + count - 1));
    }
    for (uint64_t i = 0; i < count; i++) locations[i] = locations_[first + i];
  }

  uint64_t i = 0;
  while (i < count) {
    if (block_cache_ != nullptr) {
      if (auto cached = block_cache_->Lookup(first + i)) {
        stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
        (*out)[i] = std::move(cached);
        i++;
        continue;
      }
    }
    // Extend the run while frames stay physically consecutive in the same
    // segment (payload + crc + next frame header) and under the size cap.
    uint64_t j = i + 1;
    auto frame_end = [](const Location& loc) {
      return loc.offset + loc.length + kFrameTrailerSize;
    };
    while (j < count && locations[j].segment == locations[i].segment &&
           locations[j].offset ==
               frame_end(locations[j - 1]) + kFrameHeaderSize &&
           frame_end(locations[j]) - locations[i].offset < kReadaheadBytes) {
      j++;
    }
    std::string buffer;
    Status s = ReadAt(locations[i].segment, locations[i].offset,
                      frame_end(locations[j - 1]) - locations[i].offset,
                      &buffer);
    if (!s.ok()) return s;
    stats_.bytes_read.fetch_add(buffer.size(), std::memory_order_relaxed);
    for (uint64_t k = i; k < j; k++) {
      const Location& loc = locations[k];
      const char* payload = buffer.data() + (loc.offset - locations[i].offset);
      uint32_t stored_crc = DecodeFixed32(payload + loc.length);
      if (Crc32(0, payload, loc.length) != stored_crc) {
        return Status::Corruption("block record crc mismatch");
      }
      stats_.blocks_read.fetch_add(1, std::memory_order_relaxed);
      auto block = std::make_shared<Block>();
      Slice input(payload, loc.length);
      s = Block::DecodeFrom(&input, block.get());
      if (!s.ok()) return s;
      if (block_cache_ != nullptr) {
        block_cache_->Insert(first + k, block, block->ByteSize());
      }
      (*out)[k] = std::move(block);
    }
    i = j;
  }
  return Status::OK();
}

Status BlockStore::ReadHeader(BlockId height, BlockHeader* out) {
  if (block_cache_ != nullptr) {
    if (auto cached = block_cache_->Lookup(height)) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      *out = cached->header();
      return Status::OK();
    }
  }
  Location loc;
  std::shared_ptr<RandomAccessFile> reader;
  Status s = Locate(height, &loc, &reader);
  if (!s.ok()) return s;
  // First positional read: the header length prefix; second: the header.
  std::string prefix;
  s = reader->Read(loc.offset, 4, &prefix);
  if (!s.ok()) return s;
  uint32_t header_len = DecodeFixed32(prefix.data());
  if (header_len + 4 > loc.length) {
    return Status::Corruption("block header length out of range");
  }
  std::string header_bytes;
  s = reader->Read(loc.offset + 4, header_len, &header_bytes);
  if (!s.ok()) return s;
  stats_.headers_read.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_read.fetch_add(4 + header_bytes.size(),
                              std::memory_order_relaxed);
  Slice input(header_bytes);
  return BlockHeader::DecodeFrom(&input, out);
}

Status BlockStore::ReadTransaction(BlockId height, uint32_t index,
                                   std::shared_ptr<const Transaction>* out) {
  const uint64_t cache_key = TxnCacheKey(height, index);
  if (txn_cache_ != nullptr) {
    if (auto cached = txn_cache_->Lookup(cache_key)) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      *out = std::move(cached);
      return Status::OK();
    }
  }
  if (block_cache_ != nullptr) {
    if (auto cached = block_cache_->Lookup(height)) {
      if (index >= cached->transactions().size()) {
        return Status::InvalidArgument("transaction index out of range");
      }
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      auto txn = std::make_shared<Transaction>(cached->transactions()[index]);
      if (txn_cache_ != nullptr) {
        txn_cache_->Insert(cache_key, txn, txn->ByteSize());
      }
      *out = std::move(txn);
      return Status::OK();
    }
  }

  Location loc;
  std::shared_ptr<RandomAccessFile> reader;
  Status s = Locate(height, &loc, &reader);
  if (!s.ok()) return s;

  // Random-read path: (1) header length, (2) txn count through
  // offsets[index + 1] (clamped to the record), (3) the transaction bytes.
  const uint64_t record_end = loc.offset + loc.length;
  std::string prefix;
  s = reader->Read(loc.offset, 4, &prefix);
  if (!s.ok()) return s;
  uint32_t header_len = DecodeFixed32(prefix.data());
  uint64_t count_off = loc.offset + 4 + header_len;
  if (count_off + 4 > record_end) {
    return Status::Corruption("block header length out of range");
  }

  std::string table;
  const uint64_t table_len = 4 + (static_cast<uint64_t>(index) + 2) * 4;
  s = reader->Read(count_off, std::min(table_len, record_end - count_off),
                   &table);
  if (!s.ok()) return s;
  uint32_t n = DecodeFixed32(table.data());
  if (index >= n) return Status::InvalidArgument("transaction index out of range");
  const bool has_next = index + 1 < n;
  const uint64_t entry_off = 4 + static_cast<uint64_t>(index) * 4;
  if (entry_off + (has_next ? 8 : 4) > table.size()) {
    return Status::Corruption("bad transaction offsets");
  }
  uint32_t start = DecodeFixed32(table.data() + entry_off);
  uint64_t body_off = count_off + 4 + static_cast<uint64_t>(n) * 4;
  if (body_off > record_end) {
    return Status::Corruption("bad transaction offsets");
  }
  uint64_t body_len = record_end - body_off;
  uint64_t end =
      has_next ? DecodeFixed32(table.data() + entry_off + 4) : body_len;
  if (start > end || end > body_len) {
    return Status::Corruption("bad transaction offsets");
  }

  std::string txn_bytes;
  s = reader->Read(body_off + start, static_cast<size_t>(end - start),
                   &txn_bytes);
  if (!s.ok()) return s;
  stats_.transactions_read.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_read.fetch_add(16 + txn_bytes.size(),
                              std::memory_order_relaxed);

  auto txn = std::make_shared<Transaction>();
  Slice input(txn_bytes);
  s = Transaction::DecodeFrom(&input, txn.get());
  if (!s.ok()) return s;
  if (txn_cache_ != nullptr) {
    txn_cache_->Insert(cache_key, txn, txn->ByteSize());
  }
  *out = std::move(txn);
  return Status::OK();
}

Status BlockStore::ReadRawRecord(BlockId height, std::string* out) {
  Location loc;
  std::shared_ptr<RandomAccessFile> reader;
  Status s = Locate(height, &loc, &reader);
  if (!s.ok()) return s;
  return ReadPayload(*reader, loc, out);
}

BlockStore::CacheStats BlockStore::cache_stats() const {
  // mu_ pins the cache pointers against a concurrent Open/Close; each
  // cache's stats() call is one atomic snapshot of its counters.
  MutexLock lock(&mu_);
  CacheStats out;
  if (block_cache_ != nullptr) {
    const auto stats = block_cache_->stats();
    out.block_hits = stats.hits;
    out.block_misses = stats.misses;
    out.block_evictions = stats.evictions;
    out.block_usage = stats.usage;
    out.block_capacity = block_cache_->capacity();
  }
  if (txn_cache_ != nullptr) {
    const auto stats = txn_cache_->stats();
    out.txn_hits = stats.hits;
    out.txn_misses = stats.misses;
    out.txn_evictions = stats.evictions;
    out.txn_usage = stats.usage;
    out.txn_capacity = txn_cache_->capacity();
  }
  return out;
}

BlockStore::RecoveryStats BlockStore::recovery_stats() const {
  MutexLock lock(&mu_);
  return recovery_;
}

Status BlockStore::Close() {
  MutexLock lock(&mu_);
  if (!open_) return Status::OK();
  open_ = false;
  readers_.clear();
  return writer_.Close();
}

}  // namespace sebdb
