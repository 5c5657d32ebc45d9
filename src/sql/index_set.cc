#include "sql/index_set.h"

#include <algorithm>
#include <sstream>

#include "common/coding.h"

namespace sebdb {

namespace {

ColumnExtractor MakeColumnExtractor(const std::string& table, int app_index) {
  return [table, app_index](const Transaction& txn, Value* out) {
    if (txn.tname() != table) return false;
    int pos = app_index - Schema::kNumSystemColumns;
    if (pos < 0 || pos >= static_cast<int>(txn.values().size())) return false;
    *out = txn.values()[pos];
    return true;
  };
}

}  // namespace

ColumnExtractor IndexSet::MakeSystemExtractor(bool sender) {
  return [sender](const Transaction& txn, Value* out) {
    *out = Value::Str(sender ? txn.sender() : txn.tname());
    return true;
  };
}

AuthenticatedLayeredIndex::BlockLoader IndexSet::MakeBlockLoader() const {
  BlockStore* store = store_;
  if (store == nullptr) return nullptr;
  return [store](BlockId bid, std::shared_ptr<const Block>* out) {
    return store->ReadBlock(bid, out);
  };
}

IndexSet::IndexSet(BlockStore* store, IndexSetOptions options)
    : store_(store), options_(std::move(options)) {
  LayeredIndexOptions discrete_options;
  discrete_options.discrete = true;
  senid_index_ = std::make_unique<LayeredIndex>(
      "sys.senid", discrete_options, MakeSystemExtractor(/*sender=*/true));
  tname_index_ = std::make_unique<LayeredIndex>(
      "sys.tname", discrete_options, MakeSystemExtractor(/*sender=*/false));
  senid_ali_ = std::make_unique<AuthenticatedLayeredIndex>(senid_index_.get());
  tname_ali_ = std::make_unique<AuthenticatedLayeredIndex>(tname_index_.get());
  if (auto loader = MakeBlockLoader()) {
    senid_ali_->SetBlockLoader(loader);
    tname_ali_->SetBlockLoader(loader);
  }
  if (!options_.manifest_path.empty()) LoadManifest();
}

void IndexSet::LoadManifest() {
  uint64_t size;
  if (!env()->FileSize(options_.manifest_path, &size).ok() || size == 0) {
    return;  // no manifest yet
  }
  std::unique_ptr<ReadableFile> file;
  if (!env()->NewReadableFile(options_.manifest_path, &file).ok()) return;
  std::string contents;
  if (!file->Read(0, size, &contents).ok()) return;
  std::istringstream stream(contents);
  std::string line;
  MutexLock lock(&mu_);
  while (std::getline(stream, line)) {
    // "table column schema_index discrete histogram_hex"; records written
    // before the histogram field existed have only the first four.
    std::istringstream fields(line);
    std::string table, column, hex;
    int schema_index, discrete;
    if (!(fields >> table >> column >> schema_index >> discrete)) break;
    EqualDepthHistogram histogram;
    const bool recorded = static_cast<bool>(fields >> hex);
    if (recorded) {
      std::string encoded;
      if (!HexDecode(hex, &encoded)) break;
      Slice in(encoded);
      if (!EqualDepthHistogram::DecodeFrom(&in, &histogram)) break;
    }
    // Created before any block is replayed, so no backfill is needed; the
    // replay loop feeds every block through ApplyBlock.
    CreateLayeredIndexLocked(table, column, schema_index, discrete != 0,
                             recorded ? &histogram : nullptr)
        .ok();
  }
}

Status IndexSet::AppendManifest(const std::string& table,
                                const std::string& column,
                                const UserIndex& index) {
  if (options_.manifest_path.empty()) return Status::OK();
  std::unique_ptr<WritableFile> file;
  Status s = env()->NewWritableFile(options_.manifest_path, &file);
  if (!s.ok()) return s;
  const uint64_t old_size = file->size();
  std::string histogram;
  index.layered->histogram().EncodeTo(&histogram);
  std::string line = table + " " + column + " " +
                     std::to_string(index.schema_column_index) + " " +
                     (index.discrete ? "1" : "0") + " " +
                     HexEncode(histogram) + "\n";
  s = file->Append(line);
  if (s.ok()) s = file->Sync();
  Status closed = file->Close();
  if (s.ok()) s = closed;
  if (!s.ok()) {
    // The record may still have reached the file; cut it off so a restart
    // cannot resurrect an index this call reports as not created.
    (void)env()->TruncateFile(options_.manifest_path, old_size);
  }
  return s;
}

Status IndexSet::ApplyBlock(const Block& block, ThreadPool* pool) {
  WriterMutexLock apply(&apply_mu_);
  MutexLock lock(&mu_);
  if (block.height() != num_blocks_) {
    return Status::InvalidArgument("index set blocks must arrive in order");
  }
  const auto& txns = block.transactions();

  // Layered indexes and their ALIs, pointer-stable for the whole apply (mu_
  // serializes against CreateLayeredIndex; accessors hand out raw pointers,
  // so the pointees never move).
  struct Target {
    LayeredIndex* layered = nullptr;
    AuthenticatedLayeredIndex* ali = nullptr;  // over `layered`
  };
  std::vector<Target> targets;
  targets.push_back({senid_index_.get(), senid_ali_.get()});
  targets.push_back({tname_index_.get(), tname_ali_.get()});
  for (auto& [key, index] : user_indexes_) {
    targets.push_back({index.layered.get(), index.ali.get()});
  }
  const size_t num_targets = targets.size();

  // Extract phase: each transaction's values land in its own slot — workers
  // never share a slot, and the loop body takes no locks, so fanning out
  // while holding mu_ is safe (the ParallelFor caller participates and
  // drains its own chunks).
  struct Extracted {
    bool present = false;
    Value value;
  };
  struct TxnDelta {
    std::vector<Extracted> values;  // one per target
    Hash256 record_hash{};  // SHA-256(encoded txn) — the MB-tree leaf
  };
  std::vector<TxnDelta> deltas(txns.size());
  auto extract_one = [&](uint64_t i) {
    TxnDelta& d = deltas[i];
    d.values.resize(num_targets);
    bool indexed = false;
    for (size_t t = 0; t < num_targets; t++) {
      d.values[t].present =
          targets[t].layered->extractor()(txns[i], &d.values[t].value);
      indexed |= d.values[t].present;
    }
    if (indexed) {
      // The encoded record is dropped once hashed: apply keeps MB-tree roots
      // only, and a query rebuilds the tree from the stored block.
      std::string record;
      txns[i].EncodeTo(&record);
      d.record_hash = Sha256::Digest(record);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(txns.size(), extract_one, /*grain=*/8);
  } else {
    for (uint64_t i = 0; i < txns.size(); i++) extract_one(i);
  }

  // Merge phase: each structure ingests the deltas in block order
  // (MergeTxnDeltas — the same code the per-structure AddBlock runs after
  // its gather), so the committed state is identical for any pool size.
  // Structures are independent, so they fan out in parallel; order across
  // structures does not affect any structure's bytes. An ALI task reads the
  // extracted values in place and computes only the block's MB-tree root.
  const uint64_t height = block.height();
  std::vector<std::function<Status()>> merges;
  merges.push_back([&]() -> Status {
    Status s = block_index_.Add(block.header());
    if (!s.ok()) return s;
    table_index_.MergeTxnDeltas(height,
                                TableBitmapIndex::CollectTables(block));
    return Status::OK();
  });
  for (size_t t = 0; t < num_targets; t++) {
    merges.push_back([&, t]() -> Status {
      std::vector<std::pair<Value, uint32_t>> entries;
      for (uint32_t i = 0; i < txns.size(); i++) {
        if (deltas[i].values[t].present) {
          entries.emplace_back(deltas[i].values[t].value, i);
        }
      }
      return targets[t].layered->MergeTxnDeltas(height, std::move(entries));
    });
    merges.push_back([&, t]() -> Status {
      std::vector<std::pair<const Value*, Hash256>> leaves;
      for (const TxnDelta& d : deltas) {
        if (d.values[t].present) {
          leaves.emplace_back(&d.values[t].value, d.record_hash);
        }
      }
      return targets[t].ali->MergeTxnDeltas(height, std::move(leaves));
    });
  }
  Status s = ParallelForStatus(pool, merges.size(),
                               [&](uint64_t m) { return merges[m](); });
  if (!s.ok()) return s;
  num_blocks_++;
  return Status::OK();
}

uint64_t IndexSet::num_blocks() const {
  MutexLock lock(&mu_);
  return num_blocks_;
}

Status IndexSet::CreateLayeredIndex(const std::string& table,
                                    const std::string& column,
                                    int schema_column_index, bool discrete) {
  WriterMutexLock apply(&apply_mu_);
  MutexLock lock(&mu_);
  Status s = CreateLayeredIndexLocked(table, column, schema_column_index,
                                      discrete, /*recorded=*/nullptr);
  if (!s.ok()) return s;
  const auto key = std::make_pair(table, column);
  s = AppendManifest(table, column, user_indexes_.at(key));
  // Without its manifest record the index would vanish on the next restart
  // that finds no checkpoint; report the failure instead of registering it.
  if (!s.ok()) user_indexes_.erase(key);
  return s;
}

Status IndexSet::CreateLayeredIndexLocked(const std::string& table,
                                          const std::string& column,
                                          int schema_column_index,
                                          bool discrete,
                                          const EqualDepthHistogram* recorded) {
  auto key = std::make_pair(table, column);
  if (user_indexes_.contains(key)) {
    return Status::InvalidArgument("index already exists on " + table + "." +
                                   column);
  }
  if (schema_column_index < Schema::kNumSystemColumns) {
    return Status::InvalidArgument(
        "layered indices on system columns are built in (SenID, Tname)");
  }

  UserIndex index;
  index.schema_column_index = schema_column_index;
  index.discrete = discrete;
  LayeredIndexOptions layered_options;
  layered_options.discrete = discrete;
  layered_options.histogram_buckets = options_.histogram_buckets;
  index.layered = std::make_unique<LayeredIndex>(
      table + "." + column, layered_options,
      MakeColumnExtractor(table, schema_column_index));
  index.ali = std::make_unique<AuthenticatedLayeredIndex>(index.layered.get());
  if (auto loader = MakeBlockLoader()) index.ali->SetBlockLoader(loader);
  if (recorded != nullptr) {
    index.sample_on_backfill = false;
    if (recorded->num_buckets() > 0) {
      Status s = index.layered->SetHistogram(*recorded);
      if (!s.ok()) return s;
    }
  }

  Status backfill = BackfillIndex(&index);
  if (!backfill.ok()) return backfill;
  user_indexes_[key] = std::move(index);
  return Status::OK();
}

Status IndexSet::BackfillIndex(UserIndex* index) {
  if (num_blocks_ == 0) return Status::OK();
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "cannot backfill an index without a block store");
  }

  // Pass 1 (continuous only): sample historical values for the histogram.
  const ColumnExtractor& extractor = index->layered->extractor();
  if (!index->discrete && index->sample_on_backfill) {
    std::vector<Value> sample;
    for (uint64_t bid = 0;
         bid < num_blocks_ && sample.size() < options_.histogram_sample_limit;
         bid++) {
      std::shared_ptr<const Block> block;
      Status s = store_->ReadBlock(bid, &block);
      if (!s.ok()) return s;
      for (const auto& txn : block->transactions()) {
        Value v;
        if (extractor(txn, &v)) sample.push_back(std::move(v));
      }
    }
    if (!sample.empty()) {
      EqualDepthHistogram histogram;
      Status s = EqualDepthHistogram::Build(
          std::move(sample), options_.histogram_buckets, &histogram);
      if (!s.ok()) return s;
      s = index->layered->SetHistogram(std::move(histogram));
      if (!s.ok()) return s;
    }
  }

  // Pass 2: index every existing block.
  for (uint64_t bid = 0; bid < num_blocks_; bid++) {
    std::shared_ptr<const Block> block;
    Status s = store_->ReadBlock(bid, &block);
    if (!s.ok()) return s;
    s = index->layered->AddBlock(*block);
    if (s.ok()) s = index->ali->AddBlock(*block);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

LayeredIndex* IndexSet::GetLayered(const std::string& table,
                                   const std::string& column) {
  MutexLock lock(&mu_);
  auto it = user_indexes_.find(std::make_pair(table, column));
  return it == user_indexes_.end() ? nullptr : it->second.layered.get();
}

AuthenticatedLayeredIndex* IndexSet::GetAli(const std::string& table,
                                            const std::string& column) {
  MutexLock lock(&mu_);
  auto it = user_indexes_.find(std::make_pair(table, column));
  return it == user_indexes_.end() ? nullptr : it->second.ali.get();
}

bool IndexSet::HasLayered(const std::string& table,
                          const std::string& column) const {
  MutexLock lock(&mu_);
  return user_indexes_.contains(std::make_pair(table, column));
}

Status IndexSet::WriteCheckpoint(BufferManager* pool, const std::string& dir,
                                 const std::string& prefix,
                                 std::vector<CheckpointFile>* files,
                                 std::string* meta,
                                 PendingIndexCheckpoint* pending) {
  using Delta = PendingIndexCheckpoint::Delta;
  MutexLock lock(&mu_);
  pending->height = num_blocks_;
  pending->deltas.clear();

  // The manifest record must reference EVERY file this checkpoint needs —
  // the deltas of earlier checkpoints included — or Publish would collect
  // them as superseded and the restore would find the segment lists
  // dangling. Earlier deltas are immutable and synced, so their recorded
  // sizes double as the recovery-time integrity check.
  auto list_existing = [&](const std::vector<std::string>& names) -> Status {
    for (const std::string& name : names) {
      uint64_t size = 0;
      Status s = env()->FileSize(dir + "/" + name, &size);
      if (!s.ok()) return s;
      files->push_back({name, size});
    }
    return Status::OK();
  };
  Status listed = list_existing(bidx_files_);
  if (listed.ok()) listed = list_existing(senid_files_);
  if (listed.ok()) listed = list_existing(tname_files_);
  for (const auto& [key, index] : user_indexes_) {
    if (!listed.ok()) break;
    listed = list_existing(index.delta_files);
  }
  if (!listed.ok()) return listed;

  // Stage the block-index delta (skipped when no blocks arrived since the
  // last checkpoint — segment lists stay dense with non-empty files).
  if (num_blocks_ > block_index_.persisted_end()) {
    Delta d;
    d.target = Delta::kBlockIndex;
    d.name = prefix + "_bidx";
    Status s = pool->CreateFile(dir + "/" + d.name, &d.file);
    if (!s.ok()) return s;
    pending->deltas.push_back(std::move(d));
    Delta& slot = pending->deltas.back();
    s = block_index_.WriteFrozenDelta(pool, slot.file, num_blocks_,
                                      &slot.bidx_ref);
    if (s.ok()) s = pool->Flush(slot.file);
    if (!s.ok()) return s;
    files->push_back({slot.name, pool->file_size(slot.file)});
  }

  auto write_layered = [&](Delta::Target target, const std::string& table,
                           const std::string& column, const std::string& tag,
                           LayeredIndex* layered) -> Status {
    if (num_blocks_ <= layered->frozen_end()) return Status::OK();
    Delta d;
    d.target = target;
    d.table = table;
    d.column = column;
    d.name = prefix + "_" + tag;
    Status s = pool->CreateFile(dir + "/" + d.name, &d.file);
    if (!s.ok()) return s;
    pending->deltas.push_back(std::move(d));
    Delta& slot = pending->deltas.back();
    s = layered->WriteFrozenDelta(pool, slot.file, num_blocks_, &slot.refs);
    if (s.ok()) s = pool->Flush(slot.file);
    if (!s.ok()) return s;
    files->push_back({slot.name, pool->file_size(slot.file)});
    return Status::OK();
  };

  Status s = write_layered(Delta::kSenid, "", "", "senid", senid_index_.get());
  if (!s.ok()) return s;
  s = write_layered(Delta::kTname, "", "", "tname", tname_index_.get());
  if (!s.ok()) return s;
  size_t ordinal = 0;
  for (auto& [key, index] : user_indexes_) {
    s = write_layered(Delta::kUser, key.first, key.second,
                      "u" + std::to_string(ordinal++), index.layered.get());
    if (!s.ok()) return s;
  }

  // Meta blob: the complete index-set state at this height, including the
  // staged (not yet adopted) deltas.
  auto find_delta = [&](Delta::Target target, const std::string& table,
                        const std::string& column) -> const Delta* {
    for (const auto& d : pending->deltas) {
      if (d.target == target && d.table == table && d.column == column) {
        return &d;
      }
    }
    return nullptr;
  };
  static const std::vector<LayeredIndex::FrozenTreeRef> kNoRefs;

  meta->clear();
  PutVarint32(meta, 2);  // version
  std::string blob;
  table_index_.EncodeTo(&blob);
  PutLengthPrefixed(meta, blob);

  auto put_names = [&](const std::vector<std::string>& names,
                       const Delta* extra) {
    PutVarint32(meta, static_cast<uint32_t>(names.size() +
                                            (extra != nullptr ? 1 : 0)));
    for (const auto& n : names) PutLengthPrefixed(meta, n);
    if (extra != nullptr) PutLengthPrefixed(meta, extra->name);
  };

  {
    const Delta* d = find_delta(Delta::kBlockIndex, "", "");
    put_names(bidx_files_, d);
    blob.clear();
    block_index_.EncodeCheckpointState(d != nullptr ? &d->bidx_ref : nullptr,
                                       &blob);
    PutLengthPrefixed(meta, blob);
  }

  auto put_layered = [&](Delta::Target target, const std::string& table,
                         const std::string& column,
                         const std::vector<std::string>& names,
                         const LayeredIndex* layered,
                         const AuthenticatedLayeredIndex* ali) {
    const Delta* d = find_delta(target, table, column);
    put_names(names, d);
    const auto& refs = d != nullptr ? d->refs : kNoRefs;
    blob.clear();
    layered->EncodeCheckpointState(refs, &blob);
    PutLengthPrefixed(meta, blob);
    blob.clear();
    ali->EncodeCheckpointState(&blob);
    PutLengthPrefixed(meta, blob);
  };
  put_layered(Delta::kSenid, "", "", senid_files_, senid_index_.get(),
              senid_ali_.get());
  put_layered(Delta::kTname, "", "", tname_files_, tname_index_.get(),
              tname_ali_.get());
  PutVarint32(meta, static_cast<uint32_t>(user_indexes_.size()));
  for (const auto& [key, index] : user_indexes_) {
    PutLengthPrefixed(meta, key.first);
    PutLengthPrefixed(meta, key.second);
    PutVarint32(meta, static_cast<uint32_t>(index.schema_column_index));
    meta->push_back(index.discrete ? 1 : 0);
    put_layered(Delta::kUser, key.first, key.second, index.delta_files,
                index.layered.get(), index.ali.get());
  }
  return Status::OK();
}

void IndexSet::AdoptCheckpoint(BufferManager* pool,
                               const PendingIndexCheckpoint& pending) {
  using Delta = PendingIndexCheckpoint::Delta;
  WriterMutexLock apply(&apply_mu_);
  MutexLock lock(&mu_);
  for (const auto& d : pending.deltas) {
    switch (d.target) {
      case Delta::kBlockIndex:
        block_index_.AdoptFrozen(d.bidx_ref);
        bidx_files_.push_back(d.name);
        break;
      case Delta::kSenid:
        senid_index_->AdoptFrozen(pool, d.file, d.refs);
        senid_files_.push_back(d.name);
        break;
      case Delta::kTname:
        tname_index_->AdoptFrozen(pool, d.file, d.refs);
        tname_files_.push_back(d.name);
        break;
      case Delta::kUser: {
        auto it = user_indexes_.find(std::make_pair(d.table, d.column));
        if (it == user_indexes_.end()) break;  // dropped mid-checkpoint
        it->second.layered->AdoptFrozen(pool, d.file, d.refs);
        it->second.delta_files.push_back(d.name);
        break;
      }
    }
  }
}

void IndexSet::AbortCheckpoint(BufferManager* pool,
                               const PendingIndexCheckpoint& pending) {
  for (const auto& d : pending.deltas) {
    if (d.file != BufferManager::kInvalidFileId) pool->DropFile(d.file);
  }
}

Status IndexSet::OpenDeltaFiles(BufferManager* pool, const std::string& dir,
                                Slice* in, std::vector<std::string>* names,
                                std::vector<BufferManager::FileId>* ids) {
  uint32_t n;
  if (!GetVarint32(in, &n) || n > in->size()) {
    return Status::Corruption("truncated checkpoint file list");
  }
  for (uint32_t i = 0; i < n; i++) {
    Slice name;
    if (!GetLengthPrefixed(in, &name) || name.empty()) {
      return Status::Corruption("truncated checkpoint file name");
    }
    BufferManager::FileId id;
    Status s = pool->OpenFile(dir + "/" + name.ToString(), &id);
    if (!s.ok()) return s;
    names->push_back(name.ToString());
    ids->push_back(id);
  }
  return Status::OK();
}

Status IndexSet::RestoreCheckpoint(BufferManager* pool,
                                   const std::string& dir, uint64_t height,
                                   Slice meta) {
  WriterMutexLock apply(&apply_mu_);
  MutexLock lock(&mu_);
  if (num_blocks_ != 0) {
    return Status::InvalidArgument("restore requires a fresh index set");
  }
  Slice in = meta;
  // Version 1 (still read) differs only in each layered index's ALI slot.
  uint32_t version;
  if (!GetVarint32(&in, &version) || (version != 1 && version != 2)) {
    return Status::Corruption("unknown index checkpoint version");
  }
  Slice blob;
  if (!GetLengthPrefixed(&in, &blob)) {
    return Status::Corruption("truncated table index state");
  }
  Status s = table_index_.RestoreFrom(&blob);
  if (!s.ok()) return s;

  {
    std::vector<BufferManager::FileId> ids;
    s = OpenDeltaFiles(pool, dir, &in, &bidx_files_, &ids);
    if (!s.ok()) return s;
    if (!GetLengthPrefixed(&in, &blob)) {
      return Status::Corruption("truncated block index state");
    }
    s = block_index_.RestoreCheckpoint(pool, std::move(ids), blob);
    if (!s.ok()) return s;
  }

  auto restore_layered = [&](std::vector<std::string>* names,
                             LayeredIndex* layered,
                             AuthenticatedLayeredIndex* ali) -> Status {
    std::vector<BufferManager::FileId> ids;
    Status rs = OpenDeltaFiles(pool, dir, &in, names, &ids);
    if (!rs.ok()) return rs;
    Slice state;
    if (!GetLengthPrefixed(&in, &state)) {
      return Status::Corruption("truncated layered index state");
    }
    rs = layered->RestoreCheckpoint(pool, ids, state);
    if (!rs.ok()) return rs;
    Slice roots;
    if (version == 1) {
      // An ALI-presence byte, then the ALI slot: a second copy of the
      // layered state (skipped) ahead of the root list.
      Slice copy;
      if (in.empty() || in[0] == 0) {
        return Status::Corruption("checkpoint lacks ALI state");
      }
      in.remove_prefix(1);
      if (!GetLengthPrefixed(&in, &roots) ||
          !GetLengthPrefixed(&roots, &copy)) {
        return Status::Corruption("truncated ALI state");
      }
    } else if (!GetLengthPrefixed(&in, &roots)) {
      return Status::Corruption("truncated ALI root list");
    }
    return ali->RestoreCheckpoint(roots);
  };

  s = restore_layered(&senid_files_, senid_index_.get(), senid_ali_.get());
  if (!s.ok()) return s;
  s = restore_layered(&tname_files_, tname_index_.get(), tname_ali_.get());
  if (!s.ok()) return s;

  uint32_t nuser;
  if (!GetVarint32(&in, &nuser) || nuser > in.size()) {
    return Status::Corruption("truncated user index count");
  }
  for (uint32_t i = 0; i < nuser; i++) {
    Slice table, column;
    uint32_t schema_index;
    if (!GetLengthPrefixed(&in, &table) || !GetLengthPrefixed(&in, &column) ||
        !GetVarint32(&in, &schema_index) || in.empty()) {
      return Status::Corruption("truncated user index header");
    }
    const bool discrete = in.data()[0] != 0;
    in.remove_prefix(1);
    auto key = std::make_pair(table.ToString(), column.ToString());
    auto it = user_indexes_.find(key);
    if (it == user_indexes_.end()) {
      // Not re-created from the manifest (e.g. the manifest was lost); the
      // checkpoint carries the full definition.
      s = CreateLayeredIndexLocked(key.first, key.second,
                                   static_cast<int>(schema_index), discrete,
                                   /*recorded=*/nullptr);
      if (!s.ok()) return s;
      it = user_indexes_.find(key);
    }
    s = restore_layered(&it->second.delta_files, it->second.layered.get(),
                        it->second.ali.get());
    if (!s.ok()) return s;
  }

  if (block_index_.num_blocks() != height ||
      senid_index_->num_blocks() != height) {
    return Status::Corruption("checkpoint height mismatch");
  }
  num_blocks_ = height;

  // Manifest-listed indices the checkpoint predates start empty; backfill
  // them from raw blocks so every index covers [0, height) before replay.
  for (auto& [key, index] : user_indexes_) {
    if (index.layered->num_blocks() == num_blocks_) continue;
    if (index.layered->num_blocks() != 0) {
      return Status::Corruption("user index height mismatch");
    }
    s = BackfillIndex(&index);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace sebdb
