// On-chain join (paper Algorithm 2) and on-off-chain join (Algorithm 3),
// each in the three strategies the evaluation compares: hash join over a
// full scan, hash join over bitmap-filtered blocks, and layered-index
// sort-merge over block pairs that may produce results.
#include <algorithm>
#include <unordered_map>

#include "sql/executor.h"
#include "sql/executor_internal.h"

namespace sebdb {

namespace sql_internal {

std::vector<ValueRange> BucketRangesOf(const LayeredIndex& index,
                                       BlockId bid) {
  std::vector<ValueRange> out;
  const Bitmap* buckets = index.BlockBuckets(bid);
  if (buckets == nullptr) return out;
  const auto& boundaries = index.histogram().boundaries();
  for (size_t b : buckets->SetBits()) {
    ValueRange range;
    if (b > 0) range.lo = boundaries[b - 1];
    if (b < boundaries.size()) range.hi = boundaries[b];
    out.push_back(std::move(range));
  }
  return out;
}

bool RangesOverlap(const ValueRange& a, const ValueRange& b) {
  // a = (a.lo, a.hi], b = (b.lo, b.hi]: disjoint iff one ends at or before
  // the other begins.
  if (a.hi.has_value() && b.lo.has_value() &&
      a.hi->CompareTotal(*b.lo) <= 0) {
    return false;
  }
  if (b.hi.has_value() && a.lo.has_value() &&
      b.hi->CompareTotal(*a.lo) <= 0) {
    return false;
  }
  return true;
}

bool BlocksIntersectContinuous(const LayeredIndex& ir, BlockId br,
                               const LayeredIndex& is, BlockId bs) {
  std::vector<ValueRange> ar = BucketRangesOf(ir, br);
  std::vector<ValueRange> as = BucketRangesOf(is, bs);
  size_t i = 0, j = 0;
  while (i < ar.size() && j < as.size()) {
    if (RangesOverlap(ar[i], as[j])) return true;
    bool a_ends_first;
    if (!ar[i].hi.has_value()) a_ends_first = false;
    else if (!as[j].hi.has_value()) a_ends_first = true;
    else a_ends_first = ar[i].hi->CompareTotal(*as[j].hi) <= 0;
    if (a_ends_first) i++;
    else j++;
  }
  return false;
}

bool BlockIntersectsRange(const LayeredIndex& index, BlockId bid,
                          const Value& lo, const Value& hi) {
  if (index.options().discrete) {
    for (const auto& [value, blocks] : index.discrete_values()) {
      if (value.CompareTotal(lo) >= 0 && value.CompareTotal(hi) <= 0 &&
          blocks.Test(bid)) {
        return true;
      }
    }
    return false;
  }
  ValueRange query;
  query.lo = lo;  // conservative exclusive-lo; the bucket holding lo is
  query.hi = hi;  // re-checked below
  for (const auto& range : BucketRangesOf(index, bid)) {
    if (RangesOverlap(range, query)) return true;
  }
  const Bitmap* buckets = index.BlockBuckets(bid);
  return buckets != nullptr &&
         buckets->Test(index.histogram().BucketOf(lo));
}

}  // namespace sql_internal

using sql_internal::AllBlocksBitmap;
using sql_internal::BlockIntersectsRange;
using sql_internal::BlocksIntersectContinuous;
using sql_internal::OffchainColumnNames;
using sql_internal::SchemaColumnNames;
using sql_internal::ValueEq;
using sql_internal::ValueHash;

namespace {

const char* StrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kScanHash:
      return "scan-hash";
    case JoinStrategy::kBitmapHash:
      return "bitmap-hash";
    case JoinStrategy::kLayeredMerge:
      return "layered-merge";
    default:
      return "auto";
  }
}

// Resolves which side of the join condition belongs to which table; fails
// when a reference matches neither table.
Status SplitJoinColumns(const JoinCondition& join, const std::string& left,
                        const std::string& right, std::string* left_col,
                        std::string* right_col) {
  auto side_of = [&](const ColumnRef& ref) -> int {
    if (!ref.table.empty()) {
      if (ref.table == left) return 0;
      if (ref.table == right) return 1;
      return -1;
    }
    return -2;  // unqualified: resolved by position below
  };
  int a = side_of(join.left);
  int b = side_of(join.right);
  if (a == -2 && b == -2) {
    // Both unqualified: first refers to left table, second to right.
    *left_col = join.left.column;
    *right_col = join.right.column;
    return Status::OK();
  }
  if (a == 0 || b == 1) {
    *left_col = (a == 0 ? join.left : join.right).column;
    *right_col = (a == 0 ? join.right : join.left).column;
    if (a == 0 && b != 1 && b != -2) {
      return Status::InvalidArgument("join condition references unknown table");
    }
    return Status::OK();
  }
  if (a == 1 || b == 0) {  // condition written right-to-left
    *left_col = (b == 0 ? join.right : join.left).column;
    *right_col = (b == 0 ? join.left : join.right).column;
    return Status::OK();
  }
  return Status::InvalidArgument("join condition references unknown table");
}

std::vector<Value> ConcatRows(const std::vector<Value>& a,
                              const std::vector<Value>& b) {
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

Status Executor::ExecOnChainJoin(const SelectStmt& stmt,
                                 const ExecOptions& options,
                                 bool explain_only, ResultSet* result) {
  const std::string& left = stmt.tables[0].name;
  const std::string& right = stmt.tables[1].name;
  Schema left_schema, right_schema;
  Status s = catalog_->GetSchema(left, &left_schema);
  if (!s.ok()) return s;
  s = catalog_->GetSchema(right, &right_schema);
  if (!s.ok()) return s;

  std::string left_col, right_col;
  s = SplitJoinColumns(*stmt.join, left, right, &left_col, &right_col);
  if (!s.ok()) return s;
  int left_idx = left_schema.ColumnIndex(left_col);
  int right_idx = right_schema.ColumnIndex(right_col);
  if (left_idx < 0 || right_idx < 0) {
    return Status::NotFound("join column not found");
  }

  ColumnBindings bindings;
  bindings.AddTable(left, SchemaColumnNames(left_schema));
  bindings.AddTable(right, SchemaColumnNames(right_schema));
  result->columns = bindings.qualified_names();

  std::optional<Bitmap> window;
  s = ResolveWindow(stmt.window, options.params, &window);
  if (!s.ok()) return s;

  LayeredIndex* left_index = indexes_->GetLayered(left, left_col);
  LayeredIndex* right_index = indexes_->GetLayered(right, right_col);
  JoinStrategy strategy = options.join_strategy;
  if (strategy == JoinStrategy::kAuto) {
    strategy = (left_index != nullptr && right_index != nullptr)
                   ? JoinStrategy::kLayeredMerge
                   : JoinStrategy::kBitmapHash;
  }
  if (strategy == JoinStrategy::kLayeredMerge &&
      (left_index == nullptr || right_index == nullptr)) {
    return Status::InvalidArgument(
        "layered-merge join needs layered indices on both join columns");
  }

  result->plan = "OnChainJoin(" + left + "." + left_col + " = " + right +
                 "." + right_col + ") strategy=" + StrategyName(strategy);
  if (window.has_value()) result->plan += " window";
  if (explain_only) return Status::OK();

  const uint64_t n = store_->num_blocks();
  // Concatenate + filter one joined row into `out`. Workers pass private
  // buffers; the buffers are merged in candidate order afterwards so the
  // result is byte-identical to the serial nested loop.
  auto emit = [&](const std::vector<Value>& lrow,
                  const std::vector<Value>& rrow,
                  std::vector<std::vector<Value>>* out) -> Status {
    std::vector<Value> row = ConcatRows(lrow, rrow);
    bool ok = true;
    if (stmt.where != nullptr) {
      Status es =
          EvalPredicate(*stmt.where, bindings, row, options.params, &ok);
      if (!es.ok()) return es;
    }
    if (ok) out->push_back(std::move(row));
    return Status::OK();
  };
  using RowVec = std::vector<std::vector<Value>>;

  if (strategy == JoinStrategy::kScanHash ||
      strategy == JoinStrategy::kBitmapHash) {
    Bitmap blocks;
    if (strategy == JoinStrategy::kScanHash) {
      blocks = AllBlocksBitmap(n);
    } else {
      blocks = indexes_->table_index().BlocksWithTable(left);
      blocks.Or(indexes_->table_index().BlocksWithTable(right));
    }
    if (window.has_value()) blocks.And(*window);

    // One pass over the candidate blocks partitions both inputs; then a
    // hash table on the right input is probed with the left. The partition
    // phase (read + decode + row materialization) fans out per block; the
    // per-block partitions are merged serially in block order so the hash
    // table's insertion order — and hence equal_range iteration order —
    // matches the serial pass exactly.
    struct Partition {
      std::vector<std::pair<Value, std::vector<Value>>> left, right;
    };
    const std::vector<size_t> bids = blocks.SetBits();
    std::vector<Partition> parts;
    s = sql_internal::ParallelMapOrdered<Partition>(
        pool_, bids.size(),
        [&](size_t i, Partition* out) -> Status {
          std::shared_ptr<const Block> block;
          Status ps = store_->ReadBlock(bids[i], &block);
          if (!ps.ok()) return ps;
          for (const auto& txn : block->transactions()) {
            if (txn.tname() == left) {
              Value key = txn.GetColumn(left_idx);
              out->left.emplace_back(std::move(key),
                                     TxnToRow(txn, left_schema.num_columns()));
            }
            if (txn.tname() == right) {
              Value key = txn.GetColumn(right_idx);
              out->right.emplace_back(
                  std::move(key), TxnToRow(txn, right_schema.num_columns()));
            }
          }
          return Status::OK();
        },
        &parts);
    if (!s.ok()) return s;

    std::unordered_multimap<Value, std::vector<Value>, ValueHash, ValueEq>
        right_rows;
    std::vector<std::pair<Value, std::vector<Value>>> left_rows;
    for (auto& part : parts) {
      for (auto& [key, lrow] : part.left) {
        left_rows.emplace_back(std::move(key), std::move(lrow));
      }
      for (auto& [key, rrow] : part.right) {
        right_rows.emplace(std::move(key), std::move(rrow));
      }
    }
    for (const auto& [key, lrow] : left_rows) {
      auto [begin, end] = right_rows.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        s = emit(lrow, it->second, &result->rows);
        if (!s.ok()) return s;
      }
    }
    return Project(stmt, bindings, result);
  }

  // Layered-merge (Algorithm 2): pair up candidate blocks of the two
  // indices, skip pairs whose first-level entries cannot intersect, and
  // sort-merge the second levels of the surviving pairs.
  Bitmap left_blocks = left_index->BlocksWithEntries();
  Bitmap right_blocks = right_index->BlocksWithEntries();
  if (window.has_value()) {
    left_blocks.And(*window);
    right_blocks.And(*window);
  }
  bool discrete =
      left_index->options().discrete || right_index->options().discrete;
  if (left_index->options().discrete != right_index->options().discrete) {
    return Status::InvalidArgument(
        "join columns must both be discrete or both continuous");
  }

  // Enumerate block pairs that may produce join results. For a discrete
  // attribute, walk the value -> blocks maps directly (a pair qualifies iff
  // some value occurs in both blocks) — equivalent to the paper's per-pair
  // intersect() but linear in the number of values rather than quadratic in
  // blocks. For a continuous attribute, test bucket-range overlap per pair.
  std::vector<std::pair<size_t, size_t>> pairs;
  if (discrete) {
    const auto& right_values = right_index->discrete_values();
    std::vector<size_t> lbits, rbits;
    for (const auto& [value, lblocks] : left_index->discrete_values()) {
      lblocks.SetBitsAnd(left_blocks, &lbits);
      if (lbits.empty()) continue;
      auto rblocks = right_values.find(value);
      if (rblocks == right_values.end()) continue;
      rblocks->second.SetBitsAnd(right_blocks, &rbits);
      for (size_t br : lbits) {
        for (size_t bs : rbits) pairs.emplace_back(br, bs);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  } else {
    for (size_t br : left_blocks.SetBits()) {
      for (size_t bs : right_blocks.SetBits()) {
        if (BlocksIntersectContinuous(*left_index, br, *right_index, bs)) {
          pairs.emplace_back(br, bs);
        }
      }
    }
  }

  // Each surviving pair sort-merges independently into a private buffer;
  // buffers are concatenated in pair order.
  std::vector<RowVec> buffers;
  s = sql_internal::ParallelMapOrdered<RowVec>(
      pool_, pairs.size(),
      [&](size_t i, RowVec* out) -> Status {
        const auto [br, bs] = pairs[i];
        // Sort-merge over the two blocks' second levels (cursors walk them
        // in attribute order).
        LayeredIndex::Cursor lit = left_index->Seek(br, nullptr);
        LayeredIndex::Cursor rit = right_index->Seek(bs, nullptr);
        Status ps;
        while (lit.Valid() && rit.Valid()) {
          int cmp = lit.key().CompareTotal(rit.key());
          if (cmp < 0) {
            lit.Next();
            continue;
          }
          if (cmp > 0) {
            rit.Next();
            continue;
          }
          // Equal keys: cross product of both duplicate groups.
          Value key = lit.key();
          std::vector<uint32_t> lpos, rpos;
          while (lit.Valid() && lit.key().CompareTotal(key) == 0) {
            lpos.push_back(lit.value());
            lit.Next();
          }
          while (rit.Valid() && rit.key().CompareTotal(key) == 0) {
            rpos.push_back(rit.value());
            rit.Next();
          }
          for (uint32_t lp : lpos) {
            std::shared_ptr<const Transaction> ltxn;
            ps = store_->ReadTransaction(br, lp, &ltxn);
            if (!ps.ok()) return ps;
            std::vector<Value> lrow =
                TxnToRow(*ltxn, left_schema.num_columns());
            for (uint32_t rp : rpos) {
              std::shared_ptr<const Transaction> rtxn;
              ps = store_->ReadTransaction(bs, rp, &rtxn);
              if (!ps.ok()) return ps;
              ps = emit(lrow, TxnToRow(*rtxn, right_schema.num_columns()),
                        out);
              if (!ps.ok()) return ps;
            }
          }
        }
        return lit.status().ok() ? rit.status() : lit.status();
      },
      &buffers);
  if (!s.ok()) return s;
  for (auto& buffer : buffers) {
    for (auto& row : buffer) result->rows.push_back(std::move(row));
  }
  return Project(stmt, bindings, result);
}

Status Executor::ExecOnOffJoin(const SelectStmt& stmt,
                               const ExecOptions& options, bool explain_only,
                               ResultSet* result) {
  if (offchain_ == nullptr) {
    return Status::InvalidArgument("no off-chain connector configured");
  }
  // Normalize: r = on-chain side, s = off-chain side; remember the original
  // column order for output.
  bool left_is_off = stmt.tables[0].offchain;
  const TableRef& on_ref = left_is_off ? stmt.tables[1] : stmt.tables[0];
  const TableRef& off_ref = left_is_off ? stmt.tables[0] : stmt.tables[1];

  Schema on_schema;
  Status s = catalog_->GetSchema(on_ref.name, &on_schema);
  if (!s.ok()) return s;
  std::vector<ColumnDef> off_columns;
  s = offchain_->TableColumns(off_ref.name, &off_columns);
  if (!s.ok()) return s;

  std::string first_col, second_col;
  s = SplitJoinColumns(*stmt.join, stmt.tables[0].name, stmt.tables[1].name,
                       &first_col, &second_col);
  if (!s.ok()) return s;
  const std::string& on_col = left_is_off ? second_col : first_col;
  const std::string& off_col = left_is_off ? first_col : second_col;

  int on_idx = on_schema.ColumnIndex(on_col);
  if (on_idx < 0) {
    return Status::NotFound("join column " + on_col + " not in " +
                            on_ref.name);
  }
  int off_idx = -1;
  for (size_t i = 0; i < off_columns.size(); i++) {
    if (off_columns[i].name == off_col) off_idx = static_cast<int>(i);
  }
  if (off_idx < 0) {
    return Status::NotFound("join column " + off_col + " not in " +
                            off_ref.name);
  }

  // Output binding order follows the statement's table order.
  ColumnBindings bindings;
  if (left_is_off) {
    bindings.AddTable(off_ref.name, OffchainColumnNames(off_columns));
    bindings.AddTable(on_ref.name, SchemaColumnNames(on_schema));
  } else {
    bindings.AddTable(on_ref.name, SchemaColumnNames(on_schema));
    bindings.AddTable(off_ref.name, OffchainColumnNames(off_columns));
  }
  result->columns = bindings.qualified_names();

  std::optional<Bitmap> window;
  s = ResolveWindow(stmt.window, options.params, &window);
  if (!s.ok()) return s;

  LayeredIndex* on_index = indexes_->GetLayered(on_ref.name, on_col);
  JoinStrategy strategy = options.join_strategy;
  if (strategy == JoinStrategy::kAuto) {
    strategy = on_index != nullptr ? JoinStrategy::kLayeredMerge
                                   : JoinStrategy::kBitmapHash;
  }
  if (strategy == JoinStrategy::kLayeredMerge && on_index == nullptr) {
    return Status::InvalidArgument(
        "layered-merge on-off join needs a layered index on the on-chain "
        "join column");
  }

  result->plan = "OnOffJoin(onchain." + on_ref.name + "." + on_col +
                 " = offchain." + off_ref.name + "." + off_col +
                 ") strategy=" + StrategyName(strategy);
  if (window.has_value()) result->plan += " window";
  if (explain_only) return Status::OK();

  // As in ExecOnChainJoin: emit into a caller-supplied buffer so probe work
  // can run on private per-block buffers, merged in block order.
  auto emit = [&](const std::vector<Value>& on_row,
                  const std::vector<Value>& off_row,
                  std::vector<std::vector<Value>>* out) -> Status {
    std::vector<Value> row = left_is_off ? ConcatRows(off_row, on_row)
                                         : ConcatRows(on_row, off_row);
    bool ok = true;
    if (stmt.where != nullptr) {
      Status es =
          EvalPredicate(*stmt.where, bindings, row, options.params, &ok);
      if (!es.ok()) return es;
    }
    if (ok) out->push_back(std::move(row));
    return Status::OK();
  };
  using RowVec = std::vector<std::vector<Value>>;

  const uint64_t n = store_->num_blocks();

  if (strategy == JoinStrategy::kScanHash ||
      strategy == JoinStrategy::kBitmapHash) {
    // Fetch the whole off-chain table once and build a hash table on the
    // join attribute; candidate blocks are then read and probed in parallel
    // (the hash table is read-only during the probe phase).
    std::vector<OffchainRow> off_rows;
    s = offchain_->FetchAll(off_ref.name, &off_rows);
    if (!s.ok()) return s;
    std::unordered_multimap<Value, const OffchainRow*, ValueHash, ValueEq>
        hash;
    for (const auto& row : off_rows) hash.emplace(row[off_idx], &row);

    Bitmap blocks = strategy == JoinStrategy::kScanHash
                        ? AllBlocksBitmap(n)
                        : indexes_->table_index().BlocksWithTable(on_ref.name);
    if (window.has_value()) blocks.And(*window);
    const std::vector<size_t> bids = blocks.SetBits();
    std::vector<RowVec> buffers;
    s = sql_internal::ParallelMapOrdered<RowVec>(
        pool_, bids.size(),
        [&](size_t i, RowVec* out) -> Status {
          std::shared_ptr<const Block> block;
          Status ps = store_->ReadBlock(bids[i], &block);
          if (!ps.ok()) return ps;
          for (const auto& txn : block->transactions()) {
            if (txn.tname() != on_ref.name) continue;
            Value key = txn.GetColumn(on_idx);
            auto [begin, end] = hash.equal_range(key);
            if (begin == end) continue;
            std::vector<Value> on_row = TxnToRow(txn, on_schema.num_columns());
            for (auto it = begin; it != end; ++it) {
              ps = emit(on_row, *it->second, out);
              if (!ps.ok()) return ps;
            }
          }
          return Status::OK();
        },
        &buffers);
    if (!s.ok()) return s;
    for (auto& buffer : buffers) {
      for (auto& row : buffer) result->rows.push_back(std::move(row));
    }
    return Project(stmt, bindings, result);
  }

  // Layered-merge (Algorithm 3): off-chain rows sorted on the join
  // attribute; filter blocks by (s_min, s_max) — or the distinct values for
  // a discrete attribute — then sort-merge each surviving block against the
  // sorted off-chain rows using the second-level index.
  std::vector<OffchainRow> off_sorted;
  s = offchain_->FetchSortedBy(off_ref.name, off_col, &off_sorted);
  if (!s.ok()) return s;
  if (off_sorted.empty()) return Project(stmt, bindings, result);

  Bitmap candidates(n);
  if (on_index->options().discrete) {
    std::vector<Value> distinct;
    s = offchain_->Distinct(off_ref.name, off_col, &distinct);
    if (!s.ok()) return s;
    const auto& on_values = on_index->discrete_values();
    for (const auto& v : distinct) {
      auto blocks = on_values.find(v);
      if (blocks != on_values.end()) candidates.Or(blocks->second);
    }
  } else {
    Value smin, smax;
    s = offchain_->MinMax(off_ref.name, off_col, &smin, &smax);
    if (!s.ok()) return s;
    Bitmap with_entries = on_index->BlocksWithEntries();
    for (size_t bid : with_entries.SetBits()) {
      if (BlockIntersectsRange(*on_index, bid, smin, smax)) {
        candidates.Set(bid);
      }
    }
  }
  if (window.has_value()) candidates.And(*window);

  // Each candidate block merges independently against the shared sorted
  // off-chain rows (read-only); per-block buffers concatenate in block order.
  const std::vector<size_t> cand_bids = candidates.SetBits();
  std::vector<RowVec> buffers;
  s = sql_internal::ParallelMapOrdered<RowVec>(
      pool_, cand_bids.size(),
      [&](size_t i, RowVec* out) -> Status {
        const size_t bid = cand_bids[i];
        LayeredIndex::Cursor onit = on_index->Seek(bid, nullptr);
        size_t off_i = 0;
        Status ps;
        while (onit.Valid() && off_i < off_sorted.size()) {
          int cmp = onit.key().CompareTotal(off_sorted[off_i][off_idx]);
          if (cmp < 0) {
            onit.Next();
            continue;
          }
          if (cmp > 0) {
            off_i++;
            continue;
          }
          Value key = onit.key();
          std::vector<uint32_t> on_pos;
          while (onit.Valid() && onit.key().CompareTotal(key) == 0) {
            on_pos.push_back(onit.value());
            onit.Next();
          }
          size_t off_start = off_i;
          while (off_i < off_sorted.size() &&
                 off_sorted[off_i][off_idx].CompareTotal(key) == 0) {
            off_i++;
          }
          for (uint32_t pos : on_pos) {
            std::shared_ptr<const Transaction> txn;
            ps = store_->ReadTransaction(bid, pos, &txn);
            if (!ps.ok()) return ps;
            std::vector<Value> on_row =
                TxnToRow(*txn, on_schema.num_columns());
            for (size_t j = off_start; j < off_i; j++) {
              ps = emit(on_row, off_sorted[j], out);
              if (!ps.ok()) return ps;
            }
          }
          // Off-chain duplicates were consumed; the merge continues after
          // them for the next on-chain key.
        }
        return onit.status();
      },
      &buffers);
  if (!s.ok()) return s;
  for (auto& buffer : buffers) {
    for (auto& row : buffer) result->rows.push_back(std::move(row));
  }
  return Project(stmt, bindings, result);
}

}  // namespace sebdb
