// On-chain join (paper Algorithm 2) and on-off-chain join (Algorithm 3),
// each in the three strategies the evaluation compares: hash join over a
// full scan, hash join over bitmap-filtered blocks, and layered-index
// sort-merge over block pairs that may produce results.
#include <algorithm>
#include <optional>
#include <unordered_map>

#include "sql/block_pipeline.h"
#include "sql/executor.h"

namespace sebdb {

using sql_internal::AllBlocksBitmap;
using sql_internal::BlockPipeline;
using sql_internal::RowFilter;
using sql_internal::RowVec;
using sql_internal::TxnToRow;

namespace {

struct ValueHash {
  size_t operator()(const Value& v) const { return v.HashCode(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.CompareTotal(b) == 0;
  }
};

/// Value range covered by one set bucket: (lo, hi], open at the extremes.
struct ValueRange {
  std::optional<Value> lo;  // exclusive
  std::optional<Value> hi;  // inclusive
};

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

// intersect(b_r, b_s) for continuous join attributes (paper Alg. 2).
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

// intersect(b_r, (lo, hi)) for the on-off join (paper Alg. 3).
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

// Reads the run of entries equal to the cursor's key as full schema rows,
// one read per transaction, and leaves the cursor past the run.
Status ReadGroup(const BlockPipeline& pipeline, BlockId bid,
                 LayeredIndex::Cursor* it, int num_columns, RowVec* rows) {
  const Value key = it->key();
  std::vector<uint32_t> positions;
  for (; it->Valid() && it->key().CompareTotal(key) == 0; it->Next()) {
    positions.push_back(it->value());
  }
  return pipeline.ForEachTxn(bid, &positions, [&](const Transaction& txn) {
    rows->push_back(TxnToRow(txn, num_columns));
    return Status::OK();
  });
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
  bindings.AddTable(left, ColumnNames(left_schema.columns()));
  bindings.AddTable(right, ColumnNames(right_schema.columns()));
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

  // Joined rows pass the WHERE filter. Parallel phases fill private
  // per-unit buffers that the pipeline joins back in unit order, so the
  // result is byte-identical to the serial nested loop.
  const uint64_t n = store_->num_blocks();
  const RowFilter filter{stmt.where.get(), bindings, options.params};
  const BlockPipeline pipeline(store_, pool_);

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
    s = pipeline.Map<Partition>(
        bids.size(),
        [&](size_t i, Partition* out) -> Status {
          return pipeline.ForEachTxn(
              bids[i], nullptr, [&](const Transaction& txn) -> Status {
                if (txn.tname() == left) {
                  out->left.emplace_back(
                      txn.GetColumn(left_idx),
                      TxnToRow(txn, left_schema.num_columns()));
                }
                if (txn.tname() == right) {
                  out->right.emplace_back(
                      txn.GetColumn(right_idx),
                      TxnToRow(txn, right_schema.num_columns()));
                }
                return Status::OK();
              });
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
        s = filter.Keep(ConcatRows(lrow, it->second), &result->rows);
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
  s = pipeline.Run(
      pairs.size(),
      [&](size_t i, RowVec* out) -> Status {
        const auto [br, bs] = pairs[i];
        // Sort-merge over the two blocks' second levels (cursors walk them
        // in (attribute, position) order).
        LayeredIndex::Cursor lit = left_index->Seek(br, nullptr);
        LayeredIndex::Cursor rit = right_index->Seek(bs, nullptr);
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
          // Equal keys: each side's group is read once, then their cross
          // product is emitted.
          RowVec lrows, rrows;
          Status ps = ReadGroup(pipeline, br, &lit, left_schema.num_columns(),
                                &lrows);
          if (ps.ok()) {
            ps = ReadGroup(pipeline, bs, &rit, right_schema.num_columns(),
                           &rrows);
          }
          if (!ps.ok()) return ps;
          for (const auto& lrow : lrows) {
            for (const auto& rrow : rrows) {
              ps = filter.Keep(ConcatRows(lrow, rrow), out);
              if (!ps.ok()) return ps;
            }
          }
        }
        return lit.status().ok() ? rit.status() : lit.status();
      },
      &result->rows);
  if (!s.ok()) return s;
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
    bindings.AddTable(off_ref.name, ColumnNames(off_columns));
    bindings.AddTable(on_ref.name, ColumnNames(on_schema.columns()));
  } else {
    bindings.AddTable(on_ref.name, ColumnNames(on_schema.columns()));
    bindings.AddTable(off_ref.name, ColumnNames(off_columns));
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

  // As in ExecOnChainJoin: joined rows in statement column order pass the
  // filter into private per-block buffers, joined back in block order.
  const RowFilter filter{stmt.where.get(), bindings, options.params};
  auto emit = [&](const std::vector<Value>& on_row,
                  const std::vector<Value>& off_row, RowVec* out) {
    return filter.Keep(left_is_off ? ConcatRows(off_row, on_row)
                                   : ConcatRows(on_row, off_row),
                       out);
  };
  const BlockPipeline pipeline(store_, pool_);
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
    s = pipeline.Run(
        bids.size(),
        [&](size_t i, RowVec* out) -> Status {
          return pipeline.ForEachTxn(
              bids[i], nullptr, [&](const Transaction& txn) -> Status {
                if (txn.tname() != on_ref.name) return Status::OK();
                auto [begin, end] = hash.equal_range(txn.GetColumn(on_idx));
                if (begin == end) return Status::OK();
                std::vector<Value> on_row =
                    TxnToRow(txn, on_schema.num_columns());
                for (auto it = begin; it != end; ++it) {
                  Status es = emit(on_row, *it->second, out);
                  if (!es.ok()) return es;
                }
                return Status::OK();
              });
        },
        &result->rows);
    if (!s.ok()) return s;
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
  s = pipeline.Run(
      cand_bids.size(),
      [&](size_t i, RowVec* out) -> Status {
        const size_t bid = cand_bids[i];
        LayeredIndex::Cursor onit = on_index->Seek(bid, nullptr);
        size_t off_i = 0;
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
          const size_t off_start = off_i;
          while (off_i < off_sorted.size() &&
                 off_sorted[off_i][off_idx].CompareTotal(onit.key()) == 0) {
            off_i++;
          }
          RowVec on_rows;
          Status ps = ReadGroup(pipeline, bid, &onit, on_schema.num_columns(),
                                &on_rows);
          if (!ps.ok()) return ps;
          for (const auto& on_row : on_rows) {
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
      &result->rows);
  if (!s.ok()) return s;
  return Project(stmt, bindings, result);
}

}  // namespace sebdb
