#include "sql/executor.h"

#include <algorithm>
#include <unordered_map>

#include "sql/block_pipeline.h"
#include "sql/cost_model.h"
#include "sql/parser.h"

namespace sebdb {

using sql_internal::AllBlocksBitmap;
using sql_internal::BlockPipeline;
using sql_internal::PositionProbe;
using sql_internal::RowFilter;
using sql_internal::RowVec;
using sql_internal::TxnToRow;

namespace {

std::string RangeToString(const std::optional<Value>& lo,
                          const std::optional<Value>& hi) {
  std::string out = "[";
  out += lo.has_value() ? lo->ToString() : "-inf";
  out += ", ";
  out += hi.has_value() ? hi->ToString() : "+inf";
  out += "]";
  return out;
}

}  // namespace

Status Executor::Execute(const Statement& stmt, const ExecOptions& options,
                         ResultSet* result) {
  result->columns.clear();
  result->rows.clear();
  result->plan.clear();

  if (const auto* create_index = std::get_if<CreateIndexStmt>(&stmt.node)) {
    // DDL: CreateLayeredIndex takes the apply lock exclusive itself.
    return ExecCreateIndex(*create_index, /*explain_only=*/false, result);
  }
  // Every other statement only reads the indexes: one shared hold of the
  // apply lock for the whole statement keeps a concurrent block apply from
  // growing the bitmaps, trees and root lists the plan walks (DESIGN.md §9).
  ReaderMutexLock read(indexes_->apply_mutex());
  if (const auto* explain = std::get_if<ExplainStmt>(&stmt.node)) {
    // Plan the inner statement without running it.
    if (const auto* select = std::get_if<SelectStmt>(&explain->inner->node)) {
      return ExecSelect(*select, options, /*explain_only=*/true, result);
    }
    if (const auto* trace = std::get_if<TraceStmt>(&explain->inner->node)) {
      return ExecTrace(*trace, options, /*explain_only=*/true, result);
    }
    if (const auto* get = std::get_if<GetBlockStmt>(&explain->inner->node)) {
      return ExecGetBlock(*get, options, /*explain_only=*/true, result);
    }
    return Status::NotSupported("EXPLAIN supports SELECT, TRACE, GET BLOCK");
  }
  if (const auto* select = std::get_if<SelectStmt>(&stmt.node)) {
    return ExecSelect(*select, options, /*explain_only=*/false, result);
  }
  if (const auto* trace = std::get_if<TraceStmt>(&stmt.node)) {
    return ExecTrace(*trace, options, /*explain_only=*/false, result);
  }
  if (const auto* get = std::get_if<GetBlockStmt>(&stmt.node)) {
    return ExecGetBlock(*get, options, /*explain_only=*/false, result);
  }
  return Status::NotSupported(
      "CREATE TABLE and INSERT are write statements; submit them through a "
      "SEBDB node so they reach consensus");
}

Status Executor::ExecuteSql(std::string_view sql, const ExecOptions& options,
                            ResultSet* result) {
  StatementPtr stmt;
  Status s = ParseStatement(sql, &stmt);
  if (!s.ok()) return s;
  return Execute(*stmt, options, result);
}

Status Executor::ResolveWindow(const std::optional<TimeWindow>& window,
                               const std::vector<Value>& params,
                               std::optional<Bitmap>* out) const {
  out->reset();
  if (!window.has_value()) return Status::OK();
  Value start, end;
  Status s = EvalConstExpr(*window->start, params, &start);
  if (!s.ok()) return s;
  s = EvalConstExpr(*window->end, params, &end);
  if (!s.ok()) return s;
  auto as_ts = [](const Value& v, Timestamp* t) -> Status {
    if (v.type() == ValueType::kTimestamp) {
      *t = v.AsTimestamp();
    } else if (v.type() == ValueType::kInt64) {
      *t = v.AsInt();
    } else {
      return Status::InvalidArgument("window bounds must be timestamps");
    }
    return Status::OK();
  };
  Timestamp start_ts = 0, end_ts = 0;
  s = as_ts(start, &start_ts);
  if (!s.ok()) return s;
  s = as_ts(end, &end_ts);
  if (!s.ok()) return s;
  *out = indexes_->block_index().BlocksInWindow(start_ts, end_ts);
  return Status::OK();
}

namespace {

// Folds a set of rows into one aggregate row.
Status FoldAggregates(const SelectStmt& stmt, const ColumnBindings& bindings,
                      const std::vector<const std::vector<Value>*>& rows,
                      std::vector<Value>* agg_row) {
  for (const auto& agg : stmt.aggregates) {
    int index = -1;
    if (!agg.star) {
      Status s = bindings.Resolve(agg.column, &index);
      if (!s.ok()) return s;
    }
    if (agg.fn == AggCall::Fn::kCount) {
      int64_t count = 0;
      for (const auto* row : rows) {
        if (agg.star || !(*row)[index].is_null()) count++;
      }
      agg_row->push_back(Value::Int(count));
      continue;
    }
    // SUM / AVG / MIN / MAX over non-null values.
    bool any = false;
    double sum = 0;
    int64_t count = 0;
    Value min_v, max_v;
    for (const auto* row : rows) {
      const Value& v = (*row)[index];
      if (v.is_null()) continue;
      if ((agg.fn == AggCall::Fn::kSum || agg.fn == AggCall::Fn::kAvg) &&
          !v.IsNumeric()) {
        return Status::InvalidArgument(agg.ToString() +
                                       " needs a numeric column");
      }
      if (!any) {
        min_v = v;
        max_v = v;
      } else {
        if (v.CompareTotal(min_v) < 0) min_v = v;
        if (v.CompareTotal(max_v) > 0) max_v = v;
      }
      any = true;
      if (v.IsNumeric()) sum += v.NumericValue();
      count++;
    }
    switch (agg.fn) {
      case AggCall::Fn::kSum:
        agg_row->push_back(any ? Value::Double(sum) : Value::Null());
        break;
      case AggCall::Fn::kAvg:
        agg_row->push_back(any ? Value::Double(sum / count) : Value::Null());
        break;
      case AggCall::Fn::kMin:
        agg_row->push_back(any ? min_v : Value::Null());
        break;
      case AggCall::Fn::kMax:
        agg_row->push_back(any ? max_v : Value::Null());
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

// Aggregation, optionally grouped by one column.
Status ComputeAggregates(const SelectStmt& stmt,
                         const ColumnBindings& bindings, ResultSet* result) {
  std::vector<std::string> names;
  if (stmt.group_by.has_value()) {
    int group_index;
    Status s = bindings.Resolve(*stmt.group_by, &group_index);
    if (!s.ok()) return s;
    names.push_back(bindings.qualified_names()[group_index]);
    for (const auto& agg : stmt.aggregates) names.push_back(agg.ToString());

    struct ValueCmp {
      bool operator()(const Value& a, const Value& b) const {
        return a.CompareTotal(b) < 0;
      }
    };
    std::map<Value, std::vector<const std::vector<Value>*>, ValueCmp> groups;
    for (const auto& row : result->rows) {
      groups[row[group_index]].push_back(&row);
    }
    std::vector<std::vector<Value>> out_rows;
    for (const auto& [key, rows] : groups) {
      std::vector<Value> out_row = {key};
      s = FoldAggregates(stmt, bindings, rows, &out_row);
      if (!s.ok()) return s;
      out_rows.push_back(std::move(out_row));
    }
    result->rows = std::move(out_rows);  // sorted by group key (map order)
    result->columns = std::move(names);
    return Status::OK();
  }

  for (const auto& agg : stmt.aggregates) names.push_back(agg.ToString());
  std::vector<const std::vector<Value>*> all;
  all.reserve(result->rows.size());
  for (const auto& row : result->rows) all.push_back(&row);
  std::vector<Value> agg_row;
  Status s = FoldAggregates(stmt, bindings, all, &agg_row);
  if (!s.ok()) return s;
  result->rows.clear();
  result->rows.push_back(std::move(agg_row));
  result->columns = std::move(names);
  return Status::OK();
}

}  // namespace

Status Executor::Project(const SelectStmt& stmt,
                         const ColumnBindings& bindings,
                         ResultSet* result) const {
  if (!stmt.aggregates.empty()) {
    Status s = ComputeAggregates(stmt, bindings, result);
    if (!s.ok()) return s;
    // Grouped rows come out in ascending key order; honor DESC on the key.
    if (stmt.order_by.has_value() && stmt.group_by.has_value()) {
      if (stmt.order_by->column.column != stmt.group_by->column) {
        return Status::NotSupported(
            "ORDER BY of a grouped query must use the GROUP BY column");
      }
      if (stmt.order_by->descending) {
        std::reverse(result->rows.begin(), result->rows.end());
      }
    }
    if (stmt.limit >= 0 &&
        result->rows.size() > static_cast<size_t>(stmt.limit)) {
      result->rows.resize(stmt.limit);
    }
    return Status::OK();
  }

  // ORDER BY binds against the full (pre-projection) row.
  if (stmt.order_by.has_value()) {
    int index;
    Status s = bindings.Resolve(stmt.order_by->column, &index);
    if (!s.ok()) return s;
    bool desc = stmt.order_by->descending;
    std::stable_sort(result->rows.begin(), result->rows.end(),
                     [index, desc](const std::vector<Value>& a,
                                   const std::vector<Value>& b) {
                       int cmp = a[index].CompareTotal(b[index]);
                       return desc ? cmp > 0 : cmp < 0;
                     });
  }
  if (stmt.limit >= 0 &&
      result->rows.size() > static_cast<size_t>(stmt.limit)) {
    result->rows.resize(stmt.limit);
  }

  if (stmt.star) return Status::OK();
  std::vector<int> keep;
  std::vector<std::string> names;
  for (const auto& col : stmt.projection) {
    int index;
    Status s = bindings.Resolve(col, &index);
    if (!s.ok()) return s;
    keep.push_back(index);
    names.push_back(bindings.qualified_names()[index]);
  }
  for (auto& row : result->rows) {
    std::vector<Value> projected;
    projected.reserve(keep.size());
    for (int index : keep) projected.push_back(std::move(row[index]));
    row = std::move(projected);
  }
  result->columns = std::move(names);
  return Status::OK();
}

Status Executor::ExecSelect(const SelectStmt& stmt, const ExecOptions& options,
                            bool explain_only, ResultSet* result) {
  if (stmt.tables.empty()) return Status::InvalidArgument("no FROM table");
  if (stmt.tables.size() == 1) {
    if (stmt.tables[0].offchain) {
      return ExecOffchainOnly(stmt, options, explain_only, result);
    }
    return ExecSingleTable(stmt, options, explain_only, result);
  }
  if (stmt.tables.size() == 2) {
    if (!stmt.join.has_value()) {
      return Status::InvalidArgument("two-table SELECT needs ON a = b");
    }
    bool left_off = stmt.tables[0].offchain;
    bool right_off = stmt.tables[1].offchain;
    if (left_off && right_off) {
      return Status::NotSupported("join of two off-chain tables");
    }
    if (left_off || right_off) {
      return ExecOnOffJoin(stmt, options, explain_only, result);
    }
    return ExecOnChainJoin(stmt, options, explain_only, result);
  }
  return Status::NotSupported("more than two tables in FROM");
}

Status Executor::ExecSingleTable(const SelectStmt& stmt,
                                 const ExecOptions& options,
                                 bool explain_only, ResultSet* result) {
  const std::string& table = stmt.tables[0].name;
  Schema schema;
  Status s = catalog_->GetSchema(table, &schema);
  if (!s.ok()) return s;

  ColumnBindings bindings;
  bindings.AddTable(table, ColumnNames(schema.columns()));
  result->columns = bindings.qualified_names();

  std::optional<Bitmap> window;
  s = ResolveWindow(stmt.window, options.params, &window);
  if (!s.ok()) return s;

  // Pick the access path: a layered index on a constrained column, the
  // table-level bitmap, or a full scan.
  LayeredIndex* layered = nullptr;
  std::string layered_column;
  std::optional<ColumnRange> range;
  for (int i = Schema::kNumSystemColumns; i < schema.num_columns(); i++) {
    const std::string& column = schema.columns()[i].name;
    LayeredIndex* candidate = indexes_->GetLayered(table, column);
    if (candidate == nullptr) continue;
    auto extracted =
        ExtractColumnRange(stmt.where.get(), table, column, options.params);
    if (extracted.has_value()) {
      layered = candidate;
      layered_column = column;
      range = extracted;
      break;
    }
    if (layered == nullptr) {  // fallback: index without a constraint
      layered = candidate;
      layered_column = column;
    }
  }

  const Value* lo =
      range.has_value() && range->lo.has_value() ? &*range->lo : nullptr;
  const Value* hi =
      range.has_value() && range->hi.has_value() ? &*range->hi : nullptr;

  // Cost-based choice (paper Eqs. 1-3): the layered index pays one random
  // read per result tuple, so for large results the bitmap's sequential
  // block reads win.
  CostParams cost_params;
  const StorageStats& stats = store_->stats();
  if (stats.blocks_appended.load(std::memory_order_relaxed) > 0) {
    cost_params.chain_block_bytes =
        static_cast<double>(
            stats.bytes_appended.load(std::memory_order_relaxed)) /
        static_cast<double>(
            stats.blocks_appended.load(std::memory_order_relaxed));
  }
  AccessPathCosts costs = EstimateSelectCosts(
      store_->num_blocks(),
      indexes_->table_index().BlocksWithTable(table).Count(),
      range.has_value() ? layered : nullptr, lo, hi, cost_params);
  AccessPath path = options.access_path;
  if (path == AccessPath::kAuto) {
    path = (layered != nullptr && range.has_value() && costs.LayeredWins())
               ? AccessPath::kLayered
               : AccessPath::kBitmap;
  }
  if (path == AccessPath::kLayered && layered == nullptr) {
    return Status::InvalidArgument("no layered index on table " + table);
  }

  // Plan description.
  {
    std::string plan = "SingleTable(" + table + ") path=";
    switch (path) {
      case AccessPath::kScan:
        plan += "scan";
        break;
      case AccessPath::kBitmap:
        plan += "bitmap";
        break;
      case AccessPath::kLayered:
        plan += "layered(" + layered_column + " in " +
                (range.has_value()
                     ? RangeToString(range->lo, range->hi)
                     : std::string("[-inf, +inf]")) +
                ")";
        break;
      default:
        plan += "?";
    }
    if (window.has_value()) plan += " window";
    if (stmt.where != nullptr) plan += " filter=" + stmt.where->ToString();
    plan += " " + costs.ToString();
    result->plan = std::move(plan);
  }
  if (explain_only) return Status::OK();

  // Layered: candidates from the index's first level, then one probe of
  // its second level. Bitmap and scan: the table's blocks (or all), read
  // whole.
  std::vector<PositionProbe> probes;
  Bitmap candidates;
  if (path == AccessPath::kLayered) {
    candidates = layered->CandidateBlocks(lo, hi);
    probes.push_back({layered, lo, hi});
  } else if (path == AccessPath::kBitmap) {
    candidates = indexes_->table_index().BlocksWithTable(table);
  } else {
    candidates = AllBlocksBitmap(store_->num_blocks());
  }
  if (window.has_value()) candidates.And(*window);
  const RowFilter filter{stmt.where.get(), bindings, options.params};
  s = BlockPipeline(store_, pool_).Collect(
      candidates, probes,
      [&](const Transaction& txn, RowVec* out) -> Status {
        if (txn.tname() != table) return Status::OK();
        return filter.Keep(TxnToRow(txn, schema.num_columns()), out);
      },
      &result->rows);
  if (!s.ok()) return s;
  return Project(stmt, bindings, result);
}

Status Executor::ExecOffchainOnly(const SelectStmt& stmt,
                                  const ExecOptions& options,
                                  bool explain_only, ResultSet* result) {
  if (offchain_ == nullptr) {
    return Status::InvalidArgument("no off-chain connector configured");
  }
  const std::string& table = stmt.tables[0].name;
  std::vector<ColumnDef> columns;
  Status s = offchain_->TableColumns(table, &columns);
  if (!s.ok()) return s;

  ColumnBindings bindings;
  bindings.AddTable(table, ColumnNames(columns));
  result->columns = bindings.qualified_names();
  result->plan = "OffchainScan(" + table + ")";
  if (explain_only) return Status::OK();

  std::vector<OffchainRow> rows;
  s = offchain_->FetchAll(table, &rows);
  if (!s.ok()) return s;
  const RowFilter filter{stmt.where.get(), bindings, options.params};
  for (auto& row : rows) {
    s = filter.Keep(std::move(row), &result->rows);
    if (!s.ok()) return s;
  }
  return Project(stmt, bindings, result);
}

Status Executor::ExecTrace(const TraceStmt& stmt, const ExecOptions& options,
                           bool explain_only, ResultSet* result) {
  std::string operator_id, operation;
  bool has_operator = stmt.operator_id != nullptr;
  bool has_operation = stmt.operation != nullptr;
  if (has_operator) {
    Value v;
    Status s = EvalConstExpr(*stmt.operator_id, options.params, &v);
    if (!s.ok()) return s;
    operator_id = v.ToString();
  }
  if (has_operation) {
    Value v;
    Status s = EvalConstExpr(*stmt.operation, options.params, &v);
    if (!s.ok()) return s;
    operation = v.ToString();
  }

  std::optional<Bitmap> window;
  Status s = ResolveWindow(stmt.window, options.params, &window);
  if (!s.ok()) return s;

  AccessPath path = options.access_path;
  if (path == AccessPath::kAuto) path = AccessPath::kLayered;

  {
    std::string plan = "Trace path=";
    plan += path == AccessPath::kScan
                ? "scan"
                : (path == AccessPath::kBitmap ? "bitmap" : "layered");
    if (has_operator) plan += " operator=" + operator_id;
    if (has_operation) plan += " operation=" + operation;
    if (window.has_value()) plan += " window";
    result->plan = std::move(plan);
  }
  result->columns = {"tid", "ts", "senid", "tname", "data"};
  if (explain_only) return Status::OK();

  // Scan reads every block (in the window) whole. Bitmap filters through
  // the first-level bitmaps of the system SenID/Tname indices, then reads the
  // surviving blocks whole. Layered applies the same first-level filter
  // (paper Alg. 1 lines 1-5), then probes each block's second level per
  // dimension, intersects the position sets and random-reads only the
  // result transactions (lines 6-13).
  const Value operator_key = Value::Str(operator_id);
  const Value operation_key = Value::Str(operation);
  Bitmap candidates =
      window.has_value() ? *window : AllBlocksBitmap(store_->num_blocks());
  const bool probe = path == AccessPath::kLayered;
  std::vector<PositionProbe> probes;
  if (path != AccessPath::kScan && has_operator) {
    LayeredIndex* senid = indexes_->senid_index();
    candidates.And(senid->BlocksWithValue(operator_key));
    if (probe) probes.push_back({senid, &operator_key, &operator_key});
  }
  if (path != AccessPath::kScan && has_operation) {
    LayeredIndex* tname = indexes_->tname_index();
    candidates.And(tname->BlocksWithValue(operation_key));
    if (probe) probes.push_back({tname, &operation_key, &operation_key});
  }
  return BlockPipeline(store_, pool_).Collect(
      candidates, probes,
      [&](const Transaction& txn, RowVec* out) -> Status {
        if (has_operator && txn.sender() != operator_id) return Status::OK();
        if (has_operation && txn.tname() != operation) return Status::OK();
        std::string data;
        for (size_t i = 0; i < txn.values().size(); i++) {
          if (i > 0) data += ", ";
          data += txn.values()[i].ToString();
        }
        out->push_back({Value::Int(static_cast<int64_t>(txn.tid())),
                        Value::Ts(txn.ts()), Value::Str(txn.sender()),
                        Value::Str(txn.tname()), Value::Str(data)});
        return Status::OK();
      },
      &result->rows);
}

Status Executor::ExecGetBlock(const GetBlockStmt& stmt,
                              const ExecOptions& options, bool explain_only,
                              ResultSet* result) {
  result->columns = {"block_id", "first_tid", "num_transactions", "timestamp",
                     "block_hash", "prev_hash"};
  result->plan = "GetBlock";
  if (explain_only) return Status::OK();

  Value v;
  Status s = EvalConstExpr(*stmt.value, options.params, &v);
  if (!s.ok()) return s;
  if (v.type() != ValueType::kInt64 && v.type() != ValueType::kTimestamp) {
    return Status::InvalidArgument("GET BLOCK expects an integer value");
  }
  int64_t key = v.type() == ValueType::kInt64 ? v.AsInt() : v.AsTimestamp();

  BlockIndexEntry entry;
  switch (stmt.by) {
    case GetBlockStmt::By::kId:
      s = indexes_->block_index().FindByBlockId(static_cast<BlockId>(key),
                                                &entry);
      break;
    case GetBlockStmt::By::kTid:
      s = indexes_->block_index().FindByTid(static_cast<TransactionId>(key),
                                            &entry);
      break;
    case GetBlockStmt::By::kTs:
      s = indexes_->block_index().FindFirstAtOrAfter(key, &entry);
      break;
  }
  if (!s.ok()) return s;

  BlockHeader header;
  s = store_->ReadHeader(entry.bid, &header);
  if (!s.ok()) return s;
  result->rows.push_back(
      {Value::Int(static_cast<int64_t>(entry.bid)),
       Value::Int(static_cast<int64_t>(entry.first_tid)),
       Value::Int(entry.num_transactions), Value::Ts(entry.ts),
       Value::Str(header.block_hash.ToHex()),
       Value::Str(header.prev_hash.ToHex())});
  return Status::OK();
}

Status Executor::ExecCreateIndex(const CreateIndexStmt& stmt,
                                 bool explain_only, ResultSet* result) {
  result->plan = "CreateIndex(" + stmt.table + "." + stmt.column + ")";
  if (explain_only) return Status::OK();
  Schema schema;
  Status s = catalog_->GetSchema(stmt.table, &schema);
  if (!s.ok()) return s;
  int index = schema.ColumnIndex(stmt.column);
  if (index < 0) {
    return Status::NotFound("no column " + stmt.column + " in " + stmt.table);
  }
  ValueType type = schema.columns()[index].type;
  bool discrete = stmt.discrete || type == ValueType::kString ||
                  type == ValueType::kBool;
  return indexes_->CreateLayeredIndex(stmt.table, stmt.column, index,
                                      discrete);
}

}  // namespace sebdb
