// Expression evaluation and predicate analysis for the executor.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "types/schema.h"
#include "types/value.h"

namespace sebdb {

/// Maps column references to positions in the executor's working row.
/// Qualified names ("t.col") and unqualified names ("col") both resolve;
/// ambiguous unqualified names fail at bind time.
class ColumnBindings {
 public:
  /// Adds the columns of one table instance, in row order.
  void AddTable(const std::string& table,
                const std::vector<std::string>& columns);

  /// Position of a reference, or an error for unknown/ambiguous columns.
  Status Resolve(const ColumnRef& ref, int* index) const;

  const std::vector<std::string>& qualified_names() const { return names_; }

 private:
  std::vector<std::string> names_;  // "table.column", row order
  std::map<std::string, std::vector<int>> by_column_;  // unqualified
  std::map<std::string, int> by_qualified_;
};

/// The names of `columns` (a schema's or an off-chain table's), in order.
std::vector<std::string> ColumnNames(const std::vector<ColumnDef>& columns);

/// Evaluates an expression against a row. Parameters come from `params`
/// (bound positionally). Boolean-valued expressions yield Value::Bool;
/// comparisons on incomparable types fail.
Status EvalExpr(const Expr& expr, const ColumnBindings& bindings,
                const std::vector<Value>& row,
                const std::vector<Value>& params, Value* out);

/// Evaluates an expression that must not reference any column (literals,
/// parameters) — INSERT values, window bounds, TRACE operands.
Status EvalConstExpr(const Expr& expr, const std::vector<Value>& params,
                     Value* out);

/// Evaluates a predicate to a boolean (NULL -> false).
Status EvalPredicate(const Expr& expr, const ColumnBindings& bindings,
                     const std::vector<Value>& row,
                     const std::vector<Value>& params, bool* out);

/// A sargable range constraint on one column extracted from the top-level
/// conjuncts of a WHERE clause: lo <= col <= hi (either bound may be open).
struct ColumnRange {
  std::optional<Value> lo;
  std::optional<Value> hi;

  bool IsPoint() const {
    return lo.has_value() && hi.has_value() &&
           lo->CompareTotal(*hi) == 0;
  }
};

/// Extracts a range on `column` (unqualified, or qualified with `table`)
/// from the AND-conjuncts of `where`. OR anywhere above a conjunct makes it
/// non-sargable. Returns nullopt when no constraint on the column exists.
/// The full WHERE is still applied to every candidate row afterwards.
std::optional<ColumnRange> ExtractColumnRange(
    const Expr* where, const std::string& table, const std::string& column,
    const std::vector<Value>& params);

}  // namespace sebdb
