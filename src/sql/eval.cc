#include "sql/eval.h"

namespace sebdb {

void ColumnBindings::AddTable(const std::string& table,
                              const std::vector<std::string>& columns) {
  for (const auto& column : columns) {
    int index = static_cast<int>(names_.size());
    names_.push_back(table + "." + column);
    by_column_[column].push_back(index);
    by_qualified_[table + "." + column] = index;
  }
}

std::vector<std::string> ColumnNames(const std::vector<ColumnDef>& columns) {
  std::vector<std::string> names;
  names.reserve(columns.size());
  for (const auto& column : columns) names.push_back(column.name);
  return names;
}

Status ColumnBindings::Resolve(const ColumnRef& ref, int* index) const {
  if (!ref.table.empty()) {
    auto it = by_qualified_.find(ref.table + "." + ref.column);
    if (it == by_qualified_.end()) {
      return Status::NotFound("unknown column " + ref.table + "." +
                              ref.column);
    }
    *index = it->second;
    return Status::OK();
  }
  auto it = by_column_.find(ref.column);
  if (it == by_column_.end()) {
    return Status::NotFound("unknown column " + ref.column);
  }
  if (it->second.size() > 1) {
    return Status::InvalidArgument("ambiguous column " + ref.column);
  }
  *index = it->second[0];
  return Status::OK();
}

namespace {

Status CompareValues(const Value& a, const Value& b, BinaryOp op, bool* out) {
  int cmp;
  Status s = a.Compare(b, &cmp);
  if (!s.ok()) return s;
  switch (op) {
    case BinaryOp::kEq:
      *out = cmp == 0;
      return Status::OK();
    case BinaryOp::kNe:
      *out = cmp != 0;
      return Status::OK();
    case BinaryOp::kLt:
      *out = cmp < 0;
      return Status::OK();
    case BinaryOp::kLe:
      *out = cmp <= 0;
      return Status::OK();
    case BinaryOp::kGt:
      *out = cmp > 0;
      return Status::OK();
    case BinaryOp::kGe:
      *out = cmp >= 0;
      return Status::OK();
    default:
      return Status::InvalidArgument("not a comparison operator");
  }
}

}  // namespace

Status EvalExpr(const Expr& expr, const ColumnBindings& bindings,
                const std::vector<Value>& row,
                const std::vector<Value>& params, Value* out) {
  if (const auto* col = std::get_if<ColumnRef>(&expr.node)) {
    int index;
    Status s = bindings.Resolve(*col, &index);
    if (!s.ok()) return s;
    if (index >= static_cast<int>(row.size())) {
      return Status::InvalidArgument("row narrower than bindings");
    }
    *out = row[index];
    return Status::OK();
  }
  if (const auto* lit = std::get_if<Literal>(&expr.node)) {
    *out = lit->value;
    return Status::OK();
  }
  if (const auto* param = std::get_if<Parameter>(&expr.node)) {
    if (param->index >= static_cast<int>(params.size())) {
      return Status::InvalidArgument(
          "missing bind parameter ?" + std::to_string(param->index + 1));
    }
    *out = params[param->index];
    return Status::OK();
  }
  if (const auto* between = std::get_if<BetweenExpr>(&expr.node)) {
    int index;
    Status s = bindings.Resolve(between->column, &index);
    if (!s.ok()) return s;
    Value lo, hi;
    s = EvalExpr(*between->lo, bindings, row, params, &lo);
    if (!s.ok()) return s;
    s = EvalExpr(*between->hi, bindings, row, params, &hi);
    if (!s.ok()) return s;
    bool ge, le;
    s = CompareValues(row[index], lo, BinaryOp::kGe, &ge);
    if (!s.ok()) return s;
    s = CompareValues(row[index], hi, BinaryOp::kLe, &le);
    if (!s.ok()) return s;
    *out = Value::Bool(ge && le);
    return Status::OK();
  }
  const auto& binary = std::get<BinaryExpr>(expr.node);
  if (binary.op == BinaryOp::kAnd || binary.op == BinaryOp::kOr) {
    Value left, right;
    Status s = EvalExpr(*binary.left, bindings, row, params, &left);
    if (!s.ok()) return s;
    // Short-circuit.
    bool lv = left.type() == ValueType::kBool && left.AsBool();
    if (binary.op == BinaryOp::kAnd && !lv) {
      *out = Value::Bool(false);
      return Status::OK();
    }
    if (binary.op == BinaryOp::kOr && lv) {
      *out = Value::Bool(true);
      return Status::OK();
    }
    s = EvalExpr(*binary.right, bindings, row, params, &right);
    if (!s.ok()) return s;
    bool rv = right.type() == ValueType::kBool && right.AsBool();
    *out = Value::Bool(binary.op == BinaryOp::kAnd ? (lv && rv) : (lv || rv));
    return Status::OK();
  }
  Value left, right;
  Status s = EvalExpr(*binary.left, bindings, row, params, &left);
  if (!s.ok()) return s;
  s = EvalExpr(*binary.right, bindings, row, params, &right);
  if (!s.ok()) return s;
  if (left.is_null() || right.is_null()) {
    *out = Value::Bool(false);  // SQL-ish: NULL comparisons are not true
    return Status::OK();
  }
  bool result;
  s = CompareValues(left, right, binary.op, &result);
  if (!s.ok()) return s;
  *out = Value::Bool(result);
  return Status::OK();
}

Status EvalConstExpr(const Expr& expr, const std::vector<Value>& params,
                     Value* out) {
  ColumnBindings empty;
  std::vector<Value> no_row;
  return EvalExpr(expr, empty, no_row, params, out);
}

Status EvalPredicate(const Expr& expr, const ColumnBindings& bindings,
                     const std::vector<Value>& row,
                     const std::vector<Value>& params, bool* out) {
  Value v;
  Status s = EvalExpr(expr, bindings, row, params, &v);
  if (!s.ok()) return s;
  *out = v.type() == ValueType::kBool && v.AsBool();
  return Status::OK();
}

namespace {

bool RefersTo(const ColumnRef& ref, const std::string& table,
              const std::string& column) {
  if (ref.column != column) return false;
  return ref.table.empty() || ref.table == table;
}

// Tightens `range` with a single comparison conjunct, if it constrains the
// target column.
void ApplyComparison(const ColumnRef& col, BinaryOp op, const Value& v,
                     const std::string& table, const std::string& column,
                     ColumnRange* range, bool* any) {
  if (!RefersTo(col, table, column) || v.is_null()) return;
  auto tighten_lo = [&](const Value& bound) {
    if (!range->lo.has_value() || range->lo->CompareTotal(bound) < 0) {
      range->lo = bound;
    }
  };
  auto tighten_hi = [&](const Value& bound) {
    if (!range->hi.has_value() || range->hi->CompareTotal(bound) > 0) {
      range->hi = bound;
    }
  };
  switch (op) {
    case BinaryOp::kEq:
      tighten_lo(v);
      tighten_hi(v);
      *any = true;
      break;
    case BinaryOp::kGe:
    case BinaryOp::kGt:  // conservative: treated as >= (rows re-filtered)
      tighten_lo(v);
      *any = true;
      break;
    case BinaryOp::kLe:
    case BinaryOp::kLt:  // conservative: treated as <=
      tighten_hi(v);
      *any = true;
      break;
    default:
      break;
  }
}

void WalkConjuncts(const Expr* expr, const std::string& table,
                   const std::string& column,
                   const std::vector<Value>& params, ColumnRange* range,
                   bool* any) {
  if (expr == nullptr) return;
  if (const auto* binary = std::get_if<BinaryExpr>(&expr->node)) {
    if (binary->op == BinaryOp::kAnd) {
      WalkConjuncts(binary->left.get(), table, column, params, range, any);
      WalkConjuncts(binary->right.get(), table, column, params, range, any);
      return;
    }
    if (binary->op == BinaryOp::kOr) return;  // not sargable
    // col op const  /  const op col
    const auto* lcol = std::get_if<ColumnRef>(&binary->left->node);
    const auto* rcol = std::get_if<ColumnRef>(&binary->right->node);
    Value v;
    if (lcol != nullptr && rcol == nullptr &&
        EvalConstExpr(*binary->right, params, &v).ok()) {
      ApplyComparison(*lcol, binary->op, v, table, column, range, any);
    } else if (rcol != nullptr && lcol == nullptr &&
               EvalConstExpr(*binary->left, params, &v).ok()) {
      // Flip the operator: const op col  ==  col flipped(op) const.
      BinaryOp flipped = binary->op;
      switch (binary->op) {
        case BinaryOp::kLt:
          flipped = BinaryOp::kGt;
          break;
        case BinaryOp::kLe:
          flipped = BinaryOp::kGe;
          break;
        case BinaryOp::kGt:
          flipped = BinaryOp::kLt;
          break;
        case BinaryOp::kGe:
          flipped = BinaryOp::kLe;
          break;
        default:
          break;
      }
      ApplyComparison(*rcol, flipped, v, table, column, range, any);
    }
    return;
  }
  if (const auto* between = std::get_if<BetweenExpr>(&expr->node)) {
    if (!RefersTo(between->column, table, column)) return;
    Value lo, hi;
    if (EvalConstExpr(*between->lo, params, &lo).ok() &&
        EvalConstExpr(*between->hi, params, &hi).ok() && !lo.is_null() &&
        !hi.is_null()) {
      ApplyComparison(between->column, BinaryOp::kGe, lo, table, column,
                      range, any);
      ApplyComparison(between->column, BinaryOp::kLe, hi, table, column,
                      range, any);
    }
  }
}

}  // namespace

std::optional<ColumnRange> ExtractColumnRange(
    const Expr* where, const std::string& table, const std::string& column,
    const std::vector<Value>& params) {
  ColumnRange range;
  bool any = false;
  WalkConjuncts(where, table, column, params, &range, &any);
  if (!any) return std::nullopt;
  return range;
}

}  // namespace sebdb
