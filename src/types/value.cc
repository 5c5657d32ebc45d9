#include "types/value.h"

#include <bit>
#include <charconv>
#include <cmath>

#include "common/coding.h"

namespace sebdb {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kDecimal:
      return "decimal";
    case ValueType::kString:
      return "string";
    case ValueType::kTimestamp:
      return "timestamp";
  }
  return "?";
}

bool ParseValueType(std::string_view name, ValueType* out) {
  if (name == "bool") *out = ValueType::kBool;
  else if (name == "int" || name == "int64" || name == "integer" ||
           name == "bigint")
    *out = ValueType::kInt64;
  else if (name == "double" || name == "float") *out = ValueType::kDouble;
  else if (name == "decimal" || name == "numeric") *out = ValueType::kDecimal;
  else if (name == "string" || name == "varchar" || name == "text")
    *out = ValueType::kString;
  else if (name == "timestamp") *out = ValueType::kTimestamp;
  else return false;
  return true;
}

Decimal Decimal::FromDouble(double v) {
  return Decimal{static_cast<int64_t>(std::llround(v * kScale))};
}

Status Decimal::FromString(std::string_view s, Decimal* out) {
  if (s.empty()) return Status::InvalidArgument("empty decimal literal");
  bool neg = false;
  size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
  }
  int64_t int_part = 0;
  int64_t frac_part = 0;
  int frac_digits = 0;
  bool saw_digit = false;
  bool in_frac = false;
  for (; i < s.size(); i++) {
    char c = s[i];
    if (c == '.') {
      if (in_frac) return Status::InvalidArgument("malformed decimal");
      in_frac = true;
      continue;
    }
    if (c < '0' || c > '9') return Status::InvalidArgument("malformed decimal");
    saw_digit = true;
    if (!in_frac) {
      int_part = int_part * 10 + (c - '0');
    } else if (frac_digits < 4) {
      frac_part = frac_part * 10 + (c - '0');
      frac_digits++;
    }
    // Digits past the 4th fractional place are truncated.
  }
  if (!saw_digit) return Status::InvalidArgument("malformed decimal");
  while (frac_digits < 4) {
    frac_part *= 10;
    frac_digits++;
  }
  int64_t scaled = int_part * kScale + frac_part;
  out->scaled = neg ? -scaled : scaled;
  return Status::OK();
}

std::string Decimal::ToString() const {
  int64_t v = scaled;
  std::string sign;
  if (v < 0) {
    sign = "-";
    v = -v;
  }
  int64_t int_part = v / kScale;
  int64_t frac = v % kScale;
  std::string out = sign + std::to_string(int_part);
  if (frac != 0) {
    char buf[8];
    snprintf(buf, sizeof(buf), ".%04lld", static_cast<long long>(frac));
    std::string f(buf);
    while (f.back() == '0') f.pop_back();
    out += f;
  }
  return out;
}

ValueType Value::type() const {
  return static_cast<ValueType>(v_.index());
}

double Value::NumericValue() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kDecimal:
      return AsDecimal().ToDouble();
    default:
      return 0.0;
  }
}

Status Value::Compare(const Value& other, int* result) const {
  ValueType a = type(), b = other.type();
  if (a == ValueType::kNull || b == ValueType::kNull) {
    *result = (a == b) ? 0 : (a == ValueType::kNull ? -1 : 1);
    return Status::OK();
  }
  if (a == b || (IsNumeric() && other.IsNumeric())) {
    *result = CompareTotal(other);
    return Status::OK();
  }
  return Status::InvalidArgument(std::string("cannot compare ") +
                                 ValueTypeName(a) + " with " +
                                 ValueTypeName(b));
}

int Value::CompareTotal(const Value& other) const {
  ValueType a = type(), b = other.type();
  if (IsNumeric() && other.IsNumeric()) {
    // Exact path for identical representations; magnitude path otherwise.
    if (a == b) {
      switch (a) {
        case ValueType::kInt64: {
          int64_t x = AsInt(), y = other.AsInt();
          return x < y ? -1 : (x > y ? 1 : 0);
        }
        case ValueType::kDecimal: {
          int64_t x = AsDecimal().scaled, y = other.AsDecimal().scaled;
          return x < y ? -1 : (x > y ? 1 : 0);
        }
        default: {
          double x = AsDouble(), y = other.AsDouble();
          return x < y ? -1 : (x > y ? 1 : 0);
        }
      }
    }
    double x = NumericValue(), y = other.NumericValue();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a != b) return a < b ? -1 : 1;
  switch (a) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return AsBool() == other.AsBool() ? 0 : (AsBool() ? 1 : -1);
    case ValueType::kString:
      return AsString().compare(other.AsString()) < 0
                 ? -1
                 : (AsString() == other.AsString() ? 0 : 1);
    case ValueType::kTimestamp: {
      Timestamp x = AsTimestamp(), y = other.AsTimestamp();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default:
      return 0;  // unreachable: numeric handled above
  }
}

void Value::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      dst->push_back(AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      PutVarSigned64(dst, AsInt());
      break;
    case ValueType::kDouble:
      PutFixed64(dst, std::bit_cast<uint64_t>(AsDouble()));
      break;
    case ValueType::kDecimal:
      PutVarSigned64(dst, AsDecimal().scaled);
      break;
    case ValueType::kString:
      PutLengthPrefixed(dst, AsString());
      break;
    case ValueType::kTimestamp:
      PutVarSigned64(dst, AsTimestamp());
      break;
  }
}

// Assigns into *out's variant in place (no temporary Value), so a Value
// reused across decodes — a disk-tree iterator's key — keeps its string
// buffer.
bool Value::DecodeFrom(Slice* input, Value* out) {
  if (input->empty()) return false;
  auto t = static_cast<ValueType>((*input)[0]);
  input->remove_prefix(1);
  switch (t) {
    case ValueType::kNull:
      out->v_.emplace<std::monostate>();
      return true;
    case ValueType::kBool: {
      if (input->empty()) return false;
      bool b = (*input)[0] != 0;
      input->remove_prefix(1);
      out->v_.emplace<bool>(b);
      return true;
    }
    case ValueType::kInt64: {
      int64_t v;
      if (!GetVarSigned64(input, &v)) return false;
      out->v_.emplace<int64_t>(v);
      return true;
    }
    case ValueType::kDouble: {
      uint64_t u;
      if (!GetFixed64(input, &u)) return false;
      out->v_.emplace<double>(std::bit_cast<double>(u));
      return true;
    }
    case ValueType::kDecimal: {
      int64_t v;
      if (!GetVarSigned64(input, &v)) return false;
      out->v_.emplace<Decimal>(Decimal{v});
      return true;
    }
    case ValueType::kString: {
      Slice s;
      if (!GetLengthPrefixed(input, &s)) return false;
      if (auto* str = std::get_if<std::string>(&out->v_)) {
        str->assign(s.data(), s.size());
      } else {
        out->v_.emplace<std::string>(s.data(), s.size());
      }
      return true;
    }
    case ValueType::kTimestamp: {
      int64_t v;
      if (!GetVarSigned64(input, &v)) return false;
      out->v_.emplace<TsRepr>(TsRepr{v});
      return true;
    }
  }
  return false;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[32];
      snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kDecimal:
      return AsDecimal().ToString();
    case ValueType::kString:
      return AsString();
    case ValueType::kTimestamp:
      return std::to_string(AsTimestamp());
  }
  return "?";
}

size_t Value::ByteSize() const {
  size_t base = sizeof(Value);
  if (type() == ValueType::kString) base += AsString().capacity();
  return base;
}

size_t Value::HashCode() const {
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return AsBool() ? 1 : 2;
    case ValueType::kString:
      return std::hash<std::string>{}(AsString());
    case ValueType::kTimestamp:
      return std::hash<int64_t>{}(AsTimestamp());
    default: {
      // Hash numerics by magnitude so Int(5), Dec(5), Double(5) collide
      // (they compare equal, so they must hash equal).
      double d = NumericValue();
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
  }
}

}  // namespace sebdb
