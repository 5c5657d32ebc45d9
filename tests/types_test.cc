// Unit tests for src/types: Value, Decimal, Schema, Transaction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "types/schema.h"
#include "types/transaction.h"
#include "types/value.h"

namespace sebdb {
namespace {

TEST(DecimalTest, ParsePrintRoundTrip) {
  const char* cases[] = {"0", "1", "-1", "100.25", "-3.1415", "42.5", "0.0001"};
  for (const char* text : cases) {
    Decimal d;
    ASSERT_TRUE(Decimal::FromString(text, &d).ok()) << text;
    Decimal back;
    ASSERT_TRUE(Decimal::FromString(d.ToString(), &back).ok());
    EXPECT_EQ(back, d) << text;
  }
  Decimal d;
  ASSERT_TRUE(Decimal::FromString("100.25", &d).ok());
  EXPECT_EQ(d.scaled, 1002500);
  EXPECT_EQ(d.ToString(), "100.25");
  EXPECT_DOUBLE_EQ(d.ToDouble(), 100.25);
}

TEST(DecimalTest, TruncatesExtraFractionDigits) {
  Decimal d;
  ASSERT_TRUE(Decimal::FromString("1.123456", &d).ok());
  EXPECT_EQ(d.scaled, 11234);
}

TEST(DecimalTest, RejectsMalformed) {
  Decimal d;
  EXPECT_FALSE(Decimal::FromString("", &d).ok());
  EXPECT_FALSE(Decimal::FromString("abc", &d).ok());
  EXPECT_FALSE(Decimal::FromString("1.2.3", &d).ok());
  EXPECT_FALSE(Decimal::FromString(".", &d).ok());
  EXPECT_FALSE(Decimal::FromString("-", &d).ok());
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
  EXPECT_EQ(Value::Ts(123).AsTimestamp(), 123);
  EXPECT_TRUE(Value::Int(1).IsNumeric());
  EXPECT_TRUE(Value::Dec(Decimal::FromInt(1)).IsNumeric());
  EXPECT_FALSE(Value::Str("1").IsNumeric());
}

TEST(ValueTest, CrossNumericComparison) {
  int cmp;
  ASSERT_TRUE(Value::Int(5).Compare(Value::Dec(Decimal::FromInt(5)), &cmp).ok());
  EXPECT_EQ(cmp, 0);
  ASSERT_TRUE(Value::Int(5).Compare(Value::Double(5.5), &cmp).ok());
  EXPECT_LT(cmp, 0);
  ASSERT_TRUE(
      Value::Dec(Decimal::FromDouble(10.5)).Compare(Value::Int(10), &cmp).ok());
  EXPECT_GT(cmp, 0);
}

TEST(ValueTest, IncomparableTypesFail) {
  int cmp;
  EXPECT_FALSE(Value::Int(1).Compare(Value::Str("1"), &cmp).ok());
  EXPECT_FALSE(Value::Bool(true).Compare(Value::Int(1), &cmp).ok());
  // But the total order never fails.
  EXPECT_NE(Value::Int(1).CompareTotal(Value::Str("1")), 0);
}

TEST(ValueTest, NullComparesLowest) {
  int cmp;
  ASSERT_TRUE(Value::Null().Compare(Value::Int(0), &cmp).ok());
  EXPECT_LT(cmp, 0);
  ASSERT_TRUE(Value::Null().Compare(Value::Null(), &cmp).ok());
  EXPECT_EQ(cmp, 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value::Str("apple").CompareTotal(Value::Str("banana")), 0);
  EXPECT_EQ(Value::Str("x").CompareTotal(Value::Str("x")), 0);
  EXPECT_GT(Value::Str("zz").CompareTotal(Value::Str("z")), 0);
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(INT64_MIN),
      Value::Int(INT64_MAX),
      Value::Int(0),
      Value::Double(3.14159),
      Value::Double(-0.0),
      Value::Dec(Decimal::FromDouble(-123.4567)),
      Value::Str(""),
      Value::Str("hello world"),
      Value::Ts(1718000000000000),
  };
  std::string buf;
  for (const auto& v : values) v.EncodeTo(&buf);
  Slice input(buf);
  for (const auto& expected : values) {
    Value got;
    ASSERT_TRUE(Value::DecodeFrom(&input, &got));
    EXPECT_EQ(got.CompareTotal(expected), 0) << expected.ToString();
    EXPECT_EQ(got.type(), expected.type());
  }
  EXPECT_TRUE(input.empty());
}

TEST(ValueTest, DecodeTruncatedFails) {
  std::string buf;
  Value::Str("hello").EncodeTo(&buf);
  Slice input(buf.data(), buf.size() - 2);
  Value v;
  EXPECT_FALSE(Value::DecodeFrom(&input, &v));
}

TEST(ValueTest, EqualValuesHashEqual) {
  // Hash-join correctness: values that compare equal must hash equal.
  EXPECT_EQ(Value::Int(5).HashCode(),
            Value::Dec(Decimal::FromInt(5)).HashCode());
  EXPECT_EQ(Value::Int(7).HashCode(), Value::Double(7.0).HashCode());
  EXPECT_EQ(Value::Str("abc").HashCode(), Value::Str("abc").HashCode());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Dec(Decimal::FromDouble(10.5)).ToString(), "10.5");
}

TEST(ValueTypeTest, ParseNames) {
  ValueType t;
  EXPECT_TRUE(ParseValueType("string", &t));
  EXPECT_EQ(t, ValueType::kString);
  EXPECT_TRUE(ParseValueType("varchar", &t));
  EXPECT_EQ(t, ValueType::kString);
  EXPECT_TRUE(ParseValueType("int", &t));
  EXPECT_EQ(t, ValueType::kInt64);
  EXPECT_TRUE(ParseValueType("decimal", &t));
  EXPECT_EQ(t, ValueType::kDecimal);
  EXPECT_TRUE(ParseValueType("timestamp", &t));
  EXPECT_FALSE(ParseValueType("blob", &t));
}

TEST(SchemaTest, SystemColumnsPrepended) {
  Schema schema;
  ASSERT_TRUE(Schema::Create("Donate",
                             {{"donor", ValueType::kString},
                              {"project", ValueType::kString},
                              {"amount", ValueType::kDecimal}},
                             &schema)
                  .ok());
  EXPECT_EQ(schema.table_name(), "donate");  // lowercased
  EXPECT_EQ(schema.num_columns(), 8);
  EXPECT_EQ(schema.num_app_columns(), 3);
  EXPECT_EQ(schema.columns()[0].name, "tid");
  EXPECT_EQ(schema.columns()[4].name, "tname");
  EXPECT_EQ(schema.columns()[5].name, "donor");
  EXPECT_EQ(schema.ColumnIndex("AMOUNT"), 7);  // case-insensitive
  EXPECT_EQ(schema.ColumnIndex("missing"), -1);
  EXPECT_TRUE(schema.IsSystemColumn(2));
  EXPECT_FALSE(schema.IsSystemColumn(5));
}

TEST(SchemaTest, RejectsReservedAndDuplicateNames) {
  Schema schema;
  EXPECT_FALSE(
      Schema::Create("t", {{"tid", ValueType::kInt64}}, &schema).ok());
  EXPECT_FALSE(Schema::Create("t",
                              {{"a", ValueType::kInt64},
                               {"a", ValueType::kString}},
                              &schema)
                   .ok());
  EXPECT_FALSE(Schema::Create("", {}, &schema).ok());
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema schema;
  ASSERT_TRUE(Schema::Create("transfer",
                             {{"project", ValueType::kString},
                              {"amount", ValueType::kDecimal}},
                             &schema)
                  .ok());
  std::string buf;
  schema.EncodeTo(&buf);
  Slice input(buf);
  Schema decoded;
  ASSERT_TRUE(Schema::DecodeFrom(&input, &decoded).ok());
  EXPECT_EQ(decoded, schema);
}

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction txn("donate", {Value::Str("Jack"), Value::Str("Education"),
                             Value::Dec(Decimal::FromInt(100))});
  txn.set_tid(42);
  txn.set_ts(1234567);
  txn.set_sender("client-1");
  txn.set_signature("deadbeef");

  std::string buf;
  txn.EncodeTo(&buf);
  Slice input(buf);
  Transaction decoded;
  ASSERT_TRUE(Transaction::DecodeFrom(&input, &decoded).ok());
  EXPECT_EQ(decoded, txn);
  EXPECT_TRUE(input.empty());
}

TEST(TransactionTest, SystemColumnAccess) {
  Transaction txn("donate", {Value::Str("Jack")});
  txn.set_tid(7);
  txn.set_ts(99);
  txn.set_sender("s");
  txn.set_signature("sig");
  EXPECT_EQ(txn.GetColumn(0).AsInt(), 7);
  EXPECT_EQ(txn.GetColumn(1).AsTimestamp(), 99);
  EXPECT_EQ(txn.GetColumn(2).AsString(), "sig");
  EXPECT_EQ(txn.GetColumn(3).AsString(), "s");
  EXPECT_EQ(txn.GetColumn(4).AsString(), "donate");
  EXPECT_EQ(txn.GetColumn(5).AsString(), "Jack");
  EXPECT_TRUE(txn.GetColumn(6).is_null());  // past the end
}

TEST(TransactionTest, GetColumnByName) {
  Schema schema;
  ASSERT_TRUE(
      Schema::Create("donate", {{"donor", ValueType::kString}}, &schema).ok());
  Transaction txn("donate", {Value::Str("Jack")});
  txn.set_sender("s1");
  Value v;
  ASSERT_TRUE(txn.GetColumnByName(schema, "donor", &v).ok());
  EXPECT_EQ(v.AsString(), "Jack");
  ASSERT_TRUE(txn.GetColumnByName(schema, "senid", &v).ok());
  EXPECT_EQ(v.AsString(), "s1");
  EXPECT_TRUE(txn.GetColumnByName(schema, "nope", &v).IsNotFound());
}

TEST(TransactionTest, SigningPayloadExcludesTidAndSignature) {
  Transaction a("t", {Value::Int(1)});
  a.set_ts(5);
  a.set_sender("x");
  Transaction b = a;
  b.set_tid(999);
  b.set_signature("different");
  EXPECT_EQ(a.SigningPayload(), b.SigningPayload());
  // ...but the full hash covers them.
  EXPECT_NE(a.Hash(), b.Hash());
}

Value RandomValue(Random* rng) {
  switch (rng->Uniform(7)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Uniform(2) == 1);
    case 2:
      return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3:
      return Value::Double(rng->NextDouble() * 1e6);
    case 4:
      return Value::Dec(Decimal{static_cast<int64_t>(rng->Uniform(1000000))});
    case 5:
      return Value::Str(std::string(rng->Uniform(40), 'a' + rng->Uniform(26)));
    default:
      return Value::Ts(static_cast<Timestamp>(rng->Uniform(1u << 30)));
  }
}

std::string EncodeValue(const Value& v) {
  std::string enc;
  v.EncodeTo(&enc);
  return enc;
}

TEST(TransactionTest, DecodeColumnMatchesFullDecode) {
  Random rng(15);
  for (int trial = 0; trial < 100; trial++) {
    std::vector<Value> values;
    for (uint64_t i = rng.Uniform(6); i > 0; i--) {
      values.push_back(RandomValue(&rng));
    }
    Transaction txn("t" + std::to_string(trial), values);
    txn.set_tid(rng.Next());
    txn.set_ts(static_cast<Timestamp>(rng.Uniform(1u << 30)));
    txn.set_sender("sender-" + std::to_string(rng.Uniform(100)));
    txn.set_signature(std::string(rng.Uniform(64), 's'));

    // Where each column's encoding ends, built field by field.
    std::string enc;
    std::vector<size_t> column_end;
    PutVarint64(&enc, txn.tid());
    column_end.push_back(enc.size());
    PutVarSigned64(&enc, txn.ts());
    column_end.push_back(enc.size());
    for (const std::string& field :
         {txn.signature(), txn.sender(), txn.tname()}) {
      PutLengthPrefixed(&enc, field);
      column_end.push_back(enc.size());
    }
    PutVarint32(&enc, static_cast<uint32_t>(values.size()));
    for (const Value& v : values) {
      v.EncodeTo(&enc);
      column_end.push_back(enc.size());
    }
    std::string full;
    txn.EncodeTo(&full);
    ASSERT_EQ(enc, full);

    Transaction decoded;
    Slice input(full);
    ASSERT_TRUE(Transaction::DecodeFrom(&input, &decoded).ok());
    const int columns = static_cast<int>(column_end.size());
    for (int index = -1; index <= columns; index++) {
      Value got;
      ASSERT_TRUE(Transaction::DecodeColumn(full, index, &got).ok());
      EXPECT_EQ(EncodeValue(got), EncodeValue(decoded.GetColumn(index)))
          << "trial " << trial << " column " << index;
      if (index < 0 || index >= columns) continue;
      // The column's own bytes suffice; one byte fewer is Corruption.
      const size_t end = column_end[index];
      ASSERT_TRUE(
          Transaction::DecodeColumn(Slice(full.data(), end), index, &got).ok());
      EXPECT_EQ(EncodeValue(got), EncodeValue(decoded.GetColumn(index)));
      EXPECT_TRUE(
          Transaction::DecodeColumn(Slice(full.data(), end - 1), index, &got)
              .IsCorruption())
          << "trial " << trial << " column " << index;
    }
  }
}

TEST(TransactionTest, HashChangesWithContent) {
  Transaction a("t", {Value::Int(1)});
  Transaction b("t", {Value::Int(2)});
  EXPECT_NE(a.Hash(), b.Hash());
}

}  // namespace
}  // namespace sebdb
