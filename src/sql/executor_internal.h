// Shared helpers between executor.cc and executor_join.cc. Internal to the
// sql module.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/layered_index.h"
#include "offchain/offchain_db.h"
#include "types/schema.h"
#include "types/value.h"

namespace sebdb {
namespace sql_internal {

inline std::vector<std::string> SchemaColumnNames(const Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.num_columns());
  for (const auto& col : schema.columns()) names.push_back(col.name);
  return names;
}

inline std::vector<std::string> OffchainColumnNames(
    const std::vector<ColumnDef>& columns) {
  std::vector<std::string> names;
  names.reserve(columns.size());
  for (const auto& col : columns) names.push_back(col.name);
  return names;
}

inline Bitmap AllBlocksBitmap(uint64_t n) {
  Bitmap b(n);
  for (uint64_t i = 0; i < n; i++) b.Set(i);
  return b;
}

/// The parallel scan primitive: produce(i, &out[i]) fills a private buffer
/// for candidate i (block read + decode + predicate), fanned out across the
/// pool; the caller then consumes `outputs` in candidate order, so results
/// are byte-identical to the serial loop. A nullptr pool runs the exact
/// serial loop (same code path, early exit on error).
template <typename T, typename Fn>
Status ParallelMapOrdered(ThreadPool* pool, size_t n, const Fn& produce,
                          std::vector<T>* outputs) {
  outputs->clear();
  outputs->resize(n);
  return ParallelForStatus(pool, n, [&](uint64_t i) -> Status {
    return produce(static_cast<size_t>(i), &(*outputs)[i]);
  });
}

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

std::vector<ValueRange> BucketRangesOf(const LayeredIndex& index, BlockId bid);
bool RangesOverlap(const ValueRange& a, const ValueRange& b);
/// intersect(b_r, b_s) for continuous join attributes (paper Alg. 2).
bool BlocksIntersectContinuous(const LayeredIndex& ir, BlockId br,
                               const LayeredIndex& is, BlockId bs);
/// intersect(b_r, (lo, hi)) for the on-off join (paper Alg. 3).
bool BlockIntersectsRange(const LayeredIndex& index, BlockId bid,
                          const Value& lo, const Value& hi);

}  // namespace sql_internal
}  // namespace sebdb
