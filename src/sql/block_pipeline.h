// The candidate-block query pipeline (paper §V, Algs. 1-3). SELECT, TRACE
// and every join strategy run in one shape: a first-level bitmap picks
// candidate blocks, and each block is either read whole and filtered, or
// probed at its second level and its result positions random-read. Three
// pieces make that shape:
//   - the ordered runner (Map / Run): units (blocks or block pairs) fan out
//     over the pool into private buffers that are joined back in unit order,
//     so output is byte-identical to the serial loop;
//   - the position probe (ProbePositions): the positions of one block that
//     a list of (index, lo, hi) probes all match, ascending;
//   - the row source (ForEachTxn): the executor's one caller of
//     BlockStore::ReadBlock and ReadTransaction.
// Within a block, rows come out in ascending position on every path, so
// scan, bitmap and layered plans return identical row order.
#pragma once

#include <functional>
#include <vector>

#include "common/bitmap.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/layered_index.h"
#include "sql/eval.h"
#include "storage/block_store.h"
#include "types/value.h"

namespace sebdb {
namespace sql_internal {

using Row = std::vector<Value>;
using RowVec = std::vector<Row>;

/// The candidate set of a plan without a first-level filter: every block.
inline Bitmap AllBlocksBitmap(uint64_t n) {
  Bitmap b(n);
  for (uint64_t i = 0; i < n; i++) b.Set(i);
  return b;
}

/// A transaction as a full schema row (system + app columns).
Row TxnToRow(const Transaction& txn, int num_columns);

/// One second-level probe: positions whose `index` value lies in [lo, hi]
/// (a null bound is open).
struct PositionProbe {
  const LayeredIndex* index;
  const Value* lo;
  const Value* hi;
};

/// The positions of block `bid` that every probe matches, ascending.
Status ProbePositions(BlockId bid, const std::vector<PositionProbe>& probes,
                      std::vector<uint32_t>* out);

/// The statement's WHERE over assembled rows; without one every row passes.
struct RowFilter {
  const Expr* where;
  const ColumnBindings& bindings;
  const std::vector<Value>& params;

  /// Appends `row` to *out when it passes.
  Status Keep(Row row, RowVec* out) const;
};

class BlockPipeline {
 public:
  using TxnVisitor = std::function<Status(const Transaction&)>;
  /// Turns one transaction into zero or more rows appended to the buffer.
  using RowMaker = std::function<Status(const Transaction&, RowVec*)>;

  BlockPipeline(BlockStore* store, ThreadPool* pool)
      : store_(store), pool_(pool) {}

  /// produce(i, &(*outputs)[i]) fills a private buffer for unit i, fanned
  /// out across the pool; the caller then consumes `outputs` in unit order.
  /// A nullptr pool runs the exact serial loop (same code path, early exit
  /// on error).
  template <typename T, typename Fn>
  Status Map(size_t n, const Fn& produce, std::vector<T>* outputs) const {
    outputs->clear();
    outputs->resize(n);
    return ParallelForStatus(pool_, n, [&](uint64_t i) -> Status {
      return produce(static_cast<size_t>(i), &(*outputs)[i]);
    });
  }

  /// produce(i, &rows) for each unit i in [0, n); every unit's rows are
  /// appended to *out in unit order.
  template <typename Fn>
  Status Run(size_t n, const Fn& produce, RowVec* out) const {
    std::vector<RowVec> buffers;
    Status s = Map<RowVec>(n, produce, &buffers);
    if (!s.ok()) return s;
    for (auto& buffer : buffers) {
      for (auto& row : buffer) out->push_back(std::move(row));
    }
    return Status::OK();
  }

  /// Row source: visits block `bid`'s transactions at `positions`, in the
  /// order given, one random read each; or, when `positions` is null, reads
  /// the block whole and visits every transaction in order.
  Status ForEachTxn(BlockId bid, const std::vector<uint32_t>* positions,
                    const TxnVisitor& visit) const;

  /// The SELECT / TRACE shape: for each candidate block in order, the
  /// positions `probes` match (the whole block when there are none) become
  /// rows through `make_row`.
  Status Collect(const Bitmap& candidates,
                 const std::vector<PositionProbe>& probes,
                 const RowMaker& make_row, RowVec* out) const;

 private:
  BlockStore* store_;
  ThreadPool* pool_;
};

}  // namespace sql_internal
}  // namespace sebdb
