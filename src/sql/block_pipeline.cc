#include "sql/block_pipeline.h"

#include <algorithm>
#include <iterator>

namespace sebdb {
namespace sql_internal {

Row TxnToRow(const Transaction& txn, int num_columns) {
  Row row;
  row.reserve(num_columns);
  for (int i = 0; i < num_columns; i++) row.push_back(txn.GetColumn(i));
  return row;
}

Status ProbePositions(BlockId bid, const std::vector<PositionProbe>& probes,
                      std::vector<uint32_t>* out) {
  out->clear();
  std::vector<uint32_t> found, both;
  for (size_t p = 0; p < probes.size(); p++) {
    const PositionProbe& probe = probes[p];
    found.clear();
    Status s = probe.index->SearchBlock(bid, probe.lo, probe.hi, &found);
    if (!s.ok()) return s;
    // A range comes back in (value, position) order; intersect in position
    // order.
    std::sort(found.begin(), found.end());
    if (p == 0) {
      out->swap(found);
    } else {
      both.clear();
      std::set_intersection(out->begin(), out->end(), found.begin(),
                            found.end(), std::back_inserter(both));
      out->swap(both);
    }
    if (out->empty()) break;
  }
  return Status::OK();
}

Status RowFilter::Keep(Row row, RowVec* out) const {
  if (where != nullptr) {
    bool ok;
    Status s = EvalPredicate(*where, bindings, row, params, &ok);
    if (!s.ok() || !ok) return s;
  }
  out->push_back(std::move(row));
  return Status::OK();
}

Status BlockPipeline::ForEachTxn(BlockId bid,
                                 const std::vector<uint32_t>* positions,
                                 const TxnVisitor& visit) const {
  if (positions == nullptr) {
    std::shared_ptr<const Block> block;
    Status s = store_->ReadBlock(bid, &block);
    if (!s.ok()) return s;
    for (const auto& txn : block->transactions()) {
      s = visit(txn);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }
  for (uint32_t position : *positions) {
    std::shared_ptr<const Transaction> txn;
    Status s = store_->ReadTransaction(bid, position, &txn);
    if (!s.ok()) return s;
    s = visit(*txn);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status BlockPipeline::Collect(const Bitmap& candidates,
                              const std::vector<PositionProbe>& probes,
                              const RowMaker& make_row, RowVec* out) const {
  const std::vector<size_t> bids = candidates.SetBits();
  return Run(
      bids.size(),
      [&](size_t i, RowVec* rows) -> Status {
        auto visit = [&](const Transaction& txn) {
          return make_row(txn, rows);
        };
        if (probes.empty()) return ForEachTxn(bids[i], nullptr, visit);
        std::vector<uint32_t> positions;
        Status s = ProbePositions(bids[i], probes, &positions);
        if (!s.ok()) return s;
        return ForEachTxn(bids[i], &positions, visit);
      },
      out);
}

}  // namespace sql_internal
}  // namespace sebdb
