// Query execution engine (paper §V). Plans and runs SELECT / TRACE /
// GET BLOCK / CREATE INDEX statements against the block store, the index
// set, the catalog and the off-chain connector. Write statements (CREATE
// TABLE, INSERT) become on-chain transactions and are handled by the node
// (core/), not here.
//
// Access paths implement the three methods the paper benchmarks side by
// side (scan / table-level bitmap / layered index), selectable per query
// through ExecOptions for the method-comparison figures. Whatever the
// plan, its rows come from the one candidate-block pipeline
// (sql/block_pipeline.h): a candidate bitmap, zero or more second-level
// position probes per block, and one row source that reads whole blocks or
// single transactions, joined back in candidate order. Rows within a block
// come out in ascending position on every path.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "offchain/offchain_db.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/eval.h"
#include "sql/index_set.h"
#include "sql/result.h"
#include "storage/block_store.h"

namespace sebdb {

enum class AccessPath {
  kAuto,     // layered if usable, else bitmap, else scan
  kScan,     // read every block
  kBitmap,   // table-level bitmap index
  kLayered,  // layered index on the constrained column
};

enum class JoinStrategy {
  kAuto,          // layered-merge if indices exist, else bitmap-hash
  kScanHash,      // hash join over a full chain scan
  kBitmapHash,    // hash join over bitmap-filtered blocks
  kLayeredMerge,  // per-block-pair sort-merge via layered indices (Alg. 2/3)
};

struct ExecOptions {
  AccessPath access_path = AccessPath::kAuto;
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  /// Positional bindings for '?' parameters.
  std::vector<Value> params;
};

class Executor {
 public:
  /// `pool` drives the candidate-block pipeline: candidate blocks fan out to
  /// workers that read + decode + filter into per-block row buffers, merged
  /// back in (block, position) order so output is byte-identical to the
  /// serial path. nullptr executes every query serially.
  Executor(BlockStore* store, IndexSet* indexes, Catalog* catalog,
           OffchainConnector* offchain, ThreadPool* pool = nullptr)
      : store_(store),
        indexes_(indexes),
        catalog_(catalog),
        offchain_(offchain),
        pool_(pool) {}

  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// Executes one parsed statement. EXPLAIN fills only ResultSet::plan.
  Status Execute(const Statement& stmt, const ExecOptions& options,
                 ResultSet* result);

  /// Convenience: parse + execute.
  Status ExecuteSql(std::string_view sql, const ExecOptions& options,
                    ResultSet* result);

 private:
  Status ExecSelect(const SelectStmt& stmt, const ExecOptions& options,
                    bool explain_only, ResultSet* result);
  Status ExecSingleTable(const SelectStmt& stmt, const ExecOptions& options,
                         bool explain_only, ResultSet* result);
  Status ExecOffchainOnly(const SelectStmt& stmt, const ExecOptions& options,
                          bool explain_only, ResultSet* result);
  Status ExecOnChainJoin(const SelectStmt& stmt, const ExecOptions& options,
                         bool explain_only, ResultSet* result);
  Status ExecOnOffJoin(const SelectStmt& stmt, const ExecOptions& options,
                       bool explain_only, ResultSet* result);
  Status ExecTrace(const TraceStmt& stmt, const ExecOptions& options,
                   bool explain_only, ResultSet* result);
  Status ExecGetBlock(const GetBlockStmt& stmt, const ExecOptions& options,
                      bool explain_only, ResultSet* result);
  Status ExecCreateIndex(const CreateIndexStmt& stmt, bool explain_only,
                         ResultSet* result);

  /// Evaluates an optional time window into a block bitmap (nullopt when the
  /// statement has no window).
  Status ResolveWindow(const std::optional<TimeWindow>& window,
                       const std::vector<Value>& params,
                       std::optional<Bitmap>* out) const;

  /// Applies projection to assembled rows (in place on `result`).
  Status Project(const SelectStmt& stmt, const ColumnBindings& bindings,
                 ResultSet* result) const;

  BlockStore* store_;
  IndexSet* indexes_;
  Catalog* catalog_;
  OffchainConnector* offchain_;
  ThreadPool* pool_;
};

}  // namespace sebdb
