// Pluggable consensus (paper §III-B: "SEBDB uses plug-in pattern, allowing
// users to select different consensus protocol"; the evaluation runs KAFKA
// and Tendermint, the two engines built here). An engine ingests client
// transactions, agrees on an order, cuts batches (by size or timeout — the
// write benchmark sets 200 transactions / 200 ms), and delivers committed
// batches to the node in strict sequence order. The node turns each batch
// into a block.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/admission.h"
#include "common/status.h"
#include "types/transaction.h"

namespace sebdb {

struct ConsensusOptions {
  /// Cut a batch once it holds this many transactions...
  uint32_t max_batch_txns = 200;
  /// ...or once this much real time elapsed since the first queued txn.
  int64_t batch_timeout_millis = 200;
  /// Per-transaction admission check (signature verification etc.).
  std::function<Status(const Transaction&)> validator;
  /// First batch sequence this engine assigns/delivers. A restarted node
  /// passes its recovered chain height - 1 so new batches extend the chain
  /// instead of colliding with already-applied heights (which the chain
  /// manager would silently treat as duplicates).
  uint64_t start_sequence = 0;
  /// Caps on the engine's ingress queue (mempool / orderer pending queue).
  /// Every engine charges transactions against an AdmissionController built
  /// from these options before enqueueing them.
  AdmissionOptions admission;
};

/// Called on each node, in strictly increasing `seq` (0, 1, 2, ...), with the
/// agreed transaction batch. The node packages the batch into block `seq`+1
/// (block 0 being the genesis block).
using BatchCommitFn =
    std::function<void(uint64_t seq, std::vector<Transaction> txns)>;

/// Snapshot of an engine's ingress queue, surfaced through SebdbNode stats
/// next to CacheStats/RecoveryStats.
struct MempoolStats {
  uint64_t depth = 0;  // transactions queued awaiting ordering
  uint64_t bytes = 0;  // encoded bytes charged against the admission cap
  AdmissionStats admission;
};

class ConsensusEngine {
 public:
  virtual ~ConsensusEngine() = default;

  virtual std::string name() const = 0;
  virtual Status Start() = 0;
  virtual void Stop() = 0;

  /// Submits a client transaction. `done` fires on this node once the
  /// transaction is committed (or with an error) — the response the write
  /// benchmark's closed-loop clients wait for.
  virtual Status Submit(Transaction txn, std::function<void(Status)> done) = 0;

  /// Batches delivered so far on this node.
  virtual uint64_t committed_batches() const = 0;

  /// Ingress-queue and admission counters for this node.
  virtual MempoolStats mempool_stats() const { return MempoolStats(); }

  /// Notifies the engine that `txns` were committed outside its delivery
  /// path (the node applied a block learned through gossip anti-entropy,
  /// e.g. after a healed partition). The engine resolves matching pending
  /// submissions (fires their done callbacks with OK) and releases their
  /// admission charges, so clients on a partitioned-then-healed node do not
  /// hang on transactions that committed while delivery messages were lost.
  virtual void OnExternalCommit(const std::vector<Transaction>& /*txns*/) {}
};

/// Wire helpers shared by the engines.
void EncodeBatch(const std::vector<Transaction>& txns, std::string* dst);
Status DecodeBatch(Slice* input, std::vector<Transaction>* out);
/// Content digest used by Tendermint votes.
Hash256 BatchDigest(const std::string& encoded_batch);

}  // namespace sebdb
