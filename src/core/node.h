// SebdbNode: a full node — chain state, pluggable consensus, gossip,
// query processing, access control, and the server side of the thin-client
// authenticated-query protocol (paper Fig. 2's five layers wired together).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "auth/ali.h"
#include "common/clock.h"
#include "consensus/engine.h"
#include "core/access_control.h"
#include "core/chain_manager.h"
#include "core/repair.h"
#include "core/signer.h"
#include "network/gossip.h"
#include "network/rpc.h"
#include "network/network.h"
#include "offchain/offchain_db.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace sebdb {

enum class ConsensusKind { kKafka, kTendermint };

/// Chain options a full node defaults to (tests construct ChainOptions
/// directly and opt in per-feature): LRU caches on, and the process-wide
/// thread pool driving parallel scans, startup replay, and concurrent
/// signature verification.
ChainOptions DefaultNodeChainOptions();

struct NodeOptions {
  std::string node_id;
  std::string data_dir;
  ConsensusKind consensus = ConsensusKind::kKafka;
  /// Replica set; for Kafka the broker defaults to participants[0].
  std::vector<std::string> participants;
  std::string kafka_broker;
  ConsensusOptions consensus_options;
  ChainOptions chain = DefaultNodeChainOptions();
  bool enable_gossip = true;
  GossipOptions gossip;
  /// Peer-assisted repair + checkpoint state sync (DESIGN.md §12). Repair
  /// rides on gossip height observations, so it is inert without gossip.
  bool enable_repair = true;
  RepairOptions repair;
  /// How long a blocking write waits for its commit; also the deadline of a
  /// deferred thin.submit reply (answered TimedOut after it).
  int64_t write_timeout_millis = 30000;
  /// Thin-client RPC server bounds. The default (workers = 0) keeps the
  /// historical inline dispatch; nodes that expect thin-client load enable
  /// the bounded queue so overload sheds instead of piling up.
  RpcServerOptions rpc_server;
};

class SebdbNode : public GossipDelegate {
 public:
  /// `keystore` holds every identity's signing secret (shared directory);
  /// `offchain` is this site's private RDBMS (may be nullptr).
  SebdbNode(NodeOptions options, KeyStore* keystore, OffchainDb* offchain);
  ~SebdbNode() override;

  /// Opens the chain, registers on the network, starts consensus and gossip.
  Status Start(Network* network);
  void Stop();

  const std::string& node_id() const { return options_.node_id; }

  /// Executes one SQL statement. Reads run locally; INSERT / CREATE TABLE
  /// become signed transactions, go through consensus, and return once
  /// committed and applied on this node.
  Status ExecuteSql(std::string_view sql, const ExecOptions& options,
                    ResultSet* result);

  /// Builds and signs an INSERT transaction on behalf of `identity` (which
  /// must exist in the keystore). Values are type-checked against the
  /// schema; ints are widened to decimal/double columns.
  Status MakeInsertTransaction(const std::string& identity,
                               const std::string& table,
                               std::vector<Value> values, Transaction* out);

  /// Submits a signed transaction; blocks until it commits locally.
  Status SubmitAndWait(Transaction txn);
  /// Submits every transaction at once, then blocks until all commit (or
  /// write_timeout_millis passes). Returns the first non-OK status in input
  /// order; a failed txn does not withdraw the others.
  Status SubmitAllAndWait(std::vector<Transaction> txns);
  /// Fire-and-forget variant with completion callback (write benchmark).
  Status SubmitAsync(Transaction txn, std::function<void(Status)> done);

  /// Mempool depth/bytes and admission counters from the consensus engine
  /// (empty when this node is not a participant). Surfaced next to
  /// CacheStats/RecoveryStats so operators see all three pressure gauges in
  /// one place.
  MempoolStats mempool_stats() const;
  /// Current overload state of this node's admission controller.
  OverloadState overload_state() const;
  /// RPC server queue counters (all zero in inline dispatch mode).
  RpcServerStats rpc_stats() const;
  /// Checkpoint buffer-pool counters (hits/misses/evictions/occupancy) and
  /// how the last Open reached serving (checkpoint height + tail replay vs
  /// full rebuild) — the persistence-side pressure gauges.
  BufferManager::Stats buffer_stats() const { return chain_.buffer_stats(); }
  ChainManager::StartupStats startup_stats() const {
    return chain_.startup_stats();
  }

  ChainManager& chain() { return chain_; }
  /// The current executor; invalidated by a checkpoint state sync (use
  /// ExecuteSql, which snapshots, unless the node is known quiescent).
  Executor* executor() { return executor_snapshot().get(); }
  AccessControl* access_control() { return &access_control_; }
  ConsensusEngine* consensus() { return engine_.get(); }
  GossipAgent* gossip() { return gossip_.get(); }
  RepairCoordinator* repair() { return repair_.get(); }

  /// Repair/state-sync counters (empty when repair is disabled).
  RepairStats repair_stats() const;
  ChainManager::StateSyncStats state_sync_stats() const {
    return chain_.state_sync_stats();
  }

  // --- thin-client server API (in-process "RPC") ---

  Status GetHeaders(BlockId from, std::vector<BlockHeader>* out);
  Status GetRawBlock(BlockId height, std::string* record);

  /// Phase 1 of the authenticated range query over table.column (the ALI
  /// must exist). The response pins the current chain height.
  Status AuthProveRange(const std::string& table, const std::string& column,
                        const Value* lo, const Value* hi,
                        AuthQueryResponse* out);
  /// Phase 2: the auxiliary node's digest at the pinned height.
  Status AuthDigestRange(const std::string& table, const std::string& column,
                         const Value* lo, const Value* hi, uint64_t height,
                         Hash256* digest);
  /// Phase 1/2 of the authenticated one-dimension tracking query (OPERATOR
  /// via the SenID ALI when `by_sender`, OPERATION via the Tname ALI). An
  /// optional time window restricts the visited blocks; because block
  /// timestamps are deterministic, every node derives the same window
  /// bitmap, so the digests still agree.
  Status AuthProveTrace(bool by_sender, const std::string& key,
                        AuthQueryResponse* out,
                        const Timestamp* window_start = nullptr,
                        const Timestamp* window_end = nullptr);
  Status AuthDigestTrace(bool by_sender, const std::string& key,
                         uint64_t height, Hash256* digest,
                         const Timestamp* window_start = nullptr,
                         const Timestamp* window_end = nullptr);

  // --- GossipDelegate ---
  uint64_t ChainHeight() override;
  Status GetBlockRecord(BlockId height, std::string* record) override;
  Status ApplyBlockRecord(BlockId height, const std::string& record) override;
  void OnPeerAdvertisedHeight(const std::string& peer,
                              uint64_t height) override;

 private:
  void OnMessage(const Message& message);
  /// A state sync retired the chain's index set: rebind the executor to the
  /// restored one. In-flight queries keep the old executor alive via the
  /// shared_ptr snapshot (and the chain retires the old indexes, not frees).
  void RefreshExecutorAfterStateSync();
  std::shared_ptr<Executor> executor_snapshot() const;
  void OnBatchCommitted(uint64_t seq, std::vector<Transaction> txns);
  void SetupRpcMethods();
  Status ExecInsert(const InsertStmt& stmt, const ExecOptions& options,
                    ResultSet* result);
  Status ExecCreateTable(const CreateTableStmt& stmt, ResultSet* result);

  NodeOptions options_;
  KeyStore* keystore_;
  OffchainDb* offchain_db_;
  std::unique_ptr<LocalOffchainConnector> offchain_connector_;
  ChainManager chain_;
  mutable Mutex executor_mu_;
  std::shared_ptr<Executor> executor_ GUARDED_BY(executor_mu_);
  AccessControl access_control_;
  Network* network_ = nullptr;
  std::unique_ptr<ConsensusEngine> engine_;
  std::unique_ptr<GossipAgent> gossip_;
  std::unique_ptr<RepairCoordinator> repair_;
  // Serves the thin-client API over the network (see thin_client_transport).
  RpcDispatcher rpc_dispatcher_;
  /// Peer-up catch-up trigger (0 = not subscribed): a reconnected peer gets
  /// an immediate anti-entropy round instead of waiting out the interval.
  uint64_t peer_watcher_token_ = 0;
  bool started_ = false;
};

}  // namespace sebdb
