#include "core/node.h"

#include "common/clock.h"

#include <algorithm>
#include <cstdio>

#include "consensus/kafka_orderer.h"
#include "consensus/tendermint.h"
#include "common/coding.h"
#include "core/thin_client_transport.h"
#include "sql/eval.h"
#include "storage/block.h"

namespace sebdb {

ChainOptions DefaultNodeChainOptions() {
  ChainOptions chain;
  chain.store.block_cache_bytes = 64ull << 20;
  chain.store.transaction_cache_bytes = 16ull << 20;
  chain.pool = ThreadPool::Default();
  // Periodic checkpoints keep restart-to-serving flat in chain length: every
  // 1024 chained blocks the index state is frozen to page files, and a clean
  // shutdown writes a final checkpoint so the next Open replays no tail.
  chain.checkpoint.interval_blocks = 1024;
  chain.checkpoint.pool_bytes = 64ull << 20;
  chain.checkpoint.checkpoint_on_close = true;
  // A corrupt non-tail segment quarantines instead of refusing to open: the
  // node serves its verified prefix and the repair coordinator refetches the
  // quarantined blocks from peers (DESIGN.md §12).
  chain.store.degraded_open = true;
  return chain;
}

SebdbNode::SebdbNode(NodeOptions options, KeyStore* keystore,
                     OffchainDb* offchain)
    : options_(std::move(options)),
      keystore_(keystore),
      offchain_db_(offchain),
      chain_(options_.node_id,
             options_.chain.verify_signatures ? keystore : nullptr) {
  if (offchain_db_ != nullptr) {
    offchain_connector_ = std::make_unique<LocalOffchainConnector>(offchain_db_);
  }
}

SebdbNode::~SebdbNode() { Stop(); }

Status SebdbNode::Start(Network* network) {
  if (started_) return Status::Busy("node already started");
  network_ = network;

  Status s = chain_.Open(options_.chain, options_.data_dir);
  if (!s.ok()) return s;
  const BlockStore::RecoveryStats recovery = chain_.recovery_stats();
  if (!recovery.clean()) {
    fprintf(stderr,
            "[sebdb] node %s: storage self-healed on startup — %llu block(s) "
            "recovered, %llu torn byte(s) truncated; the chain resumes from "
            "the last durable block and gossip refetches the rest\n",
            options_.node_id.c_str(),
            static_cast<unsigned long long>(recovery.blocks_recovered),
            static_cast<unsigned long long>(recovery.bytes_truncated));
  }
  if (recovery.degraded) {
    fprintf(stderr,
            "[sebdb] node %s: DEGRADED open — %u corrupt segment(s) "
            "quarantined (%llu byte(s)); serving the verified prefix while "
            "peer repair refetches the rest\n",
            options_.node_id.c_str(), recovery.segments_quarantined,
            static_cast<unsigned long long>(recovery.bytes_quarantined));
  }
  const ChainManager::StartupStats startup = chain_.startup_stats();
  if (startup.from_checkpoint) {
    fprintf(stderr,
            "[sebdb] node %s: restored checkpoint at height %llu, replayed "
            "%llu tail block(s)\n",
            options_.node_id.c_str(),
            static_cast<unsigned long long>(startup.checkpoint_height),
            static_cast<unsigned long long>(startup.replayed_blocks));
  } else if (startup.replayed_blocks > 0) {
    fprintf(stderr,
            "[sebdb] node %s: no usable checkpoint — full replay of %llu "
            "block(s)\n",
            options_.node_id.c_str(),
            static_cast<unsigned long long>(startup.replayed_blocks));
  }
  const BufferManager::Stats pool_stats = chain_.buffer_stats();
  if (pool_stats.capacity > 0 && (pool_stats.pages > 0 || pool_stats.hits > 0 ||
                                  pool_stats.misses > 0)) {
    fprintf(stderr,
            "[sebdb] node %s: checkpoint pool %lluMB (usage %llu, pages %llu, "
            "hits %llu, misses %llu, evictions %llu)\n",
            options_.node_id.c_str(),
            static_cast<unsigned long long>(pool_stats.capacity >> 20),
            static_cast<unsigned long long>(pool_stats.usage),
            static_cast<unsigned long long>(pool_stats.pages),
            static_cast<unsigned long long>(pool_stats.hits),
            static_cast<unsigned long long>(pool_stats.misses),
            static_cast<unsigned long long>(pool_stats.evictions));
  }
  const BlockStore::CacheStats caches = chain_.cache_stats();
  if (chain_.height() > 1 &&
      (caches.block_capacity > 0 || caches.txn_capacity > 0)) {
    // Replay warms the block cache; report what startup left behind.
    fprintf(stderr,
            "[sebdb] node %s: caches block=%lluMB (usage %llu, hits %llu, "
            "misses %llu) txn=%lluMB (usage %llu, hits %llu, misses %llu)\n",
            options_.node_id.c_str(),
            static_cast<unsigned long long>(caches.block_capacity >> 20),
            static_cast<unsigned long long>(caches.block_usage),
            static_cast<unsigned long long>(caches.block_hits),
            static_cast<unsigned long long>(caches.block_misses),
            static_cast<unsigned long long>(caches.txn_capacity >> 20),
            static_cast<unsigned long long>(caches.txn_usage),
            static_cast<unsigned long long>(caches.txn_hits),
            static_cast<unsigned long long>(caches.txn_misses));
  }
  {
    MutexLock lock(&executor_mu_);
    executor_ = std::make_shared<Executor>(chain_.store(), chain_.indexes(),
                                           chain_.catalog(),
                                           offchain_connector_.get(),
                                           options_.chain.pool);
  }

  SetupRpcMethods();
  rpc_dispatcher_.Start(options_.rpc_server);

  // Consensus engine (only when this node is a participant).
  bool participant =
      std::find(options_.participants.begin(), options_.participants.end(),
                options_.node_id) != options_.participants.end();
  if (participant) {
    ConsensusOptions consensus_options = options_.consensus_options;
    // Resume consensus sequencing where the recovered chain left off: block
    // at height h was built from batch seq h-1, so the next batch is
    // height-1. Without this a restarted node re-assigns old sequences and
    // the chain manager drops the batches as already applied.
    consensus_options.start_sequence = chain_.height() - 1;
    if (!consensus_options.validator && keystore_ != nullptr) {
      const KeyStore* keystore = keystore_;
      consensus_options.validator = [keystore](const Transaction& txn) {
        return keystore->VerifyTransaction(txn);
      };
    }
    BatchCommitFn commit = [this](uint64_t seq,
                                  std::vector<Transaction> txns) {
      OnBatchCommitted(seq, std::move(txns));
    };
    switch (options_.consensus) {
      case ConsensusKind::kKafka: {
        std::string broker = options_.kafka_broker.empty()
                                 ? options_.participants.front()
                                 : options_.kafka_broker;
        engine_ = std::make_unique<KafkaOrderer>(
            options_.node_id, broker, options_.participants, network_,
            consensus_options, commit);
        break;
      }
      case ConsensusKind::kTendermint:
        engine_ = std::make_unique<TendermintEngine>(
            options_.node_id, options_.participants, network_,
            consensus_options, commit);
        break;
    }
  }

  std::vector<std::string> peers;
  for (const auto& peer : options_.participants) {
    if (peer != options_.node_id) peers.push_back(peer);
  }
  if (options_.enable_gossip) {
    gossip_ = std::make_unique<GossipAgent>(options_.node_id, network_, this,
                                            peers, options_.gossip);
  }
  if (options_.enable_repair) {
    RepairOptions repair_options = options_.repair;
    // Without gossip there is no anti-entropy to absorb small gaps: the
    // coordinator is the only healer, so it must take any gap.
    if (!options_.enable_gossip) repair_options.heal_all_gaps = true;
    repair_ = std::make_unique<RepairCoordinator>(
        options_.node_id, network_, this, &chain_, std::move(peers),
        repair_options, [this] { RefreshExecutorAfterStateSync(); });
    if (recovery.degraded) repair_->ArmDegradedRepair();
  }

  // Register only after engine_ and gossip_ are fully constructed: the
  // network worker thread dispatches incoming messages into both through
  // OnMessage, and on a restart peers may already have traffic in flight
  // for this endpoint.
  // With RPC workers, a request is only queued for them, so it is taken on
  // the receiving thread instead of waiting behind consensus messages (and
  // the block applies they run) on the endpoint's delivery thread.
  s = network_->RegisterWithInline(
      options_.node_id, [this](const Message& m) { OnMessage(m); },
      [this](Message* m) {
        if (options_.rpc_server.workers <= 0 ||
            m->type != RpcDispatcher::kRequestType) {
          return false;
        }
        rpc_dispatcher_.HandleMessage(network_, options_.node_id, *m);
        return true;
      });
  if (!s.ok()) return s;

  if (engine_ != nullptr) {
    s = engine_->Start();
    if (!s.ok()) return s;
    const AdmissionOptions& adm = options_.consensus_options.admission;
    if (adm.enabled) {
      fprintf(stderr,
              "[sebdb] node %s: admission caps txns=%llu bytes=%lluMB "
              "per-sender=%llu (0 = unlimited)\n",
              options_.node_id.c_str(),
              static_cast<unsigned long long>(adm.max_txns),
              static_cast<unsigned long long>(adm.max_bytes >> 20),
              static_cast<unsigned long long>(adm.max_txns_per_sender));
    }
  }
  if (gossip_ != nullptr) gossip_->Start();
  if (repair_ != nullptr) repair_->Start();
  if (gossip_ != nullptr) {
    // A peer coming (back) up is the moment it is most likely behind: run an
    // anti-entropy round now so repair and catch-up start immediately
    // instead of waiting out the gossip interval.
    const std::string self = options_.node_id;
    GossipAgent* gossip = gossip_.get();
    peer_watcher_token_ = network_->AddPeerWatcher(
        [self, gossip](const std::string& peer, bool up) {
          if (up && peer != self) gossip->RunRound();
        });
  }
  started_ = true;
  return Status::OK();
}

void SebdbNode::Stop() {
  if (!started_) return;
  started_ = false;
  if (peer_watcher_token_ != 0 && network_ != nullptr) {
    // Unsubscribe before tearing down gossip: the watcher runs on network
    // threads and must never see a half-destroyed agent.
    network_->RemovePeerWatcher(peer_watcher_token_);
    peer_watcher_token_ = 0;
  }
  if (repair_ != nullptr) {
    repair_->Stop();
    // One line on what self-healing did over the node's lifetime, next to
    // the admission summary.
    const RepairStats rs = repair_->stats();
    const ChainManager::StateSyncStats ss = chain_.state_sync_stats();
    if (rs.blocks_repaired > 0 || rs.state_syncs_started > 0 ||
        rs.retries > 0 || ss.fallbacks > 0) {
      fprintf(stderr,
              "[sebdb] node %s: repair blocks=%llu records=%llu "
              "state_syncs=%llu/%llu (installed height %llu, spliced %llu) "
              "chunks=%llu verified_bytes=%llu retries=%llu fallbacks=%llu\n",
              options_.node_id.c_str(),
              static_cast<unsigned long long>(rs.blocks_repaired),
              static_cast<unsigned long long>(rs.records_fetched),
              static_cast<unsigned long long>(rs.state_syncs_completed),
              static_cast<unsigned long long>(rs.state_syncs_started),
              static_cast<unsigned long long>(ss.installed_height),
              static_cast<unsigned long long>(ss.blocks_spliced),
              static_cast<unsigned long long>(rs.chunks_fetched),
              static_cast<unsigned long long>(rs.bytes_verified),
              static_cast<unsigned long long>(rs.retries),
              static_cast<unsigned long long>(rs.fallbacks + ss.fallbacks));
    }
  }
  if (gossip_ != nullptr) gossip_->Stop();
  if (engine_ != nullptr) {
    engine_->Stop();
    // Shutdown summary mirrors the startup cache report: one line on what
    // admission control saw over the node's lifetime.
    const MempoolStats mp = engine_->mempool_stats();
    if (mp.admission.admitted > 0 || mp.admission.rejected_total() > 0) {
      fprintf(stderr,
              "[sebdb] node %s: admission admitted=%llu deduped=%llu "
              "rejected=%llu (txns %llu, bytes %llu, sender %llu) "
              "peak=%llu txns/%llu bytes transitions=%llu state=%s\n",
              options_.node_id.c_str(),
              static_cast<unsigned long long>(mp.admission.admitted),
              static_cast<unsigned long long>(mp.admission.deduped),
              static_cast<unsigned long long>(mp.admission.rejected_total()),
              static_cast<unsigned long long>(mp.admission.rejected_txns),
              static_cast<unsigned long long>(mp.admission.rejected_bytes),
              static_cast<unsigned long long>(mp.admission.rejected_sender),
              static_cast<unsigned long long>(mp.admission.peak_txns),
              static_cast<unsigned long long>(mp.admission.peak_bytes),
              static_cast<unsigned long long>(mp.admission.state_transitions),
              OverloadStateName(mp.admission.state));
    }
  }
  if (network_ != nullptr) network_->Unregister(options_.node_id);
  rpc_dispatcher_.Stop();
  Status s = chain_.Close();
  if (!s.ok()) {
    // Shutdown cannot fail upward; surface the error like the startup log.
    fprintf(stderr, "[%s] close: %s\n", options_.node_id.c_str(),
            s.ToString().c_str());
  }
}

void SebdbNode::OnMessage(const Message& message) {
  if (message.type.rfind("gossip.", 0) == 0) {
    if (gossip_ != nullptr) gossip_->HandleMessage(message);
    return;
  }
  if (message.type.rfind("repair.", 0) == 0) {
    if (repair_ != nullptr) repair_->HandleMessage(message);
    return;
  }
  if (message.type == RpcDispatcher::kRequestType) {
    rpc_dispatcher_.HandleMessage(network_, options_.node_id, message);
    return;
  }
  if (engine_ == nullptr) return;
  if (message.type.rfind("kafka.", 0) == 0) {
    static_cast<KafkaOrderer*>(engine_.get())->HandleMessage(message);
  } else if (message.type.rfind("tm.", 0) == 0) {
    static_cast<TendermintEngine*>(engine_.get())->HandleMessage(message);
  }
}

void SebdbNode::OnBatchCommitted(uint64_t seq,
                                 std::vector<Transaction> txns) {
  // Deterministic block timestamp: the greatest transaction timestamp (the
  // chain clamps it monotone against the previous block).
  Timestamp ts = 0;
  for (const auto& txn : txns) ts = std::max(ts, txn.ts());

  std::string packager_signature;
  if (keystore_ != nullptr) {
    std::string batch;
    EncodeBatch(txns, &batch);
    keystore_->Sign(options_.node_id, BatchDigest(batch).AsSlice(),
                    &packager_signature);
  }
  Status s = chain_.AppendBatch(seq, std::move(txns), ts, packager_signature);
  if (s.ok() && gossip_ != nullptr) {
    // Eager push so observers learn about the block before the next
    // anti-entropy round.
    BlockId height = chain_.height() - 1;
    std::string record;
    if (chain_.GetBlockRecord(height, &record).ok()) {
      gossip_->PushBlock(height, record);
    }
  }
}

void SebdbNode::SetupRpcMethods() {
  rpc_dispatcher_.RegisterMethod(
      thin_rpc::kGetHeaders,
      [this](const Slice& request, std::string* response) -> Status {
        Slice input = request;
        uint64_t from;
        if (!GetVarint64(&input, &from)) {
          return Status::Corruption("bad get_headers request");
        }
        std::vector<BlockHeader> headers;
        Status s = GetHeaders(from, &headers);
        if (!s.ok()) return s;
        thin_rpc::EncodeHeaders(headers, response);
        return Status::OK();
      });
  rpc_dispatcher_.RegisterMethod(
      thin_rpc::kGetRawBlock,
      [this](const Slice& request, std::string* response) -> Status {
        Slice input = request;
        uint64_t height;
        if (!GetVarint64(&input, &height)) {
          return Status::Corruption("bad get_raw_block request");
        }
        return GetRawBlock(height, response);
      });
  // Deferred: the worker returns as soon as the txn is handed to consensus,
  // and the engine's commit callback sends the reply. The in-flight bound is
  // the engine's admission controller, not the worker count (DESIGN.md §10).
  rpc_dispatcher_.RegisterDeferredMethod(
      thin_rpc::kSubmit,
      [this](const Slice& request, RpcResponder respond) {
        Slice input = request;
        Transaction txn;
        Status s = Transaction::DecodeFrom(&input, &txn);
        if (!s.ok()) {
          respond(s, "");
          return;
        }
        s = SubmitAsync(std::move(txn), [this, respond](Status status) {
          std::string response;
          if (status.ok()) PutVarint64(&response, chain_.height());
          respond(status, response);
        });
        // An engine may also have reported the rejection through the
        // callback; the responder keeps only the first answer.
        if (!s.ok()) respond(s, "");
      },
      options_.write_timeout_millis);
  rpc_dispatcher_.RegisterMethod(
      thin_rpc::kStats,
      [this](const Slice& request, std::string* response) -> Status {
        (void)request;
        const uint64_t height = chain_.height();
        PutVarint64(response, height);
        BlockHeader tip;
        if (height > 0) {
          Status s = chain_.GetHeader(height - 1, &tip);
          if (!s.ok()) return s;
        }
        response->append(
            reinterpret_cast<const char*>(tip.block_hash.bytes.data()), 32);
        const NetworkStats net =
            network_ != nullptr ? network_->stats() : NetworkStats{};
        PutVarint64(response, net.frames_rejected);
        PutVarint64(response, net.overflow_drops);
        return Status::OK();
      });
  rpc_dispatcher_.RegisterMethod(
      thin_rpc::kProveRange,
      [this](const Slice& request, std::string* response) -> Status {
        Slice input = request;
        thin_rpc::RangeRequest req;
        Status s = thin_rpc::RangeRequest::DecodeFrom(&input, &req);
        if (!s.ok()) return s;
        AuthQueryResponse out;
        s = AuthProveRange(req.table, req.column,
                           req.has_lo ? &req.lo : nullptr,
                           req.has_hi ? &req.hi : nullptr, &out);
        if (!s.ok()) return s;
        response->reserve(out.ByteSize());  // one allocation, no regrowth
        out.EncodeTo(response);
        return Status::OK();
      });
  rpc_dispatcher_.RegisterMethod(
      thin_rpc::kDigestRange,
      [this](const Slice& request, std::string* response) -> Status {
        Slice input = request;
        thin_rpc::RangeRequest req;
        Status s = thin_rpc::RangeRequest::DecodeFrom(&input, &req);
        if (!s.ok()) return s;
        Hash256 digest;
        s = AuthDigestRange(req.table, req.column,
                            req.has_lo ? &req.lo : nullptr,
                            req.has_hi ? &req.hi : nullptr, req.height,
                            &digest);
        if (!s.ok()) return s;
        response->assign(reinterpret_cast<const char*>(digest.bytes.data()),
                         32);
        return Status::OK();
      });
  rpc_dispatcher_.RegisterMethod(
      thin_rpc::kProveTrace,
      [this](const Slice& request, std::string* response) -> Status {
        Slice input = request;
        thin_rpc::TraceRequest req;
        Status s = thin_rpc::TraceRequest::DecodeFrom(&input, &req);
        if (!s.ok()) return s;
        AuthQueryResponse out;
        s = AuthProveTrace(req.by_sender, req.key, &out,
                           req.has_window ? &req.window_start : nullptr,
                           req.has_window ? &req.window_end : nullptr);
        if (!s.ok()) return s;
        response->reserve(out.ByteSize());  // one allocation, no regrowth
        out.EncodeTo(response);
        return Status::OK();
      });
  rpc_dispatcher_.RegisterMethod(
      thin_rpc::kDigestTrace,
      [this](const Slice& request, std::string* response) -> Status {
        Slice input = request;
        thin_rpc::TraceRequest req;
        Status s = thin_rpc::TraceRequest::DecodeFrom(&input, &req);
        if (!s.ok()) return s;
        Hash256 digest;
        s = AuthDigestTrace(req.by_sender, req.key, req.height, &digest,
                            req.has_window ? &req.window_start : nullptr,
                            req.has_window ? &req.window_end : nullptr);
        if (!s.ok()) return s;
        response->assign(reinterpret_cast<const char*>(digest.bytes.data()),
                         32);
        return Status::OK();
      });
}

Status SebdbNode::MakeInsertTransaction(const std::string& identity,
                                        const std::string& table,
                                        std::vector<Value> values,
                                        Transaction* out) {
  Schema schema;
  Status s = chain_.catalog()->GetSchema(table, &schema);
  if (!s.ok()) return s;
  if (static_cast<int>(values.size()) != schema.num_app_columns()) {
    return Status::InvalidArgument(
        "INSERT arity " + std::to_string(values.size()) + " != " +
        std::to_string(schema.num_app_columns()) + " columns of " + table);
  }
  for (size_t i = 0; i < values.size(); i++) {
    const ColumnDef& col =
        schema.columns()[Schema::kNumSystemColumns + static_cast<int>(i)];
    Value& v = values[i];
    if (v.is_null() || v.type() == col.type) continue;
    // Numeric widening: int literals fit decimal/double/timestamp columns.
    if (v.type() == ValueType::kInt64) {
      if (col.type == ValueType::kDecimal) {
        v = Value::Dec(Decimal::FromInt(v.AsInt()));
        continue;
      }
      if (col.type == ValueType::kDouble) {
        v = Value::Double(static_cast<double>(v.AsInt()));
        continue;
      }
      if (col.type == ValueType::kTimestamp) {
        v = Value::Ts(v.AsInt());
        continue;
      }
    }
    if (v.type() == ValueType::kDecimal && col.type == ValueType::kDouble) {
      v = Value::Double(v.AsDecimal().ToDouble());
      continue;
    }
    return Status::InvalidArgument(
        "value " + std::to_string(i + 1) + " has type " +
        ValueTypeName(v.type()) + ", column " + col.name + " wants " +
        ValueTypeName(col.type));
  }

  Transaction txn(table, std::move(values));
  txn.set_ts(SystemClock::Default()->NowMicros());
  if (keystore_ == nullptr) {
    txn.set_sender(identity);
  } else {
    s = keystore_->SignTransaction(identity, &txn);
    if (!s.ok()) return s;
  }
  *out = std::move(txn);
  return Status::OK();
}

Status SebdbNode::SubmitAsync(Transaction txn,
                              std::function<void(Status)> done) {
  if (engine_ == nullptr) {
    return Status::NotSupported("node is not a consensus participant");
  }
  return engine_->Submit(std::move(txn), std::move(done));
}

Status SebdbNode::SubmitAndWait(Transaction txn) {
  std::vector<Transaction> txns;
  txns.push_back(std::move(txn));
  return SubmitAllAndWait(std::move(txns));
}

Status SebdbNode::SubmitAllAndWait(std::vector<Transaction> txns) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    std::vector<std::optional<Status>> statuses GUARDED_BY(mu);
    size_t remaining GUARDED_BY(mu) = 0;

    // The first status per txn counts: an engine may report a rejection
    // both through the callback and Submit's return value.
    void Finish(size_t i, Status status) {
      MutexLock lock(&mu);
      if (statuses[i].has_value()) return;
      statuses[i] = std::move(status);
      if (--remaining == 0) cv.NotifyAll();
    }
  };
  auto waiter = std::make_shared<Waiter>();
  {
    MutexLock lock(&waiter->mu);
    waiter->statuses.resize(txns.size());
    waiter->remaining = txns.size();
  }
  for (size_t i = 0; i < txns.size(); i++) {
    Status s = SubmitAsync(std::move(txns[i]), [waiter, i](Status status) {
      waiter->Finish(i, std::move(status));
    });
    if (!s.ok()) waiter->Finish(i, std::move(s));
  }
  MutexLock lock(&waiter->mu);
  const int64_t wait_deadline =
      SteadyNowMillis() + options_.write_timeout_millis;
  while (waiter->remaining > 0) {
    int64_t remaining = wait_deadline - SteadyNowMillis();
    if (remaining <= 0) break;
    waiter->cv.WaitFor(waiter->mu, std::chrono::milliseconds(remaining));
  }
  for (const auto& status : waiter->statuses) {
    if (!status.has_value()) {
      return Status::TimedOut("write not committed within timeout");
    }
    if (!status->ok()) return *status;
  }
  return Status::OK();
}

Status SebdbNode::ExecInsert(const InsertStmt& stmt,
                             const ExecOptions& options, ResultSet* result) {
  Status s = access_control_.CheckAccess(options_.node_id, stmt.table);
  if (!s.ok()) return s;
  // Multi-row INSERT: sign every transaction up front (all-or-nothing
  // validation), then submit them all and wait once, so the rows share
  // batches instead of each waiting out its own batch window.
  std::vector<Transaction> txns;
  txns.reserve(stmt.rows.size());
  for (const auto& row : stmt.rows) {
    std::vector<Value> values;
    values.reserve(row.size());
    for (const auto& expr : row) {
      Value v;
      s = EvalConstExpr(*expr, options.params, &v);
      if (!s.ok()) return s;
      values.push_back(std::move(v));
    }
    Transaction txn;
    s = MakeInsertTransaction(options_.node_id, stmt.table, std::move(values),
                              &txn);
    if (!s.ok()) return s;
    txns.push_back(std::move(txn));
  }
  s = SubmitAllAndWait(std::move(txns));
  if (!s.ok()) return s;
  result->plan = "Insert(" + stmt.table + ", " +
                 std::to_string(stmt.rows.size()) + " rows)";
  return Status::OK();
}

Status SebdbNode::ExecCreateTable(const CreateTableStmt& stmt,
                                  ResultSet* result) {
  Schema schema;
  Status s = Schema::Create(stmt.table, stmt.columns, &schema);
  if (!s.ok()) return s;
  if (chain_.catalog()->HasTable(schema.table_name())) {
    return Status::InvalidArgument("table exists: " + schema.table_name());
  }
  Transaction txn = Catalog::MakeSchemaTransaction(schema);
  txn.set_ts(SystemClock::Default()->NowMicros());
  if (keystore_ != nullptr) {
    s = keystore_->SignTransaction(options_.node_id, &txn);
    if (!s.ok()) return s;
  } else {
    txn.set_sender(options_.node_id);
  }
  s = SubmitAndWait(std::move(txn));
  if (!s.ok()) return s;
  result->plan = "CreateTable(" + schema.table_name() + ")";
  return Status::OK();
}

Status SebdbNode::ExecuteSql(std::string_view sql, const ExecOptions& options,
                             ResultSet* result) {
  StatementPtr stmt;
  Status s = ParseStatement(sql, &stmt);
  if (!s.ok()) return s;
  if (const auto* insert = std::get_if<InsertStmt>(&stmt->node)) {
    return ExecInsert(*insert, options, result);
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt->node)) {
    return ExecCreateTable(*create, result);
  }
  // Read statements: access control on the referenced on-chain tables.
  if (const auto* select = std::get_if<SelectStmt>(&stmt->node)) {
    for (const auto& table : select->tables) {
      if (table.offchain) continue;
      s = access_control_.CheckAccess(options_.node_id, table.name);
      if (!s.ok()) return s;
    }
  }
  // Snapshot: a concurrent checkpoint state sync may swap the executor; the
  // shared_ptr keeps the old one (and, via the chain's retire list, the old
  // index set) alive for the duration of this query.
  return executor_snapshot()->Execute(*stmt, options, result);
}

std::shared_ptr<Executor> SebdbNode::executor_snapshot() const {
  MutexLock lock(&executor_mu_);
  return executor_;
}

void SebdbNode::RefreshExecutorAfterStateSync() {
  auto fresh = std::make_shared<Executor>(chain_.store(), chain_.indexes(),
                                          chain_.catalog(),
                                          offchain_connector_.get(),
                                          options_.chain.pool);
  MutexLock lock(&executor_mu_);
  executor_ = std::move(fresh);
}

RepairStats SebdbNode::repair_stats() const {
  return repair_ != nullptr ? repair_->stats() : RepairStats();
}

void SebdbNode::OnPeerAdvertisedHeight(const std::string& peer,
                                       uint64_t height) {
  if (repair_ != nullptr) repair_->NotePeerHeight(peer, height);
}

Status SebdbNode::GetHeaders(BlockId from, std::vector<BlockHeader>* out) {
  out->clear();
  uint64_t height = chain_.height();
  for (BlockId h = from; h < height; h++) {
    BlockHeader header;
    Status s = chain_.GetHeader(h, &header);
    if (!s.ok()) return s;
    out->push_back(std::move(header));
  }
  return Status::OK();
}

Status SebdbNode::GetRawBlock(BlockId height, std::string* record) {
  return chain_.GetBlockRecord(height, record);
}

// Each prove/digest holds the index set's apply lock shared for its whole
// run, so the ALI root list and the layered index it reads cannot grow
// underneath it (DESIGN.md §9).

Status SebdbNode::AuthProveRange(const std::string& table,
                                 const std::string& column, const Value* lo,
                                 const Value* hi, AuthQueryResponse* out) {
  IndexSet* indexes = chain_.indexes();
  ReaderMutexLock read(indexes->apply_mutex());
  AuthenticatedLayeredIndex* ali = indexes->GetAli(table, column);
  if (ali == nullptr) {
    return Status::NotFound("no authenticated index on " + table + "." +
                            column);
  }
  return ali->ProveRange(lo, hi, /*window=*/nullptr, ali->num_blocks(), out);
}

Status SebdbNode::AuthDigestRange(const std::string& table,
                                  const std::string& column, const Value* lo,
                                  const Value* hi, uint64_t height,
                                  Hash256* digest) {
  IndexSet* indexes = chain_.indexes();
  ReaderMutexLock read(indexes->apply_mutex());
  AuthenticatedLayeredIndex* ali = indexes->GetAli(table, column);
  if (ali == nullptr) {
    return Status::NotFound("no authenticated index on " + table + "." +
                            column);
  }
  return ali->ComputeDigest(lo, hi, /*window=*/nullptr, height, digest);
}

Status SebdbNode::AuthProveTrace(bool by_sender, const std::string& key,
                                 AuthQueryResponse* out,
                                 const Timestamp* window_start,
                                 const Timestamp* window_end) {
  IndexSet* indexes = chain_.indexes();
  ReaderMutexLock read(indexes->apply_mutex());
  AuthenticatedLayeredIndex* ali =
      by_sender ? indexes->senid_ali() : indexes->tname_ali();
  Value v = Value::Str(key);
  std::optional<Bitmap> window;
  if (window_start != nullptr && window_end != nullptr) {
    window = indexes->block_index().BlocksInWindow(*window_start, *window_end);
  }
  return ali->ProveRange(&v, &v, window.has_value() ? &*window : nullptr,
                         ali->num_blocks(), out);
}

Status SebdbNode::AuthDigestTrace(bool by_sender, const std::string& key,
                                  uint64_t height, Hash256* digest,
                                  const Timestamp* window_start,
                                  const Timestamp* window_end) {
  IndexSet* indexes = chain_.indexes();
  ReaderMutexLock read(indexes->apply_mutex());
  AuthenticatedLayeredIndex* ali =
      by_sender ? indexes->senid_ali() : indexes->tname_ali();
  Value v = Value::Str(key);
  std::optional<Bitmap> window;
  if (window_start != nullptr && window_end != nullptr) {
    window = indexes->block_index().BlocksInWindow(*window_start, *window_end);
  }
  return ali->ComputeDigest(&v, &v, window.has_value() ? &*window : nullptr,
                            height, digest);
}

uint64_t SebdbNode::ChainHeight() { return chain_.height(); }

Status SebdbNode::GetBlockRecord(BlockId height, std::string* record) {
  return chain_.GetBlockRecord(height, record);
}

Status SebdbNode::ApplyBlockRecord(BlockId height, const std::string& record) {
  const uint64_t before = chain_.height();
  Status s = chain_.ApplyBlockRecord(height, record);
  if (s.ok() && engine_ != nullptr && chain_.height() > before) {
    // A gossip-learned block may carry transactions this engine still holds
    // as pending (their deliver messages were lost to a partition). Let the
    // engine release admission charges and resolve waiting submitters.
    Block block;
    Slice input(record);
    if (Block::DecodeFrom(&input, &block).ok()) {
      engine_->OnExternalCommit(block.transactions());
    }
  }
  return s;
}

MempoolStats SebdbNode::mempool_stats() const {
  return engine_ != nullptr ? engine_->mempool_stats() : MempoolStats();
}

OverloadState SebdbNode::overload_state() const {
  return engine_ != nullptr ? engine_->mempool_stats().admission.state
                            : OverloadState::kHealthy;
}

RpcServerStats SebdbNode::rpc_stats() const { return rpc_dispatcher_.stats(); }

}  // namespace sebdb
