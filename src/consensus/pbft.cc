#include "consensus/pbft.h"

#include <chrono>

#include "common/clock.h"
#include "common/coding.h"

namespace sebdb {

namespace {

constexpr char kRequestType[] = "pbft.request";
constexpr char kPrePrepareType[] = "pbft.preprepare";
constexpr char kPrepareType[] = "pbft.prepare";
constexpr char kCommitType[] = "pbft.commit";
constexpr char kViewChangeType[] = "pbft.viewchange";
constexpr char kNewViewType[] = "pbft.newview";
constexpr char kFetchType[] = "pbft.fetch";
constexpr char kFetchedType[] = "pbft.fetched";

int64_t NowMicros() { return SteadyNowMicros(); }

std::string TxnKey(const Transaction& txn) { return txn.Hash().ToHex(); }

bool GetHash(Slice* input, Hash256* out) {
  if (input->size() < 32) return false;
  memcpy(out->bytes.data(), input->data(), 32);
  input->remove_prefix(32);
  return true;
}

}  // namespace

PbftEngine::PbftEngine(std::string node_id,
                       std::vector<std::string> participants,
                       Network* network, ConsensusOptions options,
                       BatchCommitFn commit_fn, PbftOptions pbft_options)
    : node_id_(std::move(node_id)),
      participants_(std::move(participants)),
      network_(network),
      options_(std::move(options)),
      commit_fn_(std::move(commit_fn)),
      pbft_options_(pbft_options),
      f_(static_cast<int>((participants_.size() - 1) / 3)),
      admission_(options_.admission) {
  next_seq_ = options_.start_sequence;
  next_deliver_seq_ = options_.start_sequence;
}

PbftEngine::~PbftEngine() { Stop(); }

Status PbftEngine::Start() {
  MutexLock lock(&mu_);
  if (running_) return Status::Busy("engine already started");
  running_ = true;
  last_progress_micros_ = NowMicros();
  timer_ = std::thread([this] { TimerLoop(); });
  return Status::OK();
}

void PbftEngine::Stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    running_ = false;
    timer_cv_.NotifyAll();
  }
  if (timer_.joinable()) timer_.join();
  std::unordered_map<std::string, PendingRequest> pending;
  {
    MutexLock lock(&mu_);
    pending.swap(pending_requests_);
  }
  for (auto& [key, request] : pending) {
    if (request.done) request.done(Status::Aborted("consensus engine stopped"));
  }
  admission_.Clear();
}

uint64_t PbftEngine::view() const {
  MutexLock lock(&mu_);
  return view_;
}

bool PbftEngine::is_primary() const {
  MutexLock lock(&mu_);
  return PrimaryOf(view_) == node_id_;
}

void PbftEngine::BroadcastToReplicas(const std::string& type,
                                     const std::string& payload) {
  for (const auto& replica : participants_) {
    if (replica == node_id_) continue;
    network_->Send(Message{type, node_id_, replica, payload});
  }
}

Status PbftEngine::Submit(Transaction txn, std::function<void(Status)> done) {
  if (options_.validator) {
    Status s = options_.validator(txn);
    if (!s.ok()) {
      if (done) done(s);
      return s;
    }
  }
  std::string payload;
  txn.EncodeTo(&payload);
  std::string key = TxnKey(txn);
  Status admit = admission_.Admit(key, txn.sender(), payload.size());
  if (!admit.ok()) {
    if (done) done(admit);
    return admit;
  }
  bool already_committed = false;
  {
    MutexLock lock(&mu_);
    if (!running_) {
      admission_.Release(key);
      return Status::Aborted("engine not running");
    }
    // Resubmission of an already-committed txn (a caller that timed out and
    // retried): ack immediately, it committed exactly once.
    if (committed_keys_.contains(key)) {
      admission_.Release(key);
      already_committed = true;
    } else {
      // Every replica learns about the request (so every honest replica
      // arms a progress timer and can demand a view change if the primary
      // stalls); only the origin holds the completion callback.
      pending_requests_[key] =
          PendingRequest{txn, std::move(done), NowMicros()};
      if (PrimaryOf(view_) == node_id_ && !in_view_change_) {
        AddToBatchLocked(std::move(txn));
      }
    }
  }
  if (already_committed) {
    if (done) done(Status::OK());
    return Status::OK();
  }
  BroadcastToReplicas(kRequestType, payload);
  return Status::OK();
}

void PbftEngine::AddToBatchLocked(Transaction txn) {
  std::string key = TxnKey(txn);
  if (batched_keys_.contains(key)) return;  // duplicate / re-sent request
  batched_keys_.insert(std::move(key));
  if (batch_pending_.empty()) first_pending_micros_ = NowMicros();
  // Every path here (Submit, OnRequest, view-change re-propose,
  // retransmission) admission-checked the txn when it entered
  // pending_requests_.
  batch_pending_.push_back(std::move(txn));  // admitted: charged on entry
  if (batch_pending_.size() >= options_.max_batch_txns) CutBatchLocked();
}

void PbftEngine::HandleMessage(const Message& message) {
  if (message.type == kRequestType) OnRequest(message);
  else if (message.type == kPrePrepareType) OnPrePrepare(message);
  else if (message.type == kPrepareType) OnPrepare(message);
  else if (message.type == kCommitType) OnCommit(message);
  else if (message.type == kViewChangeType) OnViewChange(message);
  else if (message.type == kNewViewType) OnNewView(message);
  else if (message.type == kFetchType) {
    // Serve committed batches for state transfer after a view change. A
    // production implementation ships a 2f+1 commit certificate with each
    // batch; within the simulation's crash-fault state-transfer scenario we
    // return the payload alone.
    Slice input(message.payload);
    uint64_t seq;
    if (!GetVarint64(&input, &seq)) return;
    std::string payload;
    {
      MutexLock lock(&mu_);
      auto it = delivered_payloads_.find(seq);
      if (it == delivered_payloads_.end()) return;
      PutVarint64(&payload, seq);
      PutLengthPrefixed(&payload, it->second);
    }
    network_->Send(Message{kFetchedType, node_id_, message.from, payload});
  } else if (message.type == kFetchedType) {
    Slice input(message.payload);
    uint64_t seq;
    Slice batch_payload;
    if (!GetVarint64(&input, &seq) ||
        !GetLengthPrefixed(&input, &batch_payload)) {
      return;
    }
    MutexLock lock(&mu_);
    SlotState& slot = slots_[seq];
    if (slot.delivered) return;
    slot.batch_payload = batch_payload.ToString();
    slot.digest = BatchDigest(slot.batch_payload);
    slot.preprepared = true;
    // Mark committed via fetch.
    slot.commits.clear();
    for (const auto& p : participants_) slot.commits.insert(p);
    DeliverReadyLocked();
  }
}

void PbftEngine::OnRequest(const Message& message) {
  Transaction txn;
  Slice input(message.payload);
  if (!Transaction::DecodeFrom(&input, &txn).ok()) return;
  MutexLock lock(&mu_);
  if (!running_) return;
  std::string key = TxnKey(txn);
  if (!pending_requests_.contains(key) && !committed_keys_.contains(key)) {
    // New request: admission-check before holding it. Shedding is silent —
    // the origin's retransmission timer re-sends it once load drains.
    Status admit =
        admission_.Admit(key, txn.sender(), message.payload.size());
    if (!admit.ok()) return;
    pending_requests_[key] = PendingRequest{txn, nullptr, NowMicros()};
  }
  if (PrimaryOf(view_) == node_id_ && !in_view_change_ &&
      !committed_keys_.contains(key)) {
    AddToBatchLocked(std::move(txn));
  }
}

void PbftEngine::CutBatchLocked() {
  if (batch_pending_.empty()) return;
  std::vector<Transaction> batch;
  batch.swap(batch_pending_);
  uint64_t seq = next_seq_++;

  std::string batch_payload;
  EncodeBatch(batch, &batch_payload);

  SlotState& slot = slots_[seq];
  slot.batch_payload = batch_payload;
  slot.digest = BatchDigest(batch_payload);
  slot.preprepared = true;

  std::string payload;
  PutVarint64(&payload, view_);
  PutVarint64(&payload, seq);
  PutLengthPrefixed(&payload, batch_payload);
  BroadcastToReplicas(kPrePrepareType, payload);
  MaybePrepareLocked(seq);
}

void PbftEngine::OnPrePrepare(const Message& message) {
  Slice input(message.payload);
  uint64_t msg_view, seq;
  Slice batch_payload;
  if (!GetVarint64(&input, &msg_view) || !GetVarint64(&input, &seq) ||
      !GetLengthPrefixed(&input, &batch_payload)) {
    return;
  }
  MutexLock lock(&mu_);
  if (!running_ || msg_view != view_ || in_view_change_) return;
  if (message.from != PrimaryOf(view_)) return;  // only the primary proposes
  SlotState& slot = slots_[seq];
  if (slot.preprepared || slot.delivered) return;
  slot.batch_payload = batch_payload.ToString();
  slot.digest = BatchDigest(slot.batch_payload);
  slot.preprepared = true;
  if (seq >= next_seq_) next_seq_ = seq + 1;

  // Backup: broadcast PREPARE and count our own vote.
  std::string payload;
  PutVarint64(&payload, view_);
  PutVarint64(&payload, seq);
  payload.append(reinterpret_cast<const char*>(slot.digest.bytes.data()), 32);
  BroadcastToReplicas(kPrepareType, payload);
  slot.prepares.insert(node_id_);
  MaybePrepareLocked(seq);
}

void PbftEngine::OnPrepare(const Message& message) {
  Slice input(message.payload);
  uint64_t msg_view, seq;
  Hash256 digest;
  if (!GetVarint64(&input, &msg_view) || !GetVarint64(&input, &seq) ||
      !GetHash(&input, &digest)) {
    return;
  }
  MutexLock lock(&mu_);
  if (!running_ || msg_view != view_ || in_view_change_) return;
  SlotState& slot = slots_[seq];
  if (slot.preprepared && slot.digest != digest) return;  // equivocation
  slot.prepares.insert(message.from);
  MaybePrepareLocked(seq);
}

void PbftEngine::MaybePrepareLocked(uint64_t seq) {
  SlotState& slot = slots_[seq];
  if (!slot.preprepared || slot.sent_commit) return;
  // Prepared: pre-prepare plus 2f matching prepares.
  if (static_cast<int>(slot.prepares.size()) < 2 * f_) return;
  slot.sent_commit = true;
  std::string payload;
  PutVarint64(&payload, view_);
  PutVarint64(&payload, seq);
  payload.append(reinterpret_cast<const char*>(slot.digest.bytes.data()), 32);
  BroadcastToReplicas(kCommitType, payload);
  slot.commits.insert(node_id_);
  MaybeCommitLocked(seq);
}

void PbftEngine::OnCommit(const Message& message) {
  Slice input(message.payload);
  uint64_t msg_view, seq;
  Hash256 digest;
  if (!GetVarint64(&input, &msg_view) || !GetVarint64(&input, &seq) ||
      !GetHash(&input, &digest)) {
    return;
  }
  MutexLock lock(&mu_);
  if (!running_ || msg_view != view_ || in_view_change_) return;
  SlotState& slot = slots_[seq];
  if (slot.preprepared && slot.digest != digest) return;
  slot.commits.insert(message.from);
  MaybeCommitLocked(seq);
}

void PbftEngine::MaybeCommitLocked(uint64_t seq) {
  SlotState& slot = slots_[seq];
  if (!slot.preprepared || slot.delivered) return;
  if (static_cast<int>(slot.commits.size()) < 2 * f_ + 1) return;
  DeliverReadyLocked();
}

void PbftEngine::DeliverReadyLocked() {
  if (delivering_) return;
  delivering_ = true;
  while (true) {
    auto it = slots_.find(next_deliver_seq_);
    if (it == slots_.end()) break;
    SlotState& slot = it->second;
    if (!slot.preprepared || slot.delivered ||
        static_cast<int>(slot.commits.size()) < 2 * f_ + 1) {
      break;
    }
    slot.delivered = true;
    uint64_t seq = next_deliver_seq_++;
    committed_batches_++;
    last_progress_micros_ = NowMicros();
    delivered_payloads_[seq] = slot.batch_payload;

    std::vector<Transaction> batch;
    Slice input(slot.batch_payload);
    if (!DecodeBatch(&input, &batch).ok()) {
      batch.clear();
    }
    std::vector<std::function<void(Status)>> to_fire;
    for (const auto& txn : batch) {
      std::string key = TxnKey(txn);
      admission_.Release(key);
      committed_keys_.insert(key);
      batched_keys_.insert(key);
      auto done_it = pending_requests_.find(key);
      if (done_it != pending_requests_.end()) {
        if (done_it->second.done) to_fire.push_back(std::move(done_it->second.done));
        pending_requests_.erase(done_it);
      }
    }
    mu_.Unlock();
    // The ordered batch is applied behind commit_fn_ by ChainManager's
    // single-pass block apply (DESIGN.md §13) — same code path as gossip
    // apply and startup replay.
    if (commit_fn_) commit_fn_(seq, std::move(batch));
    for (auto& done : to_fire) done(Status::OK());
    mu_.Lock();
  }
  delivering_ = false;
}

void PbftEngine::TimerLoop() {
  MutexLock lock(&mu_);
  while (running_) {
    timer_cv_.WaitFor(mu_, std::chrono::milliseconds(100));
    if (!running_) return;
    // Primary: cut a batch when the packaging timeout elapses.
    if (PrimaryOf(view_) == node_id_ && !in_view_change_ &&
        !batch_pending_.empty()) {
      int64_t deadline =
          first_pending_micros_ + options_.batch_timeout_millis * 1000;
      if (NowMicros() >= deadline) CutBatchLocked();
    }
    // Any replica: re-send stale pending requests to the current primary
    // (client retransmission). Covers requests whose original broadcast was
    // lost to a partition or shed by an overloaded primary.
    if (!in_view_change_ && pbft_options_.request_retry_millis > 0) {
      int64_t now = NowMicros();
      int64_t stale_micros = pbft_options_.request_retry_millis * 1000;
      std::vector<Transaction> stale;
      for (auto& [key, request] : pending_requests_) {
        if (now - request.last_sent_micros < stale_micros) continue;
        request.last_sent_micros = now;
        stale.push_back(request.txn);
        if (stale.size() >= 64) break;  // bound the per-tick burst
      }
      std::string primary = PrimaryOf(view_);
      for (auto& txn : stale) {
        if (primary == node_id_) {
          AddToBatchLocked(std::move(txn));
        } else {
          std::string payload;
          txn.EncodeTo(&payload);
          network_->Send(Message{kRequestType, node_id_, primary, payload});
        }
      }
    }
    // Any replica: suspect the primary when requests stall.
    if (!pending_requests_.empty() &&
        NowMicros() - last_progress_micros_ >
            pbft_options_.view_timeout_millis * 1000) {
      StartViewChangeLocked(view_ + 1);
      last_progress_micros_ = NowMicros();  // back off before escalating
    }
  }
}

void PbftEngine::StartViewChangeLocked(uint64_t new_view) {
  if (new_view <= view_) return;
  in_view_change_ = true;
  view_votes_[new_view].insert(node_id_);
  std::string payload;
  PutVarint64(&payload, new_view);
  PutVarint64(&payload, next_deliver_seq_);
  BroadcastToReplicas(kViewChangeType, payload);
  // A single vote can already be decisive in tiny clusters (2f+1 == 1).
  if (static_cast<int>(view_votes_[new_view].size()) >= 2 * f_ + 1) {
    EnterViewLocked(new_view);
  }
}

void PbftEngine::OnViewChange(const Message& message) {
  Slice input(message.payload);
  uint64_t new_view, peer_delivered;
  if (!GetVarint64(&input, &new_view)) return;
  if (!GetVarint64(&input, &peer_delivered)) peer_delivered = 0;
  MutexLock lock(&mu_);
  if (!running_ || new_view <= view_) return;
  view_votes_[new_view].insert(message.from);
  if (peer_delivered > highest_reported_seq_) {
    highest_reported_seq_ = peer_delivered;
  }
  // Join the view change once f+1 peers demand it (we may not have timed
  // out ourselves yet).
  if (static_cast<int>(view_votes_[new_view].size()) >= f_ + 1 &&
      !view_votes_[new_view].contains(node_id_)) {
    StartViewChangeLocked(new_view);
  }
  if (static_cast<int>(view_votes_[new_view].size()) >= 2 * f_ + 1) {
    EnterViewLocked(new_view);
  }
}

void PbftEngine::EnterViewLocked(uint64_t new_view) {
  if (new_view <= view_) return;
  view_ = new_view;
  in_view_change_ = false;
  // Drop undelivered in-flight slots; their requests are still pending and
  // get re-proposed in the new view.
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (!it->second.delivered) it = slots_.erase(it);
    else ++it;
  }
  next_seq_ = std::max(next_seq_, next_deliver_seq_);
  batch_pending_.clear();
  // Keys batched in dropped slots must be re-batchable by a future primary
  // stint; only committed keys stay deduplicated.
  batched_keys_ = committed_keys_;
  last_progress_micros_ = NowMicros();

  // Catch up on batches other replicas already delivered.
  if (highest_reported_seq_ > next_deliver_seq_) {
    for (uint64_t seq = next_deliver_seq_; seq < highest_reported_seq_;
         seq++) {
      std::string payload;
      PutVarint64(&payload, seq);
      BroadcastToReplicas(kFetchType, payload);
    }
  }

  if (PrimaryOf(view_) == node_id_) {
    std::string payload;
    PutVarint64(&payload, view_);
    BroadcastToReplicas(kNewViewType, payload);
    next_seq_ = std::max(next_seq_, highest_reported_seq_);
    // Re-propose every request we know about.
    std::vector<Transaction> to_batch;
    for (const auto& [key, request] : pending_requests_) {
      to_batch.push_back(request.txn);
    }
    for (auto& txn : to_batch) AddToBatchLocked(std::move(txn));
  } else {
    // Re-send our pending requests to the new primary (it may never have
    // seen them).
    std::string primary = PrimaryOf(view_);
    for (auto& [key, request] : pending_requests_) {
      request.last_sent_micros = NowMicros();
      std::string payload;
      request.txn.EncodeTo(&payload);
      network_->Send(Message{kRequestType, node_id_, primary, payload});
    }
  }
}

void PbftEngine::OnNewView(const Message& message) {
  Slice input(message.payload);
  uint64_t new_view;
  if (!GetVarint64(&input, &new_view)) return;
  MutexLock lock(&mu_);
  if (!running_ || new_view <= view_) return;
  if (message.from != PrimaryOf(new_view)) return;
  EnterViewLocked(new_view);
}

uint64_t PbftEngine::committed_batches() const {
  MutexLock lock(&mu_);
  return committed_batches_;
}

MempoolStats PbftEngine::mempool_stats() const {
  MempoolStats out;
  out.admission = admission_.stats();
  out.bytes = out.admission.cur_bytes;
  MutexLock lock(&mu_);
  out.depth = pending_requests_.size();
  return out;
}

void PbftEngine::OnExternalCommit(const std::vector<Transaction>& txns) {
  std::vector<std::function<void(Status)>> to_fire;
  {
    MutexLock lock(&mu_);
    for (const auto& txn : txns) {
      std::string key = TxnKey(txn);
      admission_.Release(key);
      committed_keys_.insert(key);
      batched_keys_.insert(key);
      auto it = pending_requests_.find(key);
      if (it != pending_requests_.end()) {
        if (it->second.done) to_fire.push_back(std::move(it->second.done));
        pending_requests_.erase(it);
      }
    }
  }
  for (auto& done : to_fire) done(Status::OK());
}

}  // namespace sebdb
