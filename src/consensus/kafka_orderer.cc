#include "consensus/kafka_orderer.h"

#include <chrono>

#include "common/clock.h"
#include "common/coding.h"

namespace sebdb {

namespace {

constexpr char kSubmitType[] = "kafka.submit";
constexpr char kDeliverType[] = "kafka.deliver";
// Broker -> origin backpressure: the broker shed a submission; payload is
// the txn key plus a retry_after_millis hint.
constexpr char kNackType[] = "kafka.nack";
// Broker -> origin: the submission duplicates an already-sequenced txn;
// payload is the txn key. The origin acks its caller with OK — the txn
// committed (or is in flight to commit) exactly once, so a client that
// resubmitted after a timeout does not hang waiting for a second delivery
// that exactly-once ordering will never produce.
constexpr char kDupAckType[] = "kafka.dup_ack";

int64_t NowMicros() { return SteadyNowMicros(); }

std::string TxnKey(const Transaction& txn) {
  return txn.Hash().ToHex();
}

}  // namespace

KafkaOrderer::KafkaOrderer(std::string node_id, std::string broker_id,
                           std::vector<std::string> participants,
                           Network* network, ConsensusOptions options,
                           BatchCommitFn commit_fn)
    : node_id_(std::move(node_id)),
      broker_id_(std::move(broker_id)),
      participants_(std::move(participants)),
      network_(network),
      options_(std::move(options)),
      commit_fn_(std::move(commit_fn)),
      admission_(options_.admission),
      broker_admission_(options_.admission) {
  next_seq_ = options_.start_sequence;
  next_deliver_seq_ = options_.start_sequence;
}

KafkaOrderer::~KafkaOrderer() { Stop(); }

Status KafkaOrderer::Start() {
  MutexLock lock(&mu_);
  if (running_) return Status::Busy("engine already started");
  running_ = true;
  if (is_broker()) {
    cutter_ = std::thread([this] { CutterLoop(); });
  }
  return Status::OK();
}

void KafkaOrderer::Stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    running_ = false;
    cutter_cv_.NotifyAll();
  }
  if (cutter_.joinable()) cutter_.join();
  // Fail any callers still waiting for a commit.
  std::unordered_map<std::string, std::function<void(Status)>> pending_done;
  {
    MutexLock lock(&mu_);
    pending_done.swap(done_);
  }
  for (auto& [key, done] : pending_done) {
    if (done) done(Status::Aborted("consensus engine stopped"));
  }
  admission_.Clear();
  broker_admission_.Clear();
}

Status KafkaOrderer::Submit(Transaction txn,
                            std::function<void(Status)> done) {
  if (options_.validator) {
    Status s = options_.validator(txn);
    if (!s.ok()) {
      if (done) done(s);
      return s;
    }
  }
  std::string key = TxnKey(txn);
  std::string payload;
  txn.EncodeTo(&payload);
  // Submit-side admission: bounds this node's in-flight submissions. A
  // resubmission of an in-flight txn dedups (not double-counted) and is
  // re-sent to the broker, which dedups sequenced keys on its side.
  Status admit = admission_.Admit(key, txn.sender(), payload.size());
  if (!admit.ok()) {
    if (done) done(admit);
    return admit;
  }
  {
    MutexLock lock(&mu_);
    if (!running_) {
      admission_.Release(key);
      return Status::Aborted("engine not running");
    }
    if (done) done_[key] = std::move(done);
  }
  network_->Send(Message{kSubmitType, node_id_, broker_id_, payload});
  return Status::OK();
}

void KafkaOrderer::HandleMessage(const Message& message) {
  if (message.type == kSubmitType) {
    OnSubmit(message);
  } else if (message.type == kDeliverType) {
    OnDeliver(message);
  } else if (message.type == kNackType) {
    OnNack(message);
  } else if (message.type == kDupAckType) {
    OnDupAck(message);
  }
}

void KafkaOrderer::OnSubmit(const Message& message) {
  if (!is_broker()) return;
  Transaction txn;
  Slice input(message.payload);
  if (!Transaction::DecodeFrom(&input, &txn).ok()) return;
  std::string key = TxnKey(txn);
  MutexLock lock(&mu_);
  if (!running_) return;
  // Resubmission of an already-ordered txn: do not order it again
  // (exactly-once), but ack the origin so a timed-out-and-retrying caller
  // learns the txn went through.
  if (sequenced_keys_.contains(key)) {
    std::string ack;
    PutLengthPrefixed(&ack, key);
    network_->Send(Message{kDupAckType, node_id_, message.from, ack});
    return;
  }
  bool duplicate = false;
  Status admit =
      broker_admission_.Admit(key, txn.sender(), message.payload.size(),
                              &duplicate);
  if (!admit.ok()) {
    // Shed: propagate backpressure to the origin instead of queueing
    // without bound. The origin fails the caller with the retry hint.
    std::string nack;
    PutLengthPrefixed(&nack, key);
    PutVarint64(&nack, static_cast<uint64_t>(admit.retry_after_millis()));
    network_->Send(Message{kNackType, node_id_, message.from, nack});
    return;
  }
  if (duplicate) return;  // already queued, awaiting a cut
  if (pending_.empty()) first_pending_micros_ = NowMicros();
  pending_.push_back(std::move(txn));  // admitted: charged above
  if (pending_.size() >= options_.max_batch_txns) {
    CutBatchLocked();
  }
}

void KafkaOrderer::CutBatchLocked() {
  if (pending_.empty()) return;
  std::vector<Transaction> batch;
  batch.swap(pending_);
  uint64_t seq = next_seq_++;
  for (const auto& txn : batch) {
    std::string key = TxnKey(txn);
    broker_admission_.Release(key);
    sequenced_keys_.insert(key);
  }

  std::string payload;
  PutVarint64(&payload, seq);
  EncodeBatch(batch, &payload);
  for (const auto& participant : participants_) {
    network_->Send(Message{kDeliverType, node_id_, participant, payload});
  }
}

void KafkaOrderer::CutterLoop() {
  MutexLock lock(&mu_);
  while (running_) {
    if (pending_.empty()) {
      cutter_cv_.WaitFor(
          mu_, std::chrono::milliseconds(options_.batch_timeout_millis));
      continue;
    }
    int64_t deadline =
        first_pending_micros_ + options_.batch_timeout_millis * 1000;
    int64_t now = NowMicros();
    if (now >= deadline) {
      CutBatchLocked();
    } else {
      cutter_cv_.WaitFor(mu_, std::chrono::microseconds(deadline - now));
    }
  }
}

void KafkaOrderer::OnDeliver(const Message& message) {
  Slice input(message.payload);
  uint64_t seq;
  std::vector<Transaction> batch;
  if (!GetVarint64(&input, &seq) || !DecodeBatch(&input, &batch).ok()) return;
  MutexLock lock(&mu_);
  reorder_buffer_[seq] = std::move(batch);
  DeliverReady();
}

void KafkaOrderer::DeliverReady() {
  // Single drainer at a time: keeps commit_fn invocations strictly ordered
  // even though they run outside the lock.
  if (delivering_) return;
  delivering_ = true;
  while (true) {
    auto it = reorder_buffer_.find(next_deliver_seq_);
    if (it == reorder_buffer_.end()) break;
    std::vector<Transaction> batch = std::move(it->second);
    reorder_buffer_.erase(it);
    uint64_t seq = next_deliver_seq_++;
    committed_batches_++;

    // Collect completion callbacks for transactions we submitted.
    std::vector<std::function<void(Status)>> to_fire;
    for (const auto& txn : batch) {
      std::string key = TxnKey(txn);
      admission_.Release(key);
      auto done_it = done_.find(key);
      if (done_it != done_.end()) {
        to_fire.push_back(std::move(done_it->second));
        done_.erase(done_it);
      }
    }
    // Invoke the commit hook and callbacks outside the lock. The ordered
    // batch is applied behind commit_fn_ by ChainManager's single-pass
    // block apply (DESIGN.md §13).
    mu_.Unlock();
    if (commit_fn_) commit_fn_(seq, std::move(batch));
    for (auto& done : to_fire) {
      if (done) done(Status::OK());
    }
    mu_.Lock();
  }
  delivering_ = false;
}

void KafkaOrderer::OnNack(const Message& message) {
  Slice input(message.payload);
  Slice key_slice;
  uint64_t retry_after = 0;
  if (!GetLengthPrefixed(&input, &key_slice) ||
      !GetVarint64(&input, &retry_after)) {
    return;
  }
  std::string key = key_slice.ToString();
  std::function<void(Status)> done;
  {
    MutexLock lock(&mu_);
    auto it = done_.find(key);
    if (it != done_.end()) {
      done = std::move(it->second);
      done_.erase(it);
    }
  }
  admission_.Release(key);
  if (done) {
    done(Status::ResourceExhausted("shed by orderer",
                                   static_cast<int64_t>(retry_after)));
  }
}

void KafkaOrderer::OnDupAck(const Message& message) {
  Slice input(message.payload);
  Slice key_slice;
  if (!GetLengthPrefixed(&input, &key_slice)) return;
  std::string key = key_slice.ToString();
  std::function<void(Status)> done;
  {
    MutexLock lock(&mu_);
    auto it = done_.find(key);
    if (it != done_.end()) {
      done = std::move(it->second);
      done_.erase(it);
    }
  }
  admission_.Release(key);
  if (done) done(Status::OK());
}

uint64_t KafkaOrderer::committed_batches() const {
  MutexLock lock(&mu_);
  return committed_batches_;
}

MempoolStats KafkaOrderer::mempool_stats() const {
  MempoolStats out;
  AdmissionStats broker = broker_admission_.stats();
  out.admission = MergeAdmissionStats(admission_.stats(), broker);
  out.bytes = broker.cur_bytes;
  MutexLock lock(&mu_);
  out.depth = pending_.size();
  return out;
}

void KafkaOrderer::OnExternalCommit(const std::vector<Transaction>& txns) {
  std::vector<std::function<void(Status)>> to_fire;
  {
    MutexLock lock(&mu_);
    for (const auto& txn : txns) {
      std::string key = TxnKey(txn);
      admission_.Release(key);
      auto it = done_.find(key);
      if (it != done_.end()) {
        if (it->second) to_fire.push_back(std::move(it->second));
        done_.erase(it);
      }
    }
  }
  for (auto& done : to_fire) done(Status::OK());
}

}  // namespace sebdb
