#include "consensus/tendermint.h"

#include <chrono>

#include "common/clock.h"
#include "common/coding.h"

namespace sebdb {

namespace {

constexpr char kTxType[] = "tm.tx";
constexpr char kProposalType[] = "tm.proposal";
constexpr char kPrevoteType[] = "tm.prevote";
constexpr char kPrecommitType[] = "tm.precommit";

int64_t NowMicros() { return SteadyNowMicros(); }

std::string TxnKey(const Transaction& txn) { return txn.Hash().ToHex(); }

bool GetHash(Slice* input, Hash256* out) {
  if (input->size() < 32) return false;
  memcpy(out->bytes.data(), input->data(), 32);
  input->remove_prefix(32);
  return true;
}

}  // namespace

TendermintEngine::TendermintEngine(std::string node_id,
                                   std::vector<std::string> participants,
                                   Network* network,
                                   ConsensusOptions options,
                                   BatchCommitFn commit_fn,
                                   TendermintOptions tm_options)
    : node_id_(std::move(node_id)),
      participants_(std::move(participants)),
      network_(network),
      options_(std::move(options)),
      commit_fn_(std::move(commit_fn)),
      tm_options_(tm_options),
      admission_(options_.admission) {
  height_ = options_.start_sequence;
}

TendermintEngine::~TendermintEngine() { Stop(); }

Status TendermintEngine::Start() {
  MutexLock lock(&mu_);
  if (running_) return Status::Busy("engine already started");
  running_ = true;
  round_started_micros_ = NowMicros();
  timer_ = std::thread([this] { TimerLoop(); });
  return Status::OK();
}

void TendermintEngine::Stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    running_ = false;
    timer_cv_.NotifyAll();
  }
  if (timer_.joinable()) timer_.join();
  std::unordered_map<std::string, std::function<void(Status)>> pending;
  {
    MutexLock lock(&mu_);
    pending.swap(done_);
  }
  for (auto& [key, done] : pending) {
    if (done) done(Status::Aborted("consensus engine stopped"));
  }
  admission_.Clear();
}

uint64_t TendermintEngine::height() const {
  MutexLock lock(&mu_);
  return height_;
}

void TendermintEngine::SerialWork(size_t txn_count) const {
  // Spin for txn_count * serial_txn_cost_micros, modeling the serial
  // CheckTx/DeliverTx pipeline.
  if (tm_options_.serial_txn_cost_micros <= 0 || txn_count == 0) return;
  int64_t until = NowMicros() + static_cast<int64_t>(txn_count) *
                                    tm_options_.serial_txn_cost_micros;
  while (NowMicros() < until) {
    // busy wait, like a single-threaded ABCI app
  }
}

void TendermintEngine::BroadcastToReplicas(const std::string& type,
                                           const std::string& payload) {
  for (const auto& replica : participants_) {
    if (replica == node_id_) continue;
    network_->Send(Message{type, node_id_, replica, payload});
  }
}

Status TendermintEngine::Submit(Transaction txn,
                                std::function<void(Status)> done) {
  if (options_.validator) {
    Status s = options_.validator(txn);
    if (!s.ok()) {
      if (done) done(s);
      return s;
    }
  }
  // Serial CheckTx before mempool admission.
  SerialWork(1);
  std::string key = TxnKey(txn);
  std::string payload;
  txn.EncodeTo(&payload);
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
    if (!mempool_keys_.contains(key)) {
      if (mempool_.empty()) first_mempool_micros_ = NowMicros();
      mempool_keys_.insert(key);
      mempool_.push_back(std::move(txn));  // admitted: charged above
    }
    MaybeProposeLocked();
  }
  BroadcastToReplicas(kTxType, payload);
  return Status::OK();
}

void TendermintEngine::HandleMessage(const Message& message) {
  if (message.type == kTxType) OnTx(message);
  else if (message.type == kProposalType) OnProposal(message);
  else if (message.type == kPrevoteType) OnPrevote(message);
  else if (message.type == kPrecommitType) OnPrecommit(message);
}

void TendermintEngine::OnTx(const Message& message) {
  Transaction txn;
  Slice input(message.payload);
  if (!Transaction::DecodeFrom(&input, &txn).ok()) return;
  // Serial CheckTx on gossiped transactions too.
  SerialWork(1);
  std::string key = TxnKey(txn);
  // Shedding a gossiped txn is safe: it stays in the origin's mempool and
  // commits through the origin's proposals.
  if (!admission_.Admit(key, txn.sender(), message.payload.size()).ok()) {
    return;
  }
  MutexLock lock(&mu_);
  if (!running_) {
    admission_.Release(key);
    return;
  }
  if (mempool_keys_.contains(key)) return;
  if (mempool_.empty()) first_mempool_micros_ = NowMicros();
  mempool_keys_.insert(key);
  mempool_.push_back(std::move(txn));  // admitted: charged above
  MaybeProposeLocked();
}

void TendermintEngine::MaybeProposeLocked() {
  if (ProposerOf(height_, round_) != node_id_ ||
      round_state_.have_proposal || mempool_.empty()) {
    return;
  }
  bool full = mempool_.size() >= options_.max_batch_txns;
  bool timed_out = NowMicros() - first_mempool_micros_ >=
                   options_.batch_timeout_millis * 1000;
  if (!full && !timed_out) return;

  // Copy (not pop) the batch: the transactions stay in the mempool until a
  // commit sweeps them, so abandoning this round cannot lose them.
  std::vector<Transaction> batch;
  size_t take = std::min<size_t>(options_.max_batch_txns, mempool_.size());
  batch.assign(mempool_.begin(),
               mempool_.begin() + static_cast<ptrdiff_t>(take));

  std::string batch_payload;
  EncodeBatch(batch, &batch_payload);
  round_state_.proposal_payload = batch_payload;
  round_state_.digest = BatchDigest(batch_payload);
  round_state_.have_proposal = true;

  std::string payload;
  PutVarint64(&payload, height_);
  PutVarint32(&payload, round_);
  PutLengthPrefixed(&payload, batch_payload);
  BroadcastToReplicas(kProposalType, payload);

  // Proposer prevotes its own proposal.
  round_state_.sent_prevote = true;
  VoteLocked(kPrevoteType, &round_state_.prevotes);
  MaybePrecommitLocked();
}

void TendermintEngine::OnProposal(const Message& message) {
  Slice input(message.payload);
  uint64_t height;
  uint32_t round;
  Slice batch_payload;
  if (!GetVarint64(&input, &height) || !GetVarint32(&input, &round) ||
      !GetLengthPrefixed(&input, &batch_payload)) {
    return;
  }
  MutexLock lock(&mu_);
  if (!running_ || height != height_ || round < round_) return;
  if (message.from != ProposerOf(height_, round)) return;
  if (round > round_) {
    // Round catch-up: a valid proposal for a later round of this height
    // means the proposer already timed out the rounds we are still in.
    // Jump forward instead of dropping it — otherwise nodes whose round
    // timers drifted apart drop every proposal and the height stalls.
    round_ = round;
    round_state_ = RoundState();
    round_started_micros_ = NowMicros();
  }
  if (round_state_.have_proposal) return;
  round_state_.proposal_payload = batch_payload.ToString();
  round_state_.digest = BatchDigest(round_state_.proposal_payload);
  round_state_.have_proposal = true;

  if (!round_state_.sent_prevote) {
    round_state_.sent_prevote = true;
    VoteLocked(kPrevoteType, &round_state_.prevotes);
  }
  MaybePrecommitLocked();
}

void TendermintEngine::VoteLocked(const std::string& type,
                                  std::map<std::string, Hash256>* votes) {
  (*votes)[node_id_] = round_state_.digest;
  std::string vote;
  PutVarint64(&vote, height_);
  PutVarint32(&vote, round_);
  vote.append(reinterpret_cast<const char*>(round_state_.digest.bytes.data()),
              32);
  BroadcastToReplicas(type, vote);
}

void TendermintEngine::OnPrevote(const Message& message) {
  Slice input(message.payload);
  uint64_t height;
  uint32_t round;
  Hash256 digest;
  if (!GetVarint64(&input, &height) || !GetVarint32(&input, &round) ||
      !GetHash(&input, &digest)) {
    return;
  }
  MutexLock lock(&mu_);
  if (!running_ || height != height_ || round != round_) return;
  if (!IsParticipant(message.from)) return;
  round_state_.prevotes.emplace(message.from, digest);
  MaybePrecommitLocked();
}

void TendermintEngine::MaybePrecommitLocked() {
  if (!round_state_.have_proposal || round_state_.sent_precommit) return;
  if (VotesFor(round_state_.prevotes, round_state_.digest) < QuorumSize()) {
    return;
  }
  round_state_.sent_precommit = true;
  VoteLocked(kPrecommitType, &round_state_.precommits);
  MaybeCommitLocked();
}

void TendermintEngine::OnPrecommit(const Message& message) {
  Slice input(message.payload);
  uint64_t height;
  uint32_t round;
  Hash256 digest;
  if (!GetVarint64(&input, &height) || !GetVarint32(&input, &round) ||
      !GetHash(&input, &digest)) {
    return;
  }
  MutexLock lock(&mu_);
  if (!running_ || height != height_ || round != round_) return;
  if (!IsParticipant(message.from)) return;
  round_state_.precommits.emplace(message.from, digest);
  MaybeCommitLocked();
}

void TendermintEngine::MaybeCommitLocked() {
  if (!round_state_.have_proposal || committing_) return;
  if (VotesFor(round_state_.precommits, round_state_.digest) <
      QuorumSize()) {
    return;
  }
  committing_ = true;

  std::vector<Transaction> batch;
  Slice input(round_state_.proposal_payload);
  if (!DecodeBatch(&input, &batch).ok()) batch.clear();

  uint64_t seq = height_;
  height_++;
  round_ = 0;
  round_state_ = RoundState();
  round_started_micros_ = NowMicros();
  committed_batches_++;

  // Remove committed transactions from the mempool and collect callbacks.
  std::vector<std::function<void(Status)>> to_fire;
  for (const auto& txn : batch) {
    std::string key = TxnKey(txn);
    admission_.Release(key);
    mempool_keys_.erase(key);
    auto done_it = done_.find(key);
    if (done_it != done_.end()) {
      if (done_it->second) to_fire.push_back(std::move(done_it->second));
      done_.erase(done_it);
    }
  }
  for (auto it = mempool_.begin(); it != mempool_.end();) {
    if (!mempool_keys_.contains(TxnKey(*it))) it = mempool_.erase(it);
    else ++it;
  }
  if (!mempool_.empty()) first_mempool_micros_ = NowMicros();

  mu_.Unlock();
  // Deliver hands the ordered batch to the application in one call; the
  // apply lives behind commit_fn_ (ChainManager's single-pass block apply,
  // DESIGN.md §13), so there is no per-txn serial DeliverTx spin here.
  // CheckTx (Submit) keeps its serial cost model.
  if (commit_fn_) commit_fn_(seq, std::move(batch));
  for (auto& done : to_fire) done(Status::OK());
  mu_.Lock();
  committing_ = false;
  MaybeProposeLocked();
}

void TendermintEngine::TimerLoop() {
  MutexLock lock(&mu_);
  while (running_) {
    timer_cv_.WaitFor(mu_, std::chrono::milliseconds(50));
    if (!running_) return;
    MaybeProposeLocked();
    // Round timeout: rotate the proposer within the same height. A round
    // that *has* a proposal but failed to commit within the timeout is
    // rotated too — its votes are lost, never arriving (the batch itself is
    // safe: proposed transactions stay in the mempool until commit).
    if (!committing_ && (round_state_.have_proposal || !mempool_.empty()) &&
        NowMicros() - round_started_micros_ >
            tm_options_.propose_timeout_millis * 1000) {
      round_++;
      round_state_ = RoundState();
      round_started_micros_ = NowMicros();
      MaybeProposeLocked();
    }
  }
}

uint64_t TendermintEngine::committed_batches() const {
  MutexLock lock(&mu_);
  return committed_batches_;
}

MempoolStats TendermintEngine::mempool_stats() const {
  MempoolStats out;
  out.admission = admission_.stats();
  out.bytes = out.admission.cur_bytes;
  MutexLock lock(&mu_);
  out.depth = mempool_.size();
  return out;
}

void TendermintEngine::OnExternalCommit(const std::vector<Transaction>& txns) {
  std::vector<std::function<void(Status)>> to_fire;
  {
    MutexLock lock(&mu_);
    bool swept = false;
    for (const auto& txn : txns) {
      std::string key = TxnKey(txn);
      admission_.Release(key);
      swept |= mempool_keys_.erase(key) > 0;
      auto done_it = done_.find(key);
      if (done_it != done_.end()) {
        if (done_it->second) to_fire.push_back(std::move(done_it->second));
        done_.erase(done_it);
      }
    }
    if (swept) {
      for (auto it = mempool_.begin(); it != mempool_.end();) {
        if (!mempool_keys_.contains(TxnKey(*it))) it = mempool_.erase(it);
        else ++it;
      }
      if (!mempool_.empty()) first_mempool_micros_ = NowMicros();
    }
  }
  for (auto& done : to_fire) done(Status::OK());
}

}  // namespace sebdb
