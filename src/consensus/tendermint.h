// Tendermint-style BFT engine (substitutes Tendermint 0.19.3 in the write
// benchmark). Height-based rounds with a rotating proposer:
//   proposal (proposer of the round) -> prevote (all) -> precommit on >2/3
//   prevotes -> commit on >2/3 precommits.
// Submitted transactions enter a gossiped mempool after a *serial* CheckTx;
// committed transactions pass through a *serial* DeliverTx. The paper
// attributes Tendermint's limited throughput exactly to this serial
// check-then-deliver path, so both are modeled with a configurable per-
// transaction cost.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/admission.h"
#include "common/sha256.h"
#include "common/thread_annotations.h"
#include "consensus/engine.h"
#include "network/network.h"

namespace sebdb {

struct TendermintOptions {
  /// Simulated serial work per transaction in CheckTx (admission-side
  /// validation). Deliver spins nothing: applying the ordered batch is the
  /// application's block apply (ChainManager, DESIGN.md §13).
  int64_t serial_txn_cost_micros = 50;
  /// Proposal timeout: after this, the next round's proposer takes over.
  int64_t propose_timeout_millis = 1000;
};

class TendermintEngine : public ConsensusEngine {
 public:
  TendermintEngine(std::string node_id, std::vector<std::string> participants,
                   Network* network, ConsensusOptions options,
                   BatchCommitFn commit_fn,
                   TendermintOptions tm_options = TendermintOptions());
  ~TendermintEngine() override;

  std::string name() const override { return "tendermint"; }
  Status Start() override;
  void Stop() override;
  Status Submit(Transaction txn, std::function<void(Status)> done) override;
  uint64_t committed_batches() const override;
  MempoolStats mempool_stats() const override;
  void OnExternalCommit(const std::vector<Transaction>& txns) override;

  void HandleMessage(const Message& message);

  uint64_t height() const;

 private:
  struct RoundState {
    std::string proposal_payload;
    Hash256 digest;
    bool have_proposal = false;
    bool sent_prevote = false;
    bool sent_precommit = false;
    // Sender -> the digest its vote carries. A vote may arrive before the
    // proposal, so it is kept whatever its digest and counts only toward a
    // quorum for that digest (VotesFor).
    std::map<std::string, Hash256> prevotes;
    std::map<std::string, Hash256> precommits;
  };

  static int VotesFor(const std::map<std::string, Hash256>& votes,
                      const Hash256& digest) {
    return static_cast<int>(std::count_if(
        votes.begin(), votes.end(),
        [&](const auto& vote) { return vote.second == digest; }));
  }

  std::string ProposerOf(uint64_t height, uint32_t round) const {
    return participants_[(height + round) % participants_.size()];
  }
  int QuorumSize() const {  // strictly more than 2/3
    return static_cast<int>(participants_.size() * 2 / 3) + 1;
  }
  // Only validators vote: a vote under any other sender id is dropped, so
  // outsiders cannot fill a quorum. (A frame's `from` is still self-declared;
  // a forged vote under a real validator id needs signed votes to reject.)
  bool IsParticipant(const std::string& id) const {
    return std::find(participants_.begin(), participants_.end(), id) !=
           participants_.end();
  }

  void OnTx(const Message& message);
  void OnProposal(const Message& message);
  void OnPrevote(const Message& message);
  void OnPrecommit(const Message& message);
  void MaybeProposeLocked() REQUIRES(mu_);
  // Records this node's vote for the round's proposal in *votes and
  // broadcasts it as `type`.
  void VoteLocked(const std::string& type,
                  std::map<std::string, Hash256>* votes) REQUIRES(mu_);
  void MaybePrecommitLocked() REQUIRES(mu_);
  void MaybeCommitLocked() REQUIRES(mu_);
  void TimerLoop();
  void BroadcastToReplicas(const std::string& type,
                           const std::string& payload);
  void SerialWork(size_t txn_count) const;

  const std::string node_id_;
  const std::vector<std::string> participants_;
  Network* network_;
  const ConsensusOptions options_;
  BatchCommitFn commit_fn_;
  const TendermintOptions tm_options_;
  // Bounds the mempool; internally synchronized, safe to call under mu_.
  AdmissionController admission_;

  mutable Mutex mu_;
  bool running_ GUARDED_BY(mu_) = false;
  std::thread timer_;
  CondVar timer_cv_;

  uint64_t height_ GUARDED_BY(mu_) = 0;  // next batch sequence to commit
  uint32_t round_ GUARDED_BY(mu_) = 0;
  int64_t round_started_micros_ GUARDED_BY(mu_) = 0;
  RoundState round_state_ GUARDED_BY(mu_);
  bool committing_ GUARDED_BY(mu_) = false;

  // Mempool in arrival order; keys deduplicate gossiped transactions.
  std::deque<Transaction> mempool_ GUARDED_BY(mu_);
  std::unordered_set<std::string> mempool_keys_ GUARDED_BY(mu_);
  int64_t first_mempool_micros_ GUARDED_BY(mu_) = 0;

  uint64_t committed_batches_ GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, std::function<void(Status)>> done_
      GUARDED_BY(mu_);
};

}  // namespace sebdb
