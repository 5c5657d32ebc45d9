// Bounded admission control for the write path (DESIGN.md §"Overload and
// admission contract"). Every consensus ingress queue — the Tendermint
// mempool and the Kafka orderer's pending queue — charges transactions
// against an AdmissionController before enqueueing them, so a saturated node
// sheds load with a structured ResourceExhausted (carrying a retry_after
// hint) instead of growing without bound.
//
// The controller is dedup-aware: admitting a key that is already in flight
// is a no-op success (resubmission of a pending txn is not double-counted).
// Occupancy drives a three-state overload machine:
//   healthy    — below the throttle threshold
//   throttling — above the threshold but below the caps; admissions still
//                succeed, but surfaced state tells callers to slow down
//   shedding   — a cap is exhausted; new work is rejected with a
//                retry_after hint that scales with occupancy
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace sebdb {

enum class OverloadState : unsigned char {
  kHealthy = 0,
  kThrottling = 1,
  kShedding = 2,
};

const char* OverloadStateName(OverloadState state);

struct AdmissionOptions {
  /// Master switch. When false, Admit always succeeds and nothing is
  /// tracked (Release becomes a no-op); counters still tally admissions so
  /// benchmarks can compare on-vs-off.
  bool enabled = true;

  /// Global cap on in-flight transactions (0 = unlimited).
  uint64_t max_txns = 100000;

  /// Global cap on in-flight transaction bytes (0 = unlimited).
  uint64_t max_bytes = 64ull << 20;

  /// Fair-share cap on in-flight transactions per sender (SenID). 0 means
  /// no per-sender quota.
  uint64_t max_txns_per_sender = 0;

  /// Occupancy fraction (of either global cap) at which the state machine
  /// leaves kHealthy for kThrottling.
  double throttle_threshold = 0.75;

  /// Base for the retry_after hint attached to rejections. The hint grows
  /// with occupancy, up to 4x this base.
  int64_t retry_after_base_millis = 25;
};

struct AdmissionStats {
  uint64_t admitted = 0;  // successful first-time admissions
  uint64_t deduped = 0;   // admissions of an already-in-flight key
  uint64_t released = 0;  // keys released (committed, shed downstream, ...)
  uint64_t rejected_txns = 0;    // rejections by the global txn cap
  uint64_t rejected_bytes = 0;   // rejections by the global byte cap
  uint64_t rejected_sender = 0;  // rejections by a per-sender quota
  uint64_t cur_txns = 0;
  uint64_t cur_bytes = 0;
  uint64_t peak_txns = 0;
  uint64_t peak_bytes = 0;
  uint64_t state_transitions = 0;  // overload-state changes since start
  OverloadState state = OverloadState::kHealthy;

  uint64_t rejected_total() const {
    return rejected_txns + rejected_bytes + rejected_sender;
  }
};

/// Sums the counters of two controllers (used by engines that run separate
/// submit-side and orderer-side controllers); peaks take the max, the state
/// takes the more severe of the two.
AdmissionStats MergeAdmissionStats(const AdmissionStats& a,
                                   const AdmissionStats& b);

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Charges one transaction against the caps. `key` identifies the txn
  /// (engines use the txn hash), `sender` its SenID for the fair-share
  /// quota, `bytes` its encoded size. Returns OK and records the key as
  /// in-flight on success; if the key is already in flight, returns OK
  /// without charging and sets *duplicate. On overload returns
  /// ResourceExhausted with a retry_after_millis hint.
  Status Admit(const std::string& key, const std::string& sender, size_t bytes,
               bool* duplicate = nullptr) EXCLUDES(mu_);

  /// Returns the charge for `key` (committed, shed downstream, aborted).
  /// Unknown keys are ignored, so callers may release unconditionally.
  void Release(const std::string& key) EXCLUDES(mu_);

  /// Drops all in-flight charges (engine shutdown). Counters survive so a
  /// final stats snapshot still reflects the run.
  void Clear() EXCLUDES(mu_);

  OverloadState state() const EXCLUDES(mu_);

  /// Point-in-time snapshot, by value (same idiom as CacheStats).
  AdmissionStats stats() const EXCLUDES(mu_);

  const AdmissionOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string sender;
    uint64_t bytes = 0;
  };

  /// Max of txn- and byte-occupancy, in [0, 1].
  double OccupancyLocked() const REQUIRES(mu_);
  /// Recomputes the overload state from occupancy, counting transitions.
  void UpdateStateLocked() REQUIRES(mu_);
  /// Backoff hint for a rejection at current occupancy.
  int64_t RetryAfterLocked() const REQUIRES(mu_);

  const AdmissionOptions options_;

  mutable Mutex mu_;
  std::unordered_map<std::string, Entry> inflight_ GUARDED_BY(mu_);
  std::unordered_map<std::string, uint64_t> per_sender_ GUARDED_BY(mu_);
  AdmissionStats stats_ GUARDED_BY(mu_);
};

}  // namespace sebdb
