// Stage replay for the traced run: the run's own signed transactions are
// pushed, in batches of the batch size the run observed, through each
// write-path stage in turn, in-process and one stage at a time, so each
// stage's cost is measured alone: signature check, leader block build and
// append (ChainManager::AppendBatch), follower validate and apply
// (ChainManager::ApplyBlockRecord with signatures verified), the Merkle root
// alone, and the raw block store append alone.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "core/signer.h"
#include "types/transaction.h"

namespace sebdb {
namespace e2e {

struct StageCosts {
  double verify_sig_us_per_txn = 0;
  double append_batch_us_per_block = 0;
  double apply_record_us_per_block = 0;
  double merkle_us_per_block = 0;
  double store_append_us_per_block = 0;
  int blocks = 0;
};

/// `keys` must hold every sender of `txns` and kSchemaSigner. Scratch chains
/// are made under `scratch_dir` and removed afterwards.
Status ReplayStages(const std::vector<Transaction>& txns, int batch_size,
                    const KeyStore& keys, const std::string& scratch_dir,
                    StageCosts* out);

}  // namespace e2e
}  // namespace sebdb
