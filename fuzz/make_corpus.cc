// Regenerates the checked-in seed corpora under fuzz/corpus/. Each seed is a
// small *valid* input for its harness, so mutation fuzzing starts near the
// interesting accept/reject boundary instead of deep in reject-everything
// territory. Deterministic: rerunning produces byte-identical files.
//
//   make_corpus <output-dir>   # e.g. make_corpus fuzz/corpus
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "auth/mbtree.h"
#include "common/coding.h"
#include "network/frame.h"
#include "storage/block.h"
#include "storage/checkpoint.h"
#include "storage/page.h"
#include "types/transaction.h"
#include "types/value.h"

namespace sebdb {
namespace {

void WriteFile(const std::string& dir, const std::string& name,
               const std::string& bytes) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    fprintf(stderr, "make_corpus: cannot write %s\n", path.c_str());
    exit(2);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void MakeDir(const std::string& path) {
  if (mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    fprintf(stderr, "make_corpus: cannot mkdir %s\n", path.c_str());
    exit(2);
  }
}

Transaction MakeTxn(uint64_t tid, const std::string& table,
                    const std::string& sender, Timestamp ts,
                    std::vector<Value> values) {
  Transaction txn;
  txn.set_tid(tid);
  txn.set_ts(ts);
  txn.set_sender(sender);
  txn.set_tname(table);
  txn.set_signature("seed-signature");
  txn.set_values(std::move(values));
  return txn;
}

void TransactionSeeds(const std::string& dir) {
  {
    std::string bytes;
    MakeTxn(1, "donate", "org1", 1000,
            {Value::Str("disaster-relief"), Value::Int(250)})
        .EncodeTo(&bytes);
    WriteFile(dir, "txn_donate", bytes);
  }
  {
    std::string bytes;
    MakeTxn(7, "readings", "sensor-12", 99999,
            {Value::Double(21.5), Value::Bool(true), Value::Null(),
             Value::Ts(123456789)})
        .EncodeTo(&bytes);
    WriteFile(dir, "txn_all_types", bytes);
  }
  {
    Decimal dec;
    (void)Decimal::FromString("12345.67", &dec);
    std::string bytes;
    MakeTxn(42, "transfer", "alice", 5000,
            {Value::Dec(dec), Value::Str(std::string(300, 'x'))})
        .EncodeTo(&bytes);
    WriteFile(dir, "txn_decimal_bigstr", bytes);
  }
  {
    // A bare Value encoding (the harness also decodes raw values).
    std::string bytes;
    Value::Str("standalone-value").EncodeTo(&bytes);
    WriteFile(dir, "value_str", bytes);
  }
}

Block MakeBlock(BlockId height, TransactionId first_tid, int num_txns) {
  BlockBuilder builder;
  builder.SetHeight(height)
      .SetPrevHash(Hash256{})
      .SetTimestamp(1000 + height)
      .SetFirstTid(first_tid);
  for (int i = 0; i < num_txns; i++) {
    builder.AddTransaction(MakeTxn(first_tid + i, "donate",
                                   "org" + std::to_string(i), 1000 + i,
                                   {Value::Int(i), Value::Str("seed")}));
  }
  return std::move(builder).Build("packager-signature");
}

void BlockSeeds(const std::string& dir) {
  {
    std::string bytes;
    MakeBlock(0, 1, 0).EncodeTo(&bytes);
    WriteFile(dir, "block_empty", bytes);
  }
  {
    std::string bytes;
    MakeBlock(1, 1, 1).EncodeTo(&bytes);
    WriteFile(dir, "block_one_txn", bytes);
  }
  {
    std::string bytes;
    MakeBlock(12, 100, 5).EncodeTo(&bytes);
    WriteFile(dir, "block_five_txns", bytes);
  }
  {
    // A bare header (the harness also decodes raw headers).
    std::string bytes;
    MakeBlock(3, 10, 2).header().EncodeTo(&bytes);
    WriteFile(dir, "header_only", bytes);
  }
}

void CodingSeeds(const std::string& dir) {
  {
    std::string bytes;
    PutVarint32(&bytes, 0);
    PutVarint32(&bytes, 127);
    PutVarint32(&bytes, 128);
    PutVarint32(&bytes, 0xffffffffu);
    WriteFile(dir, "varint32_boundaries", bytes);
  }
  {
    std::string bytes;
    PutVarint64(&bytes, 0xffffffffffffffffull);
    PutVarSigned64(&bytes, -1);
    PutVarSigned64(&bytes, INT64_MIN);
    WriteFile(dir, "varint64_extremes", bytes);
  }
  {
    std::string bytes;
    PutLengthPrefixed(&bytes, Slice("hello"));
    PutLengthPrefixed(&bytes, Slice(""));
    PutLengthPrefixed(&bytes, Slice(std::string(200, 'z')));
    WriteFile(dir, "length_prefixed", bytes);
  }
  {
    std::string bytes;
    PutFixed16(&bytes, 0xbeef);
    PutFixed32(&bytes, 0xdeadbeefu);
    PutFixed64(&bytes, 0x0123456789abcdefull);
    WriteFile(dir, "fixed_widths", bytes);
  }
}

void SqlSeeds(const std::string& dir) {
  WriteFile(dir, "create",
            "CREATE TABLE donate (donor STRING, amount INT64);");
  WriteFile(dir, "insert",
            "INSERT INTO donate VALUES ('relief', 250);");
  WriteFile(dir, "select_where",
            "SELECT donor, amount FROM donate WHERE amount > 100 AND "
            "block_id < 50;");
  WriteFile(dir, "select_join",
            "SELECT a.donor, b.amount FROM donate a JOIN transfer b ON "
            "a.donor = b.sender WHERE a.amount >= 10;");
  WriteFile(dir, "aggregate",
            "SELECT donor, SUM(amount) FROM donate GROUP BY donor;");
  WriteFile(dir, "trace",
            "SELECT * FROM donate WHERE timestamp BETWEEN 100 AND 200;");
}

void VoSeeds(const std::string& dir) {
  std::vector<MbTree::Entry> entries;
  for (int i = 0; i < 40; i++) {
    std::string record;
    Value::Int(i * 10).EncodeTo(&record);  // key prefix, as KeyOfRecord expects
    record += "payload-" + std::to_string(i);
    entries.push_back(MbTree::Entry{Value::Int(i * 10), record});
  }
  auto tree = MbTree::Build(std::move(entries));
  {
    VerificationObject vo;
    Value lo = Value::Int(100), hi = Value::Int(200);
    if (!tree->ProveRange(&lo, &hi, &vo).ok()) exit(2);
    std::string bytes;
    vo.EncodeTo(&bytes);
    WriteFile(dir, "vo_mid_range", bytes);
  }
  {
    VerificationObject vo;
    if (!tree->ProveRange(nullptr, nullptr, &vo).ok()) exit(2);
    std::string bytes;
    vo.EncodeTo(&bytes);
    WriteFile(dir, "vo_full_range", bytes);
  }
  {
    VerificationObject vo;
    Value lo = Value::Int(1), hi = Value::Int(2);  // empty range
    if (!tree->ProveRange(&lo, &hi, &vo).ok()) exit(2);
    std::string bytes;
    vo.EncodeTo(&bytes);
    WriteFile(dir, "vo_empty_range", bytes);
  }
}

void TcpFrameSeeds(const std::string& dir) {
  {
    std::string bytes;
    EncodeFrame(Message{"gossip.digest", "node1", "node2", "digest-body"},
                &bytes);
    WriteFile(dir, "frame_gossip", bytes);
  }
  {
    std::string bytes;
    EncodeFrame(Message{"rpc.request", "client-0", "node1",
                        std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8) +
                            "body"},
                &bytes);
    WriteFile(dir, "frame_rpc_request", bytes);
  }
  {
    std::string bytes;
    EncodeFrame(Message{"net.ping", "node1", "node2", ""}, &bytes);
    WriteFile(dir, "frame_heartbeat", bytes);
  }
  {
    // Empty body, minimal ids: the smallest accepted frame.
    std::string bytes;
    EncodeFrame(Message{"tm.vote", "a", "b", ""}, &bytes);
    WriteFile(dir, "frame_min", bytes);
  }
  {
    // Two frames back to back: the decoder must consume exactly one.
    std::string bytes;
    EncodeFrame(Message{"repair.pull", "node2", "node3", "range"}, &bytes);
    EncodeFrame(Message{"repair.push", "node3", "node2", "blocks"}, &bytes);
    WriteFile(dir, "frame_pair", bytes);
  }
  {
    // Boundary seed: maximum-length endpoint ids.
    std::string bytes;
    EncodeFrame(Message{"kafka.submit", std::string(kMaxEndpointIdBytes, 'f'),
                        std::string(kMaxEndpointIdBytes, 't'), "x"},
                &bytes);
    WriteFile(dir, "frame_max_ids", bytes);
  }
}

void PageSeeds(const std::string& dir) {
  {
    std::string bytes;
    if (!EncodePage(PageType::kBlob, "checkpoint blob payload", &bytes).ok()) {
      exit(2);
    }
    WriteFile(dir, "page_blob", bytes);
  }
  {
    // A leaf page the way DiskBpTreeBuilder lays one out: next pointer,
    // entry count, then key/value pairs.
    std::string payload;
    PutFixed32(&payload, 0xFFFFFFFFu);  // kInvalidPageId: last leaf
    PutVarint32(&payload, 2);
    PutVarint64(&payload, 10);  // key 10
    PutLengthPrefixed(&payload, Slice("value-a"));
    PutVarint64(&payload, 20);  // key 20
    PutLengthPrefixed(&payload, Slice("value-b"));
    std::string bytes;
    if (!EncodePage(PageType::kBTreeLeaf, payload, &bytes).ok()) exit(2);
    WriteFile(dir, "page_leaf", bytes);
  }
  {
    // A layered-index leaf: Value keys, varint positions in the block.
    std::string payload;
    PutFixed32(&payload, 7);  // next leaf
    PutVarint32(&payload, 3);
    for (const Value& v : {Value::Int(-4), Value::Str("org-17"),
                           Value::Str("org-17")}) {
      v.EncodeTo(&payload);
      PutVarint32(&payload, static_cast<uint32_t>(payload.size()));
    }
    std::string bytes;
    if (!EncodePage(PageType::kBTreeLeaf, payload, &bytes).ok()) exit(2);
    WriteFile(dir, "page_value_leaf", bytes);
  }
  {
    // An internal page: key count, child ids, then separators (the first
    // keys of children 1..n).
    std::string payload;
    PutVarint32(&payload, 2);
    for (uint32_t child : {3u, 4u, 5u}) PutFixed32(&payload, child);
    Value::Str("org-05").EncodeTo(&payload);
    Value::Str("org-12").EncodeTo(&payload);
    std::string bytes;
    if (!EncodePage(PageType::kBTreeInternal, payload, &bytes).ok()) exit(2);
    WriteFile(dir, "page_internal", bytes);
  }
  {
    std::string bytes;
    if (!EncodePage(PageType::kBTreeInternal, std::string(kMaxPagePayload, 'i'),
                    &bytes)
             .ok()) {
      exit(2);
    }
    WriteFile(dir, "page_full_internal", bytes);
  }
  {
    CheckpointRecord rec;
    rec.id = 3;
    rec.height = 4096;
    rec.files.push_back({"ckpt_2_bidx", 8 * kPageSize});
    rec.files.push_back({"ckpt_3_bidx", 2 * kPageSize});
    rec.files.push_back({"ckpt_3_meta", kPageSize});
    std::string bytes;
    CheckpointManager::EncodeManifestRecord(rec, &bytes);
    WriteFile(dir, "manifest_record", bytes);
  }
  {
    CheckpointRecord rec;  // empty-chain checkpoint: no files
    rec.id = 1;
    rec.height = 1;
    std::string bytes;
    CheckpointManager::EncodeManifestRecord(rec, &bytes);
    WriteFile(dir, "manifest_record_min", bytes);
  }
}

}  // namespace
}  // namespace sebdb

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  sebdb::MakeDir(root);
  struct {
    const char* name;
    void (*fill)(const std::string&);
  } kSets[] = {
      {"transaction_decode", sebdb::TransactionSeeds},
      {"block_decode", sebdb::BlockSeeds},
      {"coding", sebdb::CodingSeeds},
      {"sql_parser", sebdb::SqlSeeds},
      {"vo_verify", sebdb::VoSeeds},
      {"page_decode", sebdb::PageSeeds},
      {"tcp_frame", sebdb::TcpFrameSeeds},
  };
  for (const auto& set : kSets) {
    const std::string dir = root + "/" + set.name;
    sebdb::MakeDir(dir);
    set.fill(dir);
  }
  printf("make_corpus: wrote seeds under %s\n", root.c_str());
  return 0;
}
