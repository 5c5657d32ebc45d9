// Page and checkpoint-manifest decode: the exact bytes the persistence
// layer reads back from disk. A page image crosses the trust boundary on
// every buffer-pool fault (checkpoint files survive crashes and bit rot);
// a manifest record is parsed at every startup to pick the recovery point.
// Both must reject arbitrary bytes without crashing, and anything they
// accept must re-encode/re-decode losslessly. The B+-tree node payload of
// an accepted page is then parsed in place by DiskBpTree's read paths, so
// it is walked the same way and must never crash or read past its end.
#include <cstring>
#include <memory>
#include <string>

#include "common/slice.h"
#include "fuzz/harnesses.h"
#include "index/block_index.h"
#include "index/index_codec.h"
#include "storage/checkpoint.h"
#include "storage/disk_bptree.h"
#include "storage/page.h"

namespace sebdb {
namespace fuzz {
namespace {

// Parses `payload` as a node of `type` the way DiskBpTree does — a leaf
// one entry at a time, an internal page by its descent step with a
// predicate that never holds, which decodes every separator and reads the
// last child id — over an exactly-sized heap copy, so a read past the
// payload trips ASan.
template <typename Key, typename Val, typename Codec>
void WalkNode(PageType type, const Slice& payload) {
  using Tree = DiskBpTree<Key, Val, Codec>;
  std::unique_ptr<char[]> copy(new char[payload.size()]);
  if (payload.size() > 0) {
    std::memcpy(copy.get(), payload.data(), payload.size());
  }
  Slice in(copy.get(), payload.size());
  Key key{};
  if (type == PageType::kBTreeLeaf) {
    PageId next;
    uint32_t count;
    if (!Tree::ParseLeafHeader(&in, &next, &count)) return;
    Val val{};
    for (uint32_t i = 0; i < count; i++) {
      if (!Codec::DecodeKey(&in, &key) || !Codec::DecodeVal(&in, &val)) break;
    }
    if (in.data() + in.size() != copy.get() + payload.size()) {
      __builtin_trap();
    }
  } else if (type == PageType::kBTreeInternal) {
    PageId child;
    Tree::ChildOf(in, [](const Key&) { return false; }, &key, &child).ok();
  }
}

// Both key layouts checkpoints store: layered-index trees (Value ->
// position) and block-index segments.
void WalkNodeAllCodecs(PageType type, const Slice& payload) {
  WalkNode<Value, uint32_t, ValuePosCodec>(type, payload);
  WalkNode<BlockIndexKey, BlockIndexEntry, BlockIndexCodec>(type, payload);
}

}  // namespace

int FuzzPageDecode(const uint8_t* data, size_t size) {
  const Slice raw(reinterpret_cast<const char*>(data), size);

  // A CRC only catches accidental damage: the node parser must hold up on
  // any bytes, and mutations of a page image rarely keep its CRC valid, so
  // the raw input is also walked as both node types.
  WalkNodeAllCodecs(PageType::kBTreeLeaf, raw);
  WalkNodeAllCodecs(PageType::kBTreeInternal, raw);

  {
    // As-is: only exactly kPageSize bytes may ever decode.
    PageType type;
    Slice payload;
    if (DecodePage(raw, &type, &payload).ok()) {
      if (size != kPageSize || payload.size() > kMaxPagePayload) {
        __builtin_trap();
      }
    }
  }
  {
    // Zero-padded to a full page, the way a torn image would reach the
    // decoder if size checks slipped: the CRC must still gate acceptance,
    // and an accepted payload must round-trip through EncodePage.
    std::string padded(kPageSize, '\0');
    std::memcpy(padded.data(), data, std::min(size, kPageSize));
    PageType type;
    Slice payload;
    if (DecodePage(padded, &type, &payload).ok()) {
      // The CRC covers header + payload, not the zero padding, so an
      // accepted page must re-encode identically over that covered prefix
      // (the re-encoding canonicalizes any garbage padding to zeros).
      std::string reencoded;
      if (!EncodePage(type, payload, &reencoded).ok() ||
          reencoded.compare(0, kPageHeaderSize + payload.size(), padded, 0,
                            kPageHeaderSize + payload.size()) != 0) {
        __builtin_trap();
      }
      WalkNodeAllCodecs(type, payload);
    }
  }
  {
    Slice input = raw;
    CheckpointRecord rec;
    if (CheckpointManager::DecodeManifestRecord(&input, &rec)) {
      std::string reencoded;
      CheckpointManager::EncodeManifestRecord(rec, &reencoded);
      Slice again(reencoded);
      CheckpointRecord rec2;
      if (!CheckpointManager::DecodeManifestRecord(&again, &rec2) ||
          !again.empty() || rec2.id != rec.id || rec2.height != rec.height ||
          rec2.files.size() != rec.files.size()) {
        __builtin_trap();  // accepted record must round-trip
      }
    }
  }
  return 0;
}

}  // namespace fuzz
}  // namespace sebdb
