// Dynamically-sized bitmap used by the table-level index and by the first
// level of the layered index (one bit per block, or per histogram bucket).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"

namespace sebdb {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t num_bits) { Resize(num_bits); }

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  /// Grows (or shrinks) the bitmap; new bits are zero.
  void Resize(size_t num_bits);

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  /// Sets bit i, growing the bitmap if i is past the end.
  void SetGrow(size_t i);

  /// Number of set bits.
  size_t Count() const;
  bool AnySet() const;
  /// True when some bit is set in both (what And(other).AnySet() would
  /// report, without the copy).
  bool Intersects(const Bitmap& other) const;

  /// In-place intersection / union. The result has max(size) bits; the
  /// shorter operand is treated as zero-extended.
  Bitmap& And(const Bitmap& other);
  Bitmap& Or(const Bitmap& other);

  /// Positions of all set bits, ascending.
  std::vector<size_t> SetBits() const;
  /// Positions set in both, ascending, into *out (replacing its contents):
  /// And(other).SetBits() without the copy.
  void SetBitsAnd(const Bitmap& other, std::vector<size_t>* out) const;

  /// First set bit at or after `from`, or npos.
  size_t NextSetBit(size_t from) const;
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Compact binary form for embedding in index snapshots / messages.
  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* input, Bitmap* out);

  bool operator==(const Bitmap&) const = default;

  std::string ToString() const;  // e.g. "10110" (bit 0 first), for debugging

 private:
  std::vector<uint64_t> words_;
  size_t num_bits_ = 0;
};

}  // namespace sebdb
