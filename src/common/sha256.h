// Standalone SHA-256 (FIPS 180-4). Used for block hashes, Merkle trees and
// the keyed-hash signature scheme. No external crypto dependency. On x86-64
// CPUs with the SHA extensions the compression function runs on SHA-NI,
// chosen once per process by CPUID; everywhere else the portable one runs.
// Both produce identical digests.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/slice.h"

namespace sebdb {

/// A 32-byte SHA-256 digest with value semantics and ordering.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Hash256&) const = default;
  auto operator<=>(const Hash256&) const = default;

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  /// Lowercase hex rendering, e.g. "9f86d0…".
  std::string ToHex() const;

  /// Parses 64 hex characters; returns false on malformed input.
  static bool FromHex(std::string_view hex, Hash256* out);

  Slice AsSlice() const {
    return Slice(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
};

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t len);
  void Update(const Slice& s) { Update(s.data(), s.size()); }
  Hash256 Finish();

  /// One-shot digest of a byte range.
  static Hash256 Digest(const Slice& data);
  /// Digest of the concatenation a||b (Merkle interior nodes).
  static Hash256 DigestPair(const Hash256& a, const Hash256& b);

 private:
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

namespace detail {

/// Portable compression of `nblocks` consecutive 64-byte blocks into state.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t nblocks);

/// SHA-NI compression with the same contract. Returns false, leaving state
/// untouched, when the CPU (or a non-x86-64 build) lacks the SHA extensions.
bool Sha256CompressAccelerated(uint32_t state[8], const uint8_t* blocks,
                               size_t nblocks);

}  // namespace detail

}  // namespace sebdb
