// Varint / fixed / length-prefixed coding primitives: every network payload
// and storage record is assembled from these, so they are the innermost
// untrusted-input surface. Successful decodes must re-encode to bytes that
// decode to the same value (canonical-form check for varints). The same
// input also drives the hashing kernels differentially: SHA-NI against the
// portable SHA-256 compressor, the dispatched CRC-32 (PCLMULQDQ fold or
// slicing-by-8) against bytewise CRC-32.
#include <algorithm>
#include <cstring>
#include <string>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/sha256.h"
#include "common/slice.h"
#include "fuzz/harnesses.h"

namespace sebdb {
namespace fuzz {

namespace {

uint32_t BytewiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < size; i++) {
    crc ^= data[i];
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

void CheckHashKernels(const uint8_t* data, size_t size) {
  if (Crc32(0, data, size) != BytewiseCrc32(data, size)) __builtin_trap();

  // Whole blocks of the input, zero-extended to at least one block; the
  // first 32 bytes (when present) also seed the chaining state.
  std::string blocks(reinterpret_cast<const char*>(data), size);
  blocks.resize(std::max<size_t>(64, size - size % 64), '\0');
  uint32_t portable[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  if (size > 0) memcpy(portable, data, std::min(size, sizeof(portable)));
  uint32_t accelerated[8];
  memcpy(accelerated, portable, sizeof(portable));
  const auto* p = reinterpret_cast<const uint8_t*>(blocks.data());
  detail::Sha256CompressPortable(portable, p, blocks.size() / 64);
  if (detail::Sha256CompressAccelerated(accelerated, p, blocks.size() / 64) &&
      memcmp(portable, accelerated, sizeof(portable)) != 0) {
    __builtin_trap();
  }
}

}  // namespace

int FuzzCoding(const uint8_t* data, size_t size) {
  CheckHashKernels(data, size);

  const Slice raw(reinterpret_cast<const char*>(data), size);

  {
    Slice input = raw;
    uint32_t v32;
    while (GetVarint32(&input, &v32)) {
      std::string enc;
      PutVarint32(&enc, v32);
      Slice again(enc);
      uint32_t back;
      if (!GetVarint32(&again, &back) || back != v32 || !again.empty()) {
        __builtin_trap();
      }
    }
  }
  {
    Slice input = raw;
    uint64_t v64;
    while (GetVarint64(&input, &v64)) {
      std::string enc;
      PutVarint64(&enc, v64);
      Slice again(enc);
      uint64_t back;
      if (!GetVarint64(&again, &back) || back != v64 || !again.empty()) {
        __builtin_trap();
      }
    }
  }
  {
    Slice input = raw;
    int64_t s64;
    while (GetVarSigned64(&input, &s64)) {
      std::string enc;
      PutVarSigned64(&enc, s64);
      Slice again(enc);
      int64_t back;
      if (!GetVarSigned64(&again, &back) || back != s64) __builtin_trap();
    }
  }
  {
    Slice input = raw;
    Slice piece;
    while (GetLengthPrefixed(&input, &piece)) {
      std::string enc;
      PutLengthPrefixed(&enc, piece);
      Slice again(enc);
      Slice back;
      if (!GetLengthPrefixed(&again, &back) ||
          back.ToString() != piece.ToString()) {
        __builtin_trap();
      }
    }
  }
  {
    Slice input = raw;
    uint16_t f16;
    uint32_t f32;
    uint64_t f64;
    (void)GetFixed16(&input, &f16);
    (void)GetFixed32(&input, &f32);
    (void)GetFixed64(&input, &f64);
  }
  return 0;
}

}  // namespace fuzz
}  // namespace sebdb
