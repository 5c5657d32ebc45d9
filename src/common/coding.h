// Little-endian fixed-width and varint encoders/decoders for the on-disk
// block format and network messages. All Get* functions consume from a Slice
// and return false on truncated input (callers translate to
// Status::Corruption).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/slice.h"

namespace sebdb {

void PutFixed16(std::string* dst, uint16_t value);
void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Appends a varint length prefix followed by the bytes of value.
void PutLengthPrefixed(std::string* dst, const Slice& value);

/// Bytes PutVarint32/PutVarint64 append for `value`.
inline size_t VarintLength(uint64_t value) {
  size_t n = 1;
  for (; value >= 0x80; value >>= 7) n++;
  return n;
}

bool GetFixed16(Slice* input, uint16_t* value);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixed(Slice* input, Slice* result);

/// Encodes a signed value with zig-zag so small magnitudes stay short.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void PutVarSigned64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode(value));
}
inline bool GetVarSigned64(Slice* input, int64_t* value) {
  uint64_t u;
  if (!GetVarint64(input, &u)) return false;
  *value = ZigZagDecode(u);
  return true;
}

/// Decodes a fixed 32/64 directly from a raw pointer (caller checks bounds).
uint32_t DecodeFixed32(const char* ptr);
uint64_t DecodeFixed64(const char* ptr);
void EncodeFixed32(char* dst, uint32_t value);
void EncodeFixed64(char* dst, uint64_t value);

/// Lowercase hex of `bytes`, and its inverse (either case accepted; false on
/// an odd length or a non-hex digit).
std::string HexEncode(const Slice& bytes);
bool HexDecode(std::string_view hex, std::string* out);

}  // namespace sebdb
