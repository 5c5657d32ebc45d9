#include "common/coding.h"

#include <cstring>

namespace sebdb {

void EncodeFixed32(char* dst, uint32_t value) {
  dst[0] = static_cast<char>(value & 0xff);
  dst[1] = static_cast<char>((value >> 8) & 0xff);
  dst[2] = static_cast<char>((value >> 16) & 0xff);
  dst[3] = static_cast<char>((value >> 24) & 0xff);
}

void EncodeFixed64(char* dst, uint64_t value) {
  for (int i = 0; i < 8; i++) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

uint32_t DecodeFixed32(const char* ptr) {
  const auto* p = reinterpret_cast<const unsigned char*>(ptr);
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t DecodeFixed64(const char* ptr) {
  const auto* p = reinterpret_cast<const unsigned char*>(ptr);
  uint64_t v = 0;
  for (int i = 7; i >= 0; i--) v = (v << 8) | p[i];
  return v;
}

void PutFixed16(std::string* dst, uint16_t value) {
  char buf[2];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  dst->append(buf, 2);
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  EncodeFixed32(buf, value);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  EncodeFixed64(buf, value);
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t value) {
  unsigned char buf[5];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<unsigned char>(value | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), n);
}

void PutLengthPrefixed(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

bool GetFixed16(Slice* input, uint16_t* value) {
  if (input->size() < 2) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(input->data());
  *value = static_cast<uint16_t>(p[0] | (p[1] << 8));
  input->remove_prefix(2);
  return true;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v;
  if (!GetVarint64(input, &v) || v > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v);
  return true;
}

bool GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    auto byte = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= (static_cast<uint64_t>(byte & 0x7f) << shift);
    } else {
      result |= (static_cast<uint64_t>(byte) << shift);
      *value = result;
      return true;
    }
  }
  return false;
}

bool GetLengthPrefixed(Slice* input, Slice* result) {
  uint64_t len;
  if (!GetVarint64(input, &len) || input->size() < len) return false;
  *result = Slice(input->data(), static_cast<size_t>(len));
  input->remove_prefix(static_cast<size_t>(len));
  return true;
}

std::string HexEncode(const Slice& bytes) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (size_t i = 0; i < bytes.size(); i++) {
    const auto b = static_cast<uint8_t>(bytes[i]);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

bool HexDecode(std::string_view hex, std::string* out) {
  auto nibble = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) return false;
  out->clear();
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]), lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

}  // namespace sebdb
