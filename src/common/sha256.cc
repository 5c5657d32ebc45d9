#include "common/sha256.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sebdb {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

bool CpuHasShaNi() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & bit_SHA) != 0;  // leaf 7, EBX bit 29
  return ssse3 && sse41 && sha;
}

// Four rounds per step: the state lives as ABEF/CDGH (the layout
// sha256rnds2 wants), msg[] holds the next 16 schedule words as four
// 4-word groups, and each step derives group i+4 from groups i..i+3.
__attribute__((target("sha,sse4.1,ssse3"))) void ShaNiCompress(
    uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);              // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);            // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);    // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);         // CDGH

  for (; nblocks > 0; nblocks--, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    for (int i = 0; i < 4; i++) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; i++) {
      __m128i wk = _mm_add_epi32(
          msg[i & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (i < 12) {
        __m128i next = _mm_sha256msg1_epu32(msg[i & 3], msg[(i + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(msg[(i + 3) & 3], msg[(i + 2) & 3], 4));
        msg[i & 3] = _mm_sha256msg2_epu32(next, msg[(i + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);             // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);            // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);         // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);            // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#endif  // defined(__x86_64__)

}  // namespace

std::string Hash256::ToHex() const {
  return HexEncode(Slice(reinterpret_cast<const char*>(bytes.data()), 32));
}

bool Hash256::FromHex(std::string_view hex, Hash256* out) {
  std::string raw;
  if (hex.size() != 64 || !HexDecode(hex, &raw)) return false;
  std::memcpy(out->bytes.data(), raw.data(), 32);
  return true;
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

namespace detail {

void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t nblocks) {
  for (; nblocks > 0; nblocks--, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; i++) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; i++) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool Sha256CompressAccelerated(uint32_t state[8], const uint8_t* blocks,
                               size_t nblocks) {
  static const bool supported = CpuHasShaNi();
  if (!supported) return false;
  ShaNiCompress(state, blocks, nblocks);
  return true;
}

#else

bool Sha256CompressAccelerated(uint32_t*, const uint8_t*, size_t) {
  return false;
}

#endif  // defined(__x86_64__)

}  // namespace detail

namespace {

void Compress(uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  if (!detail::Sha256CompressAccelerated(state, blocks, nblocks)) {
    detail::Sha256CompressPortable(state, blocks, nblocks);
  }
}

}  // namespace

void Sha256::Update(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, 64 - buffer_len_);
    memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  const size_t whole = len / 64;
  if (whole > 0) {
    Compress(state_, p, whole);
    p += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finish() {
  // Append 0x80, zero-pad to 56 mod 64, then the 64-bit big-endian length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; i++) {
    buffer_[56 + i] = static_cast<uint8_t>((bit_count_ >> (56 - 8 * i)) & 0xff);
  }
  Compress(state_, buffer_, 1);

  Hash256 out;
  for (int i = 0; i < 8; i++) {
    out.bytes[4 * i] = static_cast<uint8_t>((state_[i] >> 24) & 0xff);
    out.bytes[4 * i + 1] = static_cast<uint8_t>((state_[i] >> 16) & 0xff);
    out.bytes[4 * i + 2] = static_cast<uint8_t>((state_[i] >> 8) & 0xff);
    out.bytes[4 * i + 3] = static_cast<uint8_t>(state_[i] & 0xff);
  }
  Reset();
  return out;
}

Hash256 Sha256::Digest(const Slice& data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

Hash256 Sha256::DigestPair(const Hash256& a, const Hash256& b) {
  Sha256 ctx;
  ctx.Update(a.bytes.data(), a.bytes.size());
  ctx.Update(b.bytes.data(), b.bytes.size());
  return ctx.Finish();
}

}  // namespace sebdb
