#include "common/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sebdb {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 (reflected IEEE polynomial 0xedb88320). tables[0] is the
// classic bytewise table; tables[k][b] is the CRC of byte b followed by k
// zero bytes, so eight table lookups fold eight input bytes at once.
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; k++) {
    for (uint32_t i = 0; i < 256; i++) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

/// Little-endian load; compilers fold it to one unaligned load on x86.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Slicing-by-8 over the raw (pre-inverted) register.
uint32_t SliceBy8(uint32_t crc, const unsigned char* p, size_t len) {
  for (; len >= 8; len -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; len--, p++) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

/// The fold needs at least four 16-byte lanes to start.
constexpr size_t kFoldMinBytes = 64;

bool CpuHasPclmul() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  return (ecx & bit_PCLMUL) != 0 && (ecx & bit_SSE4_1) != 0;
}

/// Unaligned 16-byte load.
inline __m128i Load(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Moves the 128-bit lane x forward by the distance the pair k encodes.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

// Carry-less-multiply folding over the raw (pre-inverted) register, after
// Intel's "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" with its bit-reflected IEEE constants (k_i = x^n mod P for
// the fold distances, then the Barrett pair mu and P'). `len` must be a
// multiple of 16 and at least kFoldMinBytes.
__attribute__((target("pclmul,sse4.1"))) uint32_t PclmulFold(
    uint32_t crc, const unsigned char* p, size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596LL, 0x0154442bd4LL);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009eLL, 0x01751997d0LL);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124LL);
  const __m128i barrett = _mm_set_epi64x(0x01f7011641LL, 0x01db710641LL);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four lanes fold 64 bytes ahead per step.
  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; len -= 64, p += 64) {
    x0 = _mm_xor_si128(Fold(x0, k1k2), Load(p));
    x1 = _mm_xor_si128(Fold(x1, k1k2), Load(p + 16));
    x2 = _mm_xor_si128(Fold(x2, k1k2), Load(p + 32));
    x3 = _mm_xor_si128(Fold(x3, k1k2), Load(p + 48));
  }

  // Merge the lanes into one, then fold any 16-byte blocks left.
  x0 = _mm_xor_si128(Fold(x0, k3k4), x1);
  x0 = _mm_xor_si128(Fold(x0, k3k4), x2);
  x0 = _mm_xor_si128(Fold(x0, k3k4), x3);
  for (; len >= 16; len -= 16, p += 16) {
    x0 = _mm_xor_si128(Fold(x0, k3k4), Load(p));
  }

  // 128 -> 64 bits, then 64 -> 32 bits plus a 32-bit remainder.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10),
                     _mm_srli_si128(x0, 8));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
      _mm_srli_si128(x0, 4));

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32(uint32_t crc, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
#if defined(__x86_64__)
  static const bool pclmul = CpuHasPclmul();
  if (pclmul && len >= kFoldMinBytes) {
    const size_t whole = len & ~static_cast<size_t>(15);
    crc = PclmulFold(crc, p, whole);
    p += whole;
    len -= whole;
  }
#endif
  return ~SliceBy8(crc, p, len);
}

namespace detail {

uint32_t Crc32Portable(uint32_t crc, const void* data, size_t len) {
  return ~SliceBy8(~crc, static_cast<const unsigned char*>(data), len);
}

}  // namespace detail

}  // namespace sebdb
