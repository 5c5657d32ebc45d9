// CRC-32 (IEEE 802.3 polynomial): the integrity check of on-disk block
// records, checkpoint and page files, and every TCP frame's payload.
#pragma once

#include <cstdint>

#include "common/slice.h"

namespace sebdb {

/// Extends a running CRC with the given bytes (start with crc = 0). Runs of
/// 64 bytes or more fold with PCLMULQDQ when the CPU has it (checked once
/// per process); the rest, and other CPUs, use slicing-by-8. Both give the
/// same value for every input.
uint32_t Crc32(uint32_t crc, const void* data, size_t len);

inline uint32_t Crc32(const Slice& s) { return Crc32(0, s.data(), s.size()); }

namespace detail {

/// Slicing-by-8 alone, whatever the CPU; the reference for Crc32.
uint32_t Crc32Portable(uint32_t crc, const void* data, size_t len);

}  // namespace detail

}  // namespace sebdb
