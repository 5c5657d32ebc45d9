// Fuzz entry points for SEBDB's untrusted input surfaces. Each function has
// the libFuzzer contract (return 0, never crash, no leaks); entry.cc adapts
// the selected one to LLVMFuzzerTestOneInput, so the same code runs under a
// real libFuzzer build (clang -fsanitize=fuzzer) and under the standalone
// corpus-replay driver (driver_main.cc) everywhere else.
//
// Untrusted surfaces covered (anything that crosses the network or is read
// back from disk):
//   - Transaction / Value binary decode (gossip payloads, block bodies)
//   - Block record decode + header + Merkle validation (gossip, segments)
//   - varint / fixed / length-prefixed coding primitives (the same harness
//     also checks SHA-NI against portable SHA-256 and slicing-by-8 against
//     bytewise CRC-32 on every input)
//   - SQL lexer + parser (client-submitted statements)
//   - MB-tree verification-object decode + range verification (query proofs)
//   - checkpoint page images + manifest records (index persistence files)
//   - TCP wire frames (every byte an accepted socket delivers)
#pragma once

#include <cstddef>
#include <cstdint>

namespace sebdb {
namespace fuzz {

int FuzzTransactionDecode(const uint8_t* data, size_t size);
int FuzzBlockDecode(const uint8_t* data, size_t size);
int FuzzCoding(const uint8_t* data, size_t size);
int FuzzSqlParser(const uint8_t* data, size_t size);
int FuzzVoVerify(const uint8_t* data, size_t size);
int FuzzPageDecode(const uint8_t* data, size_t size);
int FuzzTcpFrame(const uint8_t* data, size_t size);

}  // namespace fuzz
}  // namespace sebdb
