#!/usr/bin/env bash
# Static-analysis gate over src/.
#
#   scripts/lint.sh [build-dir]     # default build dir: build/
#
# Two layers:
#   1. Grep lint (always runs, toolchain-independent) enforcing repo
#      invariants that compilers don't check:
#        - no raw std::mutex / lock_guard / naked .lock()/.unlock() outside
#          common/thread_annotations.h — all locking goes through the
#          annotated Mutex/MutexLock/CondVar wrappers so clang's
#          -Wthread-safety sees every acquisition;
#        - no discarded Status from storage mutations (Open/Close/Append/...)
#          — errors must be propagated or explicitly handled;
#        - in src/sql/, no ReadBlock( / ReadTransaction( outside
#          sql/block_pipeline.* (IndexSet may ReadBlock for its
#          backfill) — every query reads blocks through the one
#          candidate-block pipeline;
#        - no *_clock::now() outside common/clock.* — time flows through
#          NowMicros/SteadyNowMicros so tests and the lint can reason
#          about it in one place;
#        - no global ISA flags (-march=, -msha, -msse4, -mpclmul, -mavx) in
#          any CMakeLists.txt or CMakePresets.json — ISA-specific code
#          enters only through function-level target attributes behind
#          a CPUID check, so the binaries still run on CPUs without those
#          extensions.
#   2. clang-tidy (bugprone-*, concurrency-*, performance-*; see .clang-tidy)
#      over every translation unit in src/, using the build dir's
#      compile_commands.json. Skipped with a notice when clang-tidy is not
#      installed — the grep layer still gates.
set -uo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
failed=0

note() { printf '%s\n' "$*"; }
fail() {
  printf 'lint: %s\n' "$1"
  shift
  printf '%s\n' "$@"
  failed=1
}

# --- Layer 1: grep lint -----------------------------------------------------

# Raw locking primitives outside the annotated wrappers.
raw_locks=$(grep -rnE 'std::mutex|std::condition_variable|std::lock_guard|std::unique_lock|std::scoped_lock|\.lock\(\)|\.unlock\(\)' \
  src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/common/thread_annotations\.h:' || true)
if [ -n "${raw_locks}" ]; then
  fail "raw locking primitive outside common/thread_annotations.h (use Mutex/MutexLock/CondVar):" "${raw_locks}"
fi

# Statement-level storage calls whose Status return is silently dropped.
# (Assignments, returns, conditions, and explicit (void) casts don't match.)
dropped_status=$(grep -rnE '^[[:space:]]*[A-Za-z_]+(\.|->)(Open|Close|Append|Sync|Flush|Truncate|Remove[A-Za-z]*|Write[A-Za-z]*)\(' \
  src/ --include='*.h' --include='*.cc' \
  | grep -vE '=|\breturn\b|\(void\)|\bif\b|RemovePeerWatcher' || true)
if [ -n "${dropped_status}" ]; then
  fail "storage call discards its Status (assign, return, or check it):" "${dropped_status}"
fi

# Unbounded growth of consensus ingress queues: every push into a mempool /
# pending-batch container must sit on a line marked "admitted:" asserting the
# txn was charged against an AdmissionController first (the admission module
# itself is exempt). Keeps the bounded-mempool invariant grep-checkable.
unbounded_mempool=$(grep -rnE '\b(mempool_|pending_)\.(push_back|emplace_back|push_front|insert)\(' \
  src/ --include='*.h' --include='*.cc' \
  | grep -v 'admitted:' \
  | grep -v '^src/common/admission\.' || true)
if [ -n "${unbounded_mempool}" ]; then
  fail "mempool push without an \"admitted:\" marker (charge it against AdmissionController or annotate why it is already charged):" "${unbounded_mempool}"
fi

# Peer-fetched bytes must be hash-verified before they enter the chain:
# every call that splices a raw block record (AppendRaw) or installs a
# fetched checkpoint (InstallStateSync) must sit on or directly under a
# "verify:" marker asserting which check the bytes already passed (CRC +
# SHA-256 descriptor for checkpoint files, Merkle + hash-chain for block
# records). Declarations and the implementing modules are exempt.
unverified_splice=$(grep -rnE '(\.|->)?\b(AppendRaw|InstallStateSync)\(' \
  src/ --include='*.h' --include='*.cc' \
  | grep -vE 'verify:|^src/storage/block_store\.(h|cc):|^src/core/chain_manager\.h:|^src/core/chain_checkpoint\.cc:' || true)
if [ -n "${unverified_splice}" ]; then
  fail "peer-fetched bytes spliced/installed without a \"verify:\" marker (state the hash check the bytes passed):" "${unverified_splice}"
fi

# Raw file / directory I/O outside the Env implementation. Every byte the
# node persists or reads back must flow through the Env seam (and from there
# the page/buffer layer), or fault injection, crash tests, and the
# checkpoint-recovery guarantees silently stop covering it.
raw_io=$(grep -rnE '\bfopen\(|\bFILE[[:space:]]*\*|std::(i|o)?fstream|\bopendir\(|::open\(|\bpread\(|\bpwrite\(|\bmkdir\(|\bunlink\(|\brmdir\(|\brename\(|\btruncate\(' \
  src/ --include='*.h' --include='*.cc' \
  | grep -vE '^src/common/env\.(h|cc):' || true)
if [ -n "${raw_io}" ]; then
  fail "raw file I/O outside common/env.* (route it through Env so fault injection and crash tests see it):" "${raw_io}"
fi

# Raw socket syscalls and socket headers outside the TCP transport. The
# Network seam (DESIGN.md §15) is the only place bytes may touch a socket;
# anywhere else must hold a Network* so SimNetwork keeps every protocol
# deterministic under test. TcpNetwork writes its syscalls ::-prefixed,
# which is what this rule matches.
raw_sockets=$(grep -rnE '::(socket|connect|bind|listen|accept|recv|send|sendto|recvfrom|setsockopt|getsockname|shutdown|poll)\(|#include <(sys/socket|netinet/in|netinet/tcp|arpa/inet|netdb|poll)\.h>' \
  src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/network/tcp_network\.cc:' || true)
if [ -n "${raw_sockets}" ]; then
  fail "raw socket call or socket header outside src/network/tcp_network.cc (talk through the Network seam):" "${raw_sockets}"
fi

# One candidate-block pipeline: in the SQL layer, block and transaction
# reads happen only in sql/block_pipeline.*, so every query path shares one
# row source. IndexSet's backfill reads whole blocks to build an index and
# is exempt for ReadBlock.
pipeline_bypass=$(grep -rnE '\bReadBlock\(|\bReadTransaction\(' \
  src/sql/ --include='*.h' --include='*.cc' \
  | grep -vE '^src/sql/block_pipeline\.(h|cc):' \
  | grep -vE '^src/sql/index_set\.cc:[0-9]+:.*ReadBlock\(' || true)
if [ -n "${pipeline_bypass}" ]; then
  fail "block or transaction read outside sql/block_pipeline.* (route it through BlockPipeline):" "${pipeline_bypass}"
fi

# Clock access outside the sanctioned helpers.
clock_calls=$(grep -rnE '(system_clock|steady_clock|high_resolution_clock)::now\(\)' \
  src/ --include='*.h' --include='*.cc' \
  | grep -vE '^src/common/clock\.(h|cc):' || true)
if [ -n "${clock_calls}" ]; then
  fail "clock read outside common/clock.* (use NowMicros/SteadyNowMicros):" "${clock_calls}"
fi

# Global ISA flags in the build files.
isa_flags=$(grep -rnE -e '-march=|-msha|-msse4|-mpclmul|-mavx' \
  --include='CMakeLists.txt' --include='CMakePresets.json' \
  --exclude-dir='build*' --exclude-dir='.bench_build' --exclude-dir='.git' . || true)
if [ -n "${isa_flags}" ]; then
  fail "global ISA flag in a build file (use a function-level target attribute behind a CPUID check):" "${isa_flags}"
fi

if [ "${failed}" -eq 0 ]; then
  note "lint: grep rules clean"
fi

# --- Layer 2: clang-tidy ----------------------------------------------------

if ! command -v clang-tidy >/dev/null 2>&1; then
  note "lint: clang-tidy not installed; skipping (grep rules still gate)"
  exit "${failed}"
fi

if [ ! -f "${build_dir}/compile_commands.json" ]; then
  note "lint: ${build_dir}/compile_commands.json missing; run: cmake --preset default"
  exit 1
fi

mapfile -t sources < <(find src -name '*.cc' | sort)
note "lint: clang-tidy over ${#sources[@]} files (checks from .clang-tidy)"
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -quiet -p "${build_dir}" "${sources[@]}" || failed=1
else
  for source in "${sources[@]}"; do
    clang-tidy --quiet -p "${build_dir}" "${source}" || failed=1
  done
fi

exit "${failed}"
