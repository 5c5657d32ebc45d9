// Wire framing for the TCP transport (DESIGN.md §15). Every message crosses
// the socket as one length-prefixed, CRC-guarded frame:
//
//   [magic u32][version u8][payload_len u32][payload_crc u32][payload]
//   payload = [type lp][from lp][to lp][body lp]
//
// Decoding is strict reject-don't-crash: bad magic, unknown version, a
// length beyond the negotiated cap, a CRC mismatch, an unknown message-type
// prefix, oversized/empty endpoint ids, or trailing bytes all fail with
// Corruption and never allocate more than the declared (capped) length. A
// hostile or corrupt peer can cost us its connection, never the process.
// The codec is pure (no sockets) so fuzz_tcp_frame drives it directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/slice.h"
#include "common/status.h"
#include "network/message.h"

namespace sebdb {

/// "SBDB" little-endian.
constexpr uint32_t kFrameMagic = 0x42424453u;
constexpr uint8_t kFrameVersion = 1;
/// magic(4) + version(1) + payload_len(4) + payload_crc(4).
constexpr size_t kFrameHeaderBytes = 13;
/// Default cap on a frame's payload. Checkpoint transfer chunks and pulled
/// block batches are the largest legitimate frames; both are built well
/// below this.
constexpr size_t kDefaultMaxFrameBytes = 64u << 20;
/// Endpoint ids ("from"/"to") are short names, never bulk data.
constexpr size_t kMaxEndpointIdBytes = 256;

struct FrameHeader {
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

/// True iff `type` starts with one of the protocol prefixes this codebase
/// speaks ("gossip.", "repair.", "rpc.", "thin.", "kafka.", "tm.", "net.")
/// and is short enough to be a real type tag. The transport drops
/// anything else before it reaches a handler.
bool IsAllowedMessageType(std::string_view type);

/// The payload_len a frame for `message` carries: the length-prefixed type,
/// from, to and payload. A transport refuses frames longer than its cap.
size_t FramePayloadBytes(const Message& message);

/// Appends one complete frame for `message` to `dst`.
void EncodeFrame(const Message& message, std::string* dst);

/// Appends the frame for `message` up to, but not including, the payload's
/// bytes: the header (whose CRC already covers the payload) and the length-
/// prefixed type, from, to and payload length. The head followed by
/// message.payload is exactly EncodeFrame's output, so a sender can write
/// the two with one gathered write instead of copying the payload.
void EncodeFrameHead(const Message& message, std::string* dst);

/// Validates the fixed-size header at `data` (must hold kFrameHeaderBytes).
/// On OK, *out carries the payload length (already checked against
/// `max_frame_bytes`) and the expected CRC.
Status DecodeFrameHeader(const char* data, size_t max_frame_bytes,
                         FrameHeader* out);

/// Validates the frame payload in *payload against `expected_crc` and parses
/// it into *out: allowlisted type, non-empty bounded from/to, no trailing
/// bytes. On OK the buffer itself becomes out->payload (the head in front
/// of the body is erased), so the body is never copied; on failure
/// *payload is left as it was.
Status DecodeFramePayload(std::string* payload, uint32_t expected_crc,
                          Message* out);

/// Whole-buffer convenience (fuzz harness, tests): consumes exactly one
/// frame from *input or fails without side effects on *out's validity.
Status DecodeFrame(Slice* input, size_t max_frame_bytes, Message* out);

}  // namespace sebdb
