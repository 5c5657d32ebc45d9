// TCP frame codec: the exact bytes a node reads off an accepted socket
// before anything else sees them — the hottest hostile surface in the
// multi-process deployment. Contract under fuzzing: reject-or-round-trip.
// Any input either fails decode with a clean Status (never a crash, never
// an allocation beyond the declared cap) or decodes to a message that
// re-encodes to an accepted, semantically identical frame.
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "fuzz/harnesses.h"
#include "network/frame.h"

namespace sebdb {
namespace fuzz {

int FuzzTcpFrame(const uint8_t* data, size_t size) {
  const Slice raw(reinterpret_cast<const char*>(data), size);

  // Header-only path, as ReaderLoop uses it on the first 13 bytes. A small
  // cap makes the length-bound check reachable with tiny inputs.
  if (size >= kFrameHeaderBytes) {
    FrameHeader header;
    (void)DecodeFrameHeader(raw.data(), /*max_frame_bytes=*/1 << 16, &header);
  }

  {
    Slice input = raw;
    Message message;
    if (DecodeFrame(&input, kDefaultMaxFrameBytes, &message).ok()) {
      // Accepted ⇒ the type passed the allowlist and the ids are bounded.
      if (!IsAllowedMessageType(message.type) || message.from.empty() ||
          message.from.size() > kMaxEndpointIdBytes || message.to.empty() ||
          message.to.size() > kMaxEndpointIdBytes) {
        __builtin_trap();
      }
      // Accepted ⇒ must round-trip exactly.
      std::string reencoded;
      EncodeFrame(message, &reencoded);
      Slice again(reencoded);
      Message message2;
      if (!DecodeFrame(&again, kDefaultMaxFrameBytes, &message2).ok() ||
          !again.empty() || message2.type != message.type ||
          message2.from != message.from || message2.to != message.to ||
          message2.payload != message.payload) {
        __builtin_trap();
      }
      if (FramePayloadBytes(message) + kFrameHeaderBytes != reencoded.size()) {
        __builtin_trap();
      }
      // Senders write the head and the payload separately: together they
      // must be the same frame.
      std::string head;
      EncodeFrameHead(message, &head);
      if (head.size() + message.payload.size() != reencoded.size() ||
          reencoded.compare(0, head.size(), head) != 0 ||
          reencoded.compare(head.size(), std::string::npos,
                            message.payload) != 0) {
        __builtin_trap();
      }
    }
  }

  // Payload-only path with an attacker-chosen CRC split off the front, so
  // the fuzzer can explore payload parsing without solving CRC32 first.
  if (size >= 4) {
    uint32_t crc = DecodeFixed32(raw.data());
    std::string payload(raw.data() + 4, size - 4);
    const std::string original = payload;
    Message message;
    if (DecodeFramePayload(&payload, crc, &message).ok()) {
      // Accepted ⇒ the body is the tail of the payload it came from.
      if (original.size() < message.payload.size() ||
          original.compare(original.size() - message.payload.size(),
                           std::string::npos, message.payload) != 0) {
        __builtin_trap();
      }
    } else if (payload != original) {
      __builtin_trap();  // a rejected payload is left as it was
    }
  }
  return 0;
}

}  // namespace fuzz
}  // namespace sebdb
