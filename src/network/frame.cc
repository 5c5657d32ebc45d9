#include "network/frame.h"

#include <array>

#include "common/coding.h"
#include "common/crc32.h"

namespace sebdb {

bool IsAllowedMessageType(std::string_view type) {
  if (type.empty() || type.size() > 64) return false;
  for (char c : type) {
    // Type tags are dotted lowercase identifiers ("gossip.digest").
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' ||
          c == '_')) {
      return false;
    }
  }
  static constexpr std::array<std::string_view, 7> kPrefixes = {
      "gossip.", "repair.", "rpc.", "thin.", "kafka.", "tm.", "net."};
  for (std::string_view prefix : kPrefixes) {
    if (type.size() > prefix.size() && type.substr(0, prefix.size()) == prefix) {
      return true;
    }
  }
  return false;
}

size_t FramePayloadBytes(const Message& message) {
  const auto prefixed = [](size_t n) { return VarintLength(n) + n; };
  return prefixed(message.type.size()) + prefixed(message.from.size()) +
         prefixed(message.to.size()) + prefixed(message.payload.size());
}

void EncodeFrame(const Message& message, std::string* dst) {
  EncodeFrameHead(message, dst);
  dst->append(message.payload);
}

void EncodeFrameHead(const Message& message, std::string* dst) {
  // The header goes out with zeroed length and CRC, the fields are appended
  // straight after it, then both are patched in.
  const size_t header = dst->size();
  PutFixed32(dst, kFrameMagic);
  dst->push_back(static_cast<char>(kFrameVersion));
  dst->append(8, '\0');
  const size_t fields = dst->size();
  PutLengthPrefixed(dst, message.type);
  PutLengthPrefixed(dst, message.from);
  PutLengthPrefixed(dst, message.to);
  PutVarint64(dst, message.payload.size());

  const size_t fields_len = dst->size() - fields;
  char* base = dst->data();
  const uint32_t crc =
      Crc32(Crc32(0, base + fields, fields_len), message.payload.data(),
            message.payload.size());
  EncodeFixed32(base + header + 5,
                static_cast<uint32_t>(fields_len + message.payload.size()));
  EncodeFixed32(base + header + 9, crc);
}

Status DecodeFrameHeader(const char* data, size_t max_frame_bytes,
                         FrameHeader* out) {
  if (DecodeFixed32(data) != kFrameMagic) {
    return Status::Corruption("tcp frame: bad magic");
  }
  const uint8_t version = static_cast<uint8_t>(data[4]);
  if (version != kFrameVersion) {
    return Status::Corruption("tcp frame: unknown version " +
                              std::to_string(version));
  }
  const uint32_t payload_len = DecodeFixed32(data + 5);
  // The length gates the allocation that follows: reject before reserving a
  // single byte a hostile peer asked for.
  if (payload_len > max_frame_bytes) {
    return Status::Corruption("tcp frame: length " +
                              std::to_string(payload_len) + " exceeds cap " +
                              std::to_string(max_frame_bytes));
  }
  out->payload_len = payload_len;
  out->payload_crc = DecodeFixed32(data + 9);
  return Status::OK();
}

Status DecodeFramePayload(std::string* payload, uint32_t expected_crc,
                          Message* out) {
  if (Crc32(Slice(*payload)) != expected_crc) {
    return Status::Corruption("tcp frame: payload crc mismatch");
  }
  Slice input(*payload);
  Slice type, from, to, body;
  if (!GetLengthPrefixed(&input, &type) ||
      !GetLengthPrefixed(&input, &from) || !GetLengthPrefixed(&input, &to) ||
      !GetLengthPrefixed(&input, &body)) {
    return Status::Corruption("tcp frame: truncated payload");
  }
  if (!input.empty()) {
    return Status::Corruption("tcp frame: trailing bytes after body");
  }
  if (!IsAllowedMessageType(type.ToStringView())) {
    return Status::Corruption("tcp frame: type not allowlisted");
  }
  if (from.empty() || from.size() > kMaxEndpointIdBytes || to.empty() ||
      to.size() > kMaxEndpointIdBytes) {
    return Status::Corruption("tcp frame: bad endpoint id length");
  }
  out->type = type.ToString();
  out->from = from.ToString();
  out->to = to.ToString();
  // The body ends the payload: dropping the head in front of it leaves the
  // body alone in the buffer, which then moves instead of being copied.
  payload->erase(0, static_cast<size_t>(body.data() - payload->data()));
  out->payload = std::move(*payload);
  return Status::OK();
}

Status DecodeFrame(Slice* input, size_t max_frame_bytes, Message* out) {
  if (input->size() < kFrameHeaderBytes) {
    return Status::Corruption("tcp frame: short header");
  }
  FrameHeader header;
  Status s = DecodeFrameHeader(input->data(), max_frame_bytes, &header);
  if (!s.ok()) return s;
  if (input->size() < kFrameHeaderBytes + header.payload_len) {
    return Status::Corruption("tcp frame: short payload");
  }
  std::string payload(input->data() + kFrameHeaderBytes, header.payload_len);
  s = DecodeFramePayload(&payload, header.payload_crc, out);
  if (!s.ok()) return s;
  input->remove_prefix(kFrameHeaderBytes + header.payload_len);
  return Status::OK();
}

}  // namespace sebdb
