// Wire message for the simulated network. `type` routes to a protocol
// handler ("tm.prevote", "gossip.digest", "kafka.submit", ...); payload
// is the protocol-specific serialized body.
#pragma once

#include <string>

namespace sebdb {

struct Message {
  std::string type;
  std::string from;  // sender node id
  std::string to;    // destination node id
  std::string payload;

  size_t ByteSize() const {
    return type.size() + from.size() + to.size() + payload.size();
  }
};

}  // namespace sebdb
