// Wire-level protocol messages.
//
// The core library implements LessLog's decisions as pure functions; this
// layer makes the *protocol* concrete: typed messages exchanged between
// peers over a simulated network, with a compact binary wire format
// (encode/decode are real and round-trip tested — a deployment over UDP
// or TCP would ship these bytes).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lesslog/core/file_store.hpp"
#include "lesslog/core/ids.hpp"

namespace lesslog::proto {

enum class MsgType : std::uint8_t {
  kGetRequest = 1,    ///< climb the lookup tree toward a copy
  kGetReply = 2,      ///< copy found (or definitive miss) -> requester
  kInsertRequest = 3, ///< store an original copy at the target
  kInsertAck = 4,
  kCreateReplica = 5, ///< REPLICATEFILE's CREATEFILE message
  kUpdatePush = 6,    ///< top-down version push along children lists
  kStatusAnnounce = 7, ///< join/leave/fail registration broadcast
  kFilePush = 8,       ///< move/copy an inserted file to its new holder
  kReclaim = 9,        ///< joiner asks holders to return its files (5.1)
  kFilePushAck = 10,   ///< receipt for a kFilePush (pushes are retried)
  // SWIM failure detection (membership library). All three carry one
  // piggybacked gossip update packed into the file/version fields.
  kPing = 11,          ///< direct probe
  kPingAck = 12,       ///< probe answer (direct or relayed by a proxy)
  kPingReq = 13,       ///< indirect probe through a proxy (requester=origin)
  kBusy = 14           ///< peer over its service budget -> requester migrates
};

/// One protocol message. Fields unused by a given type are zero; `ok`
/// doubles as the live/dead flag of a status announce.
struct Message {
  std::uint64_t request_id = 0;  ///< correlation id (client-assigned)
  MsgType type = MsgType::kGetRequest;
  core::Pid from{};      ///< immediate sender
  core::Pid to{};        ///< immediate receiver
  core::Pid requester{}; ///< originating client node (for replies)
  core::Pid subject{};   ///< announced node (status) / target root (routing)
  core::FileId file{};
  std::uint64_t version = 0;
  std::uint8_t hop_count = 0;
  bool ok = false;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Serialized size of every message (fixed-width format), in bytes.
inline constexpr std::size_t kWireSize = 8 + 1 + 4 * 4 + 8 + 8 + 1 + 1;

/// A message's exact wire image. The simulated network carries one of
/// these inline inside its delivery event, so the steady-state send →
/// deliver path never touches the heap.
using WireBuffer = std::array<std::uint8_t, kWireSize>;

/// The destination PID field of a wire image, read without decoding the
/// rest. Unvalidated: the network's delivery lookahead uses it only as a
/// prefetch address.
[[nodiscard]] inline std::uint32_t wire_to(const WireBuffer& wire) noexcept {
  constexpr std::size_t kToOffset = 8 + 1 + 4;  // after request_id, type, from
  std::uint32_t to = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    to |= std::uint32_t{wire[kToOffset + i]} << (8 * i);
  }
  return to;
}

/// Encodes to the fixed-width little-endian wire format into a caller-
/// owned buffer — the canonical serializer.
void encode_into(const Message& m, WireBuffer& out) noexcept;

/// Decodes a wire buffer; nullopt on wrong size or invalid type tag.
/// Accepts any contiguous byte range (WireBuffer, vector, ...).
[[nodiscard]] std::optional<Message> decode(
    std::span<const std::uint8_t> bytes);

/// Human-readable tag for traces ("GET", "REPLY", ...). Inline so
/// header-only consumers (the obs layer names its per-type counters with
/// it) need no link dependency on the proto library.
[[nodiscard]] inline const char* type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::kGetRequest: return "GET";
    case MsgType::kGetReply: return "REPLY";
    case MsgType::kInsertRequest: return "INSERT";
    case MsgType::kInsertAck: return "INS_ACK";
    case MsgType::kCreateReplica: return "CREATE";
    case MsgType::kUpdatePush: return "UPDATE";
    case MsgType::kStatusAnnounce: return "STATUS";
    case MsgType::kFilePush: return "PUSH";
    case MsgType::kReclaim: return "RECLAIM";
    case MsgType::kFilePushAck: return "PUSH_ACK";
    case MsgType::kPing: return "PING";
    case MsgType::kPingAck: return "PING_ACK";
    case MsgType::kPingReq: return "PING_REQ";
    case MsgType::kBusy: return "BUSY";
  }
  return "???";
}

}  // namespace lesslog::proto
