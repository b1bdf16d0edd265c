#include "pcep/messages.hpp"

#include <stdexcept>

#include "net/bytes.hpp"

namespace lispcp::pcep {

std::string to_string(MessageType type) {
  switch (type) {
    case MessageType::kOpen: return "Open";
    case MessageType::kKeepalive: return "Keepalive";
    case MessageType::kRequest: return "PCReq";
    case MessageType::kReply: return "PCRep";
    case MessageType::kError: return "PCErr";
    case MessageType::kClose: return "Close";
  }
  return "?";
}

void Message::serialize(net::ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kPcepVersion << 5));  // version | flags(0)
  w.u8(static_cast<std::uint8_t>(type()));
  w.u16(static_cast<std::uint16_t>(wire_size()));
  serialize_body(w);
}

std::shared_ptr<const Message> parse_message(net::ByteReader& r) {
  const std::uint8_t ver_flags = r.u8();
  if ((ver_flags >> 5) != kPcepVersion) {
    throw net::ParseError("PCEP: unsupported version");
  }
  const std::uint8_t raw_type = r.u8();
  const std::uint16_t length = r.u16();
  if (length < kCommonHeaderSize ||
      static_cast<std::size_t>(length - kCommonHeaderSize) > r.remaining()) {
    throw net::ParseError("PCEP: length field exceeds message");
  }
  const std::size_t body_len = length - kCommonHeaderSize;
  const std::size_t before = r.remaining();

  std::shared_ptr<const Message> parsed;
  switch (static_cast<MessageType>(raw_type)) {
    case MessageType::kOpen: {
      const auto keepalive = r.u8();
      const auto dead = r.u8();
      parsed = std::make_shared<Open>(keepalive, dead, r.u8());
      break;
    }
    case MessageType::kKeepalive:
      parsed = std::make_shared<Keepalive>();
      break;
    case MessageType::kRequest: {
      const auto id = r.u32();
      parsed = std::make_shared<MapComputationRequest>(
          id, net::Ipv4Address(r.u32()));
      break;
    }
    case MessageType::kReply: {
      const auto id = r.u32();
      if (r.u8() != 0) {
        parsed = std::make_shared<MapComputationReply>(
            id, lisp::parse_map_entry(r));
      } else {
        parsed = std::make_shared<MapComputationReply>(id);
      }
      break;
    }
    case MessageType::kError:
      parsed = std::make_shared<Error>(static_cast<Error::Kind>(r.u8()));
      break;
    case MessageType::kClose:
      parsed = std::make_shared<Close>(static_cast<Close::Reason>(r.u8()));
      break;
    default:
      throw net::ParseError("PCEP: unknown message type " +
                            std::to_string(raw_type));
  }
  if (before - r.remaining() != body_len) {
    throw net::ParseError("PCEP: body length disagrees with header");
  }
  return parsed;
}

std::string Open::describe() const {
  return "PCEP-Open keepalive=" + std::to_string(keepalive_seconds_) +
         "s dead=" + std::to_string(dead_seconds_) +
         "s sid=" + std::to_string(session_id_);
}

void Open::serialize_body(net::ByteWriter& w) const {
  w.u8(keepalive_seconds_);
  w.u8(dead_seconds_);
  w.u8(session_id_);
}

std::string MapComputationRequest::describe() const {
  return "PCEP-PCReq id=" + std::to_string(request_id_) + " eid=" +
         eid_.to_string();
}

void MapComputationRequest::serialize_body(net::ByteWriter& w) const {
  w.u32(request_id_);
  w.address(eid_);
}

const lisp::MapEntry& MapComputationReply::mapping() const {
  if (!mapping_.has_value()) {
    throw std::logic_error("MapComputationReply::mapping on NO-PATH reply");
  }
  return *mapping_;
}

std::size_t MapComputationReply::body_size() const noexcept {
  return 5 + (mapping_.has_value() ? lisp::map_entry_wire_size(*mapping_) : 0);
}

void MapComputationReply::serialize_body(net::ByteWriter& w) const {
  w.u32(request_id_);
  w.u8(mapping_.has_value() ? 1 : 0);
  if (mapping_.has_value()) lisp::serialize_map_entry(w, *mapping_);
}

std::string MapComputationReply::describe() const {
  if (no_path()) return "PCEP-PCRep id=" + std::to_string(request_id_) + " NO-PATH";
  return "PCEP-PCRep id=" + std::to_string(request_id_) + " map=[" +
         mapping_->to_string() + "]";
}

std::string Error::describe() const {
  return "PCEP-PCErr kind=" + std::to_string(static_cast<int>(kind_));
}

void Error::serialize_body(net::ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
}

std::string Close::describe() const {
  return "PCEP-Close reason=" + std::to_string(static_cast<int>(reason_));
}

void Close::serialize_body(net::ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(reason_));
}

}  // namespace lispcp::pcep
