// messages.hpp — PCEP-style wire messages for PCE-to-PCE communication.
//
// The paper's control plane "borrows concepts from the Path Computation
// Element (PCE)".  Its Step-6 port-P UDP encapsulation is a bespoke
// transport; this module provides the standards-flavoured alternative: a
// PCEP session (RFC 5440 message set — Open, Keepalive, PCReq, PCRep,
// Error, Close) adapted to mapping computation.  PCReq carries the EID
// whose mapping is wanted; PCRep returns the EID-to-RLOC mapping the remote
// IRC engine selected, or NO-PATH.
//
// The on-demand PCEP query costs one PCE-to-PCE RTT *after* the DNS answer,
// where Step-6 snooping pre-positions the mapping at zero extra RTT — that
// latency gap is exactly what bench/a5_transport measures.
//
// Wire format: the RFC 5440 common header (version 1, message type, 16-bit
// total length) followed by a message-specific body.  Parsing validates
// version, known type, and exact length; violations throw
// net::ParseError, consistent with the other wire formats in this
// library.  (Transport substitution: real PCEP runs over TCP port 4189; the
// simulator carries it in UDP packets like every other control protocol
// here.  Session semantics — handshake, keepalives, dead-timer — are
// preserved; segmentation/retransmission is not what the experiments
// measure.  See DESIGN.md.)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "lisp/control.hpp"
#include "lisp/map_entry.hpp"
#include "net/packet.hpp"

namespace lispcp::pcep {

/// RFC 5440 §6 message types (the subset this library speaks).
enum class MessageType : std::uint8_t {
  kOpen = 1,
  kKeepalive = 2,
  kRequest = 3,  ///< PCReq, adapted: "compute the mapping for this EID"
  kReply = 4,    ///< PCRep: the mapping, or NO-PATH
  kError = 6,
  kClose = 7,
};

[[nodiscard]] std::string to_string(MessageType type);

inline constexpr std::uint8_t kPcepVersion = 1;
inline constexpr std::size_t kCommonHeaderSize = 4;

/// Base of all PCEP messages: owns the common header so every subclass
/// serializes as  [ver/flags | type | length16 | body...].
class Message : public net::Payload {
 public:
  [[nodiscard]] virtual MessageType type() const noexcept = 0;

  [[nodiscard]] std::size_t wire_size() const noexcept final {
    return kCommonHeaderSize + body_size();
  }
  void serialize(net::ByteWriter& w) const final;

 protected:
  [[nodiscard]] virtual std::size_t body_size() const noexcept = 0;
  virtual void serialize_body(net::ByteWriter& w) const = 0;
};

/// Parses one PCEP message; throws net::ParseError on bad version, unknown
/// type, a length field that disagrees with the body, or truncation.
[[nodiscard]] std::shared_ptr<const Message> parse_message(net::ByteReader& r);

/// Open: proposes session timers (RFC 5440 §6.2's OPEN object, flattened).
class Open final : public Message {
 public:
  Open(std::uint8_t keepalive_seconds, std::uint8_t dead_seconds,
       std::uint8_t session_id)
      : keepalive_seconds_(keepalive_seconds),
        dead_seconds_(dead_seconds),
        session_id_(session_id) {}

  [[nodiscard]] MessageType type() const noexcept override {
    return MessageType::kOpen;
  }
  [[nodiscard]] std::uint8_t keepalive_seconds() const noexcept {
    return keepalive_seconds_;
  }
  [[nodiscard]] std::uint8_t dead_seconds() const noexcept {
    return dead_seconds_;
  }
  [[nodiscard]] std::uint8_t session_id() const noexcept { return session_id_; }
  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] std::size_t body_size() const noexcept override { return 3; }
  void serialize_body(net::ByteWriter& w) const override;

 private:
  std::uint8_t keepalive_seconds_;
  std::uint8_t dead_seconds_;
  std::uint8_t session_id_;
};

/// Keepalive: header-only (RFC 5440 §6.3).
class Keepalive final : public Message {
 public:
  [[nodiscard]] MessageType type() const noexcept override {
    return MessageType::kKeepalive;
  }
  [[nodiscard]] std::string describe() const override { return "PCEP-Keepalive"; }

 protected:
  [[nodiscard]] std::size_t body_size() const noexcept override { return 0; }
  void serialize_body(net::ByteWriter&) const override {}
};

/// PCReq adapted to the LISP control plane: request the EID-to-RLOC mapping
/// for `eid`, correlated by `request_id` (RFC 5440's RP object).
class MapComputationRequest final : public Message {
 public:
  MapComputationRequest(std::uint32_t request_id, net::Ipv4Address eid)
      : request_id_(request_id), eid_(eid) {}

  [[nodiscard]] MessageType type() const noexcept override {
    return MessageType::kRequest;
  }
  [[nodiscard]] std::uint32_t request_id() const noexcept { return request_id_; }
  [[nodiscard]] net::Ipv4Address eid() const noexcept { return eid_; }
  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] std::size_t body_size() const noexcept override { return 8; }
  void serialize_body(net::ByteWriter& w) const override;

 private:
  std::uint32_t request_id_;
  net::Ipv4Address eid_;
};

/// PCRep: the mapping for the request, or NO-PATH (RFC 5440 §6.5).
class MapComputationReply final : public Message {
 public:
  /// NO-PATH reply.
  explicit MapComputationReply(std::uint32_t request_id)
      : request_id_(request_id) {}
  /// Successful reply.
  MapComputationReply(std::uint32_t request_id, lisp::MapEntry mapping)
      : request_id_(request_id), mapping_(std::move(mapping)) {}

  [[nodiscard]] MessageType type() const noexcept override {
    return MessageType::kReply;
  }
  [[nodiscard]] std::uint32_t request_id() const noexcept { return request_id_; }
  [[nodiscard]] bool no_path() const noexcept { return !mapping_.has_value(); }
  /// The mapping; throws std::logic_error on a NO-PATH reply.
  [[nodiscard]] const lisp::MapEntry& mapping() const;
  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] std::size_t body_size() const noexcept override;
  void serialize_body(net::ByteWriter& w) const override;

 private:
  std::uint32_t request_id_;
  std::optional<lisp::MapEntry> mapping_;
};

/// PCErr (RFC 5440 §6.7): error type/value pairs, the subset we raise.
class Error final : public Message {
 public:
  enum class Kind : std::uint8_t {
    kSessionFailure = 1,       ///< handshake violation
    kUnknownRequest = 2,       ///< reply with no matching request
    kCapabilityNotSupported = 3,
  };

  explicit Error(Kind kind) : kind_(kind) {}

  [[nodiscard]] MessageType type() const noexcept override {
    return MessageType::kError;
  }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] std::size_t body_size() const noexcept override { return 1; }
  void serialize_body(net::ByteWriter& w) const override;

 private:
  Kind kind_;
};

/// Close (RFC 5440 §6.8).
class Close final : public Message {
 public:
  enum class Reason : std::uint8_t {
    kNoExplanation = 1,
    kDeadTimer = 2,
    kMalformedMessage = 3,
  };

  explicit Close(Reason reason) : reason_(reason) {}

  [[nodiscard]] MessageType type() const noexcept override {
    return MessageType::kClose;
  }
  [[nodiscard]] Reason reason() const noexcept { return reason_; }
  [[nodiscard]] std::string describe() const override;

 protected:
  [[nodiscard]] std::size_t body_size() const noexcept override { return 1; }
  void serialize_body(net::ByteWriter& w) const override;

 private:
  Reason reason_;
};

}  // namespace lispcp::pcep
