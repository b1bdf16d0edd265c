// Tests for pcep/messages: wire round-trips for every message type, common
// header validation, length-consistency enforcement, and the codec
// family's error contract (malformed bytes give a message or
// net::ParseError, nothing else).
#include <gtest/gtest.h>

#include <vector>

#include "pcep/messages.hpp"
#include "sim/rng.hpp"

namespace lispcp::pcep {
namespace {

/// Serializes `m`, asserts wire_size agreement, parses it back.
std::shared_ptr<const Message> round_trip(const Message& m) {
  net::ByteWriter w;
  m.serialize(w);
  EXPECT_EQ(w.size(), m.wire_size());
  net::ByteReader r(w.view());
  auto parsed = parse_message(r);
  EXPECT_TRUE(r.empty()) << "parse must consume the whole message";
  EXPECT_EQ(parsed->type(), m.type());
  return parsed;
}

lisp::MapEntry sample_mapping() {
  lisp::MapEntry entry;
  entry.eid_prefix = net::Ipv4Prefix::from_string("100.64.1.0/24");
  entry.rlocs = {lisp::Rloc{net::Ipv4Address(10, 0, 0, 1), 1, 60, true},
                 lisp::Rloc{net::Ipv4Address(11, 0, 0, 1), 2, 40, false}};
  entry.ttl_seconds = 300;
  entry.version = 12;
  return entry;
}

TEST(PcepMessages, OpenRoundTrip) {
  const Open original(30, 120, 7);
  auto parsed = std::dynamic_pointer_cast<const Open>(round_trip(original));
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->keepalive_seconds(), 30);
  EXPECT_EQ(parsed->dead_seconds(), 120);
  EXPECT_EQ(parsed->session_id(), 7);
}

TEST(PcepMessages, KeepaliveRoundTripIsHeaderOnly) {
  const Keepalive original;
  EXPECT_EQ(original.wire_size(), kCommonHeaderSize);
  round_trip(original);
}

TEST(PcepMessages, RequestRoundTrip) {
  const MapComputationRequest original(0xDEADBEEF,
                                       net::Ipv4Address(100, 64, 1, 10));
  auto parsed = std::dynamic_pointer_cast<const MapComputationRequest>(
      round_trip(original));
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id(), 0xDEADBEEFu);
  EXPECT_EQ(parsed->eid(), net::Ipv4Address(100, 64, 1, 10));
}

TEST(PcepMessages, ReplyWithMappingRoundTrip) {
  const MapComputationReply original(99, sample_mapping());
  auto parsed = std::dynamic_pointer_cast<const MapComputationReply>(
      round_trip(original));
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id(), 99u);
  ASSERT_FALSE(parsed->no_path());
  EXPECT_EQ(parsed->mapping(), sample_mapping());
}

TEST(PcepMessages, NoPathReplyRoundTrip) {
  const MapComputationReply original(7);
  auto parsed = std::dynamic_pointer_cast<const MapComputationReply>(
      round_trip(original));
  ASSERT_NE(parsed, nullptr);
  EXPECT_TRUE(parsed->no_path());
  EXPECT_THROW(static_cast<void>(parsed->mapping()), std::logic_error);
}

TEST(PcepMessages, ErrorRoundTrip) {
  const Error original(Error::Kind::kUnknownRequest);
  auto parsed = std::dynamic_pointer_cast<const Error>(round_trip(original));
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->kind(), Error::Kind::kUnknownRequest);
}

TEST(PcepMessages, CloseRoundTrip) {
  const Close original(Close::Reason::kDeadTimer);
  auto parsed = std::dynamic_pointer_cast<const Close>(round_trip(original));
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->reason(), Close::Reason::kDeadTimer);
}

TEST(PcepMessages, EveryTypeDescribes) {
  EXPECT_NE(Open(30, 120, 1).describe(), "");
  EXPECT_NE(Keepalive().describe(), "");
  EXPECT_NE(MapComputationRequest(1, net::Ipv4Address()).describe(), "");
  EXPECT_NE(MapComputationReply(1).describe(), "");
  EXPECT_NE(MapComputationReply(1, sample_mapping()).describe(), "");
  EXPECT_NE(Error(Error::Kind::kSessionFailure).describe(), "");
  EXPECT_NE(Close(Close::Reason::kNoExplanation).describe(), "");
}

TEST(PcepMessages, RejectsWrongVersion) {
  net::ByteWriter w;
  Keepalive().serialize(w);
  auto bytes = w.take();
  bytes[0] = std::byte{static_cast<std::uint8_t>(2 << 5)};  // version 2
  net::ByteReader r(bytes);
  EXPECT_THROW(parse_message(r), net::ParseError);
}

TEST(PcepMessages, RejectsUnknownType) {
  net::ByteWriter w;
  w.u8(kPcepVersion << 5);
  w.u8(200);  // no such message type
  w.u16(4);
  net::ByteReader r(w.view());
  EXPECT_THROW(parse_message(r), net::ParseError);
}

TEST(PcepMessages, RejectsLengthBeyondBuffer) {
  net::ByteWriter w;
  w.u8(kPcepVersion << 5);
  w.u8(static_cast<std::uint8_t>(MessageType::kKeepalive));
  w.u16(64);  // claims 60 body bytes that do not exist
  net::ByteReader r(w.view());
  EXPECT_THROW(parse_message(r), net::ParseError);
}

TEST(PcepMessages, RejectsLengthShorterThanHeader) {
  net::ByteWriter w;
  w.u8(kPcepVersion << 5);
  w.u8(static_cast<std::uint8_t>(MessageType::kKeepalive));
  w.u16(2);
  net::ByteReader r(w.view());
  EXPECT_THROW(parse_message(r), net::ParseError);
}

TEST(PcepMessages, RejectsBodyLengthMismatch) {
  // An Open whose header claims one body byte too many.
  net::ByteWriter w;
  w.u8(kPcepVersion << 5);
  w.u8(static_cast<std::uint8_t>(MessageType::kOpen));
  w.u16(kCommonHeaderSize + 4);  // Open body is 3 bytes
  w.u8(30);
  w.u8(120);
  w.u8(1);
  w.u8(0);  // stray byte inside the claimed length
  net::ByteReader r(w.view());
  EXPECT_THROW(parse_message(r), net::ParseError);
}

TEST(PcepMessages, MutatedInputParsesOrThrowsParseError) {
  // Seeded byte flips, truncations and appends over one message of every
  // type: parse_message must return or throw net::ParseError — any other
  // exception escaping the codec fails the test.
  const auto wire = [](const Message& m) {
    net::ByteWriter w;
    m.serialize(w);
    return w.take();
  };
  const std::vector<std::vector<std::byte>> seeds = {
      wire(Open(30, 120, 7)),
      wire(Keepalive()),
      wire(MapComputationRequest(7, net::Ipv4Address(100, 64, 1, 10))),
      wire(MapComputationReply(7, sample_mapping())),
      wire(MapComputationReply(8)),
      wire(Error(Error::Kind::kSessionFailure)),
      wire(Close(Close::Reason::kNoExplanation))};
  sim::Rng rng(2008);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  };
  std::size_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::byte> bytes = seeds[pick(seeds.size())];
    const auto noise = static_cast<std::byte>(pick(256));
    switch (pick(3)) {
      case 0: bytes[pick(bytes.size())] = noise; break;
      case 1: bytes.resize(pick(bytes.size())); break;
      default: bytes.push_back(noise); break;
    }
    net::ByteReader r(bytes);
    try {
      (void)parse_message(r);
    } catch (const net::ParseError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(PcepMessages, TypeNamesAreStable) {
  EXPECT_EQ(to_string(MessageType::kOpen), "Open");
  EXPECT_EQ(to_string(MessageType::kKeepalive), "Keepalive");
  EXPECT_EQ(to_string(MessageType::kRequest), "PCReq");
  EXPECT_EQ(to_string(MessageType::kReply), "PCRep");
  EXPECT_EQ(to_string(MessageType::kError), "PCErr");
  EXPECT_EQ(to_string(MessageType::kClose), "Close");
}

}  // namespace
}  // namespace lispcp::pcep
