// Property tests for the binary typed-value (TLV) wire codec
// (net::append_value / net::decode_value) and the binary message encoding
// (net::append_message_binary / net::decode_message_binary): seeded random
// round-trips over every json::Value shape, integer/double edge cases,
// unicode and embedded-NUL strings, truncation at every split point,
// malformed-input rejection (unknown tags, depth bombs, lying container
// counts), and the zero-render / lazy-decode contract of TLV-backed
// messages.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "src/mq/message.hpp"
#include "src/net/frame.hpp"

namespace entk {
namespace {

std::string encode_value(const json::Value& v) {
  std::string out;
  net::append_value(out, v);
  return out;
}

json::Value decode_all(const std::string& wire) {
  std::size_t offset = 0;
  json::Value v = net::decode_value(wire, offset);
  EXPECT_EQ(offset, wire.size()) << "decoder left trailing bytes";
  return v;
}

void expect_round_trip(const json::Value& v) {
  const std::string wire = encode_value(v);
  EXPECT_EQ(decode_all(wire), v);
}

// Random value generator, depth-bounded so object/array recursion
// terminates. Seeded by the caller: failures must reproduce.
json::Value random_value(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind_pick(0, depth > 0 ? 6 : 4);
  std::uniform_int_distribution<std::uint64_t> u64;
  std::uniform_int_distribution<int> len_pick(0, 8);
  std::uniform_int_distribution<int> byte(0, 255);
  switch (kind_pick(rng)) {
    case 0:
      return json::Value();
    case 1:
      return json::Value(u64(rng) % 2 == 0);
    case 2:
      return json::Value(static_cast<std::int64_t>(u64(rng)));
    case 3: {
      // Bit-pattern doubles would hit NaNs; build from two bounded ints so
      // values stay comparable with operator==.
      const double d = static_cast<double>(static_cast<std::int64_t>(
                           u64(rng) % 1000000)) /
                       (1.0 + static_cast<double>(u64(rng) % 997));
      return json::Value(u64(rng) % 2 == 0 ? d : -d);
    }
    case 4: {
      std::string s(static_cast<std::size_t>(len_pick(rng)) * 3, '\0');
      for (char& c : s) c = static_cast<char>(byte(rng));
      return json::Value(std::move(s));
    }
    case 5: {
      json::Array arr;
      const int n = len_pick(rng);
      for (int i = 0; i < n; ++i) arr.push_back(random_value(rng, depth - 1));
      return json::Value(std::move(arr));
    }
    default: {
      json::Object obj;
      const int n = len_pick(rng);
      for (int i = 0; i < n; ++i) {
        obj['k' + std::to_string(i)] = random_value(rng, depth - 1);
      }
      return json::Value(std::move(obj));
    }
  }
}

TEST(TlvCodec, RandomValuesRoundTrip) {
  std::mt19937 rng(20260808);  // seeded: failures must reproduce
  for (int i = 0; i < 500; ++i) {
    expect_round_trip(random_value(rng, 4));
  }
}

TEST(TlvCodec, ScalarsRoundTrip) {
  expect_round_trip(json::Value());
  expect_round_trip(json::Value(true));
  expect_round_trip(json::Value(false));
  expect_round_trip(json::Value(std::string()));
  expect_round_trip(json::Value(json::Array{}));
  expect_round_trip(json::Value(json::Object{}));
}

TEST(TlvCodec, Int64EdgesRoundTripExactly) {
  for (std::int64_t v : {std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::min() + 1,
                         std::int64_t{-1}, std::int64_t{0}, std::int64_t{1},
                         std::numeric_limits<std::int64_t>::max() - 1,
                         std::numeric_limits<std::int64_t>::max()}) {
    const json::Value decoded = decode_all(encode_value(json::Value(v)));
    EXPECT_EQ(decoded.as_int(), v);
  }
}

TEST(TlvCodec, DoubleEdgesRoundTripBitExactly) {
  for (double v : {0.0, -0.0, 1.0, -1.0, 0.1,
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::epsilon()}) {
    const json::Value decoded = decode_all(encode_value(json::Value(v)));
    std::uint64_t got, want;
    const double g = decoded.as_double();
    std::memcpy(&got, &g, sizeof got);
    std::memcpy(&want, &v, sizeof want);
    EXPECT_EQ(got, want) << "double " << v;
  }
  // Non-finite values have no JSON text form, but the TLV codec is a bit
  // copy and must carry them unchanged.
  const json::Value inf =
      decode_all(encode_value(json::Value(
          std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isinf(inf.as_double()));
  const json::Value nan = decode_all(
      encode_value(json::Value(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(nan.as_double()));
}

TEST(TlvCodec, UnicodeAndEmbeddedNulStringsRoundTrip) {
  expect_round_trip(json::Value(std::string("héllo wörld — ≠ 日本語 🚀")));
  expect_round_trip(json::Value(std::string("nul\0inside", 10)));
  json::Object obj;
  obj["ключ"] = json::Value(std::string("значение"));
  obj[std::string("k\0ey", 4)] = json::Value(std::int64_t{7});
  expect_round_trip(json::Value(std::move(obj)));
}

TEST(TlvCodec, TruncationAtEverySplitPointThrows) {
  json::Value v;
  v["uid"] = "task.0001";
  v["n"] = std::int64_t{42};
  v["d"] = 3.25;
  json::Array arr;
  arr.push_back(json::Value(true));
  arr.push_back(json::Value(std::string("xyz")));
  v["arr"] = std::move(arr);
  const std::string wire = encode_value(v);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::size_t offset = 0;
    EXPECT_THROW(net::decode_value(std::string_view(wire.data(), cut), offset),
                 net::NetError)
        << "cut at " << cut;
  }
}

TEST(TlvCodec, UnknownTagRejected) {
  std::string wire;
  wire.push_back(static_cast<char>(0x3f));
  std::size_t offset = 0;
  EXPECT_THROW(net::decode_value(wire, offset), net::NetError);
}

TEST(TlvCodec, DepthBombRejected) {
  // kMaxValueDepth + 2 nested single-element arrays: tag 6 + count 1 each.
  std::string wire;
  for (std::size_t i = 0; i < net::kMaxValueDepth + 2; ++i) {
    wire.push_back(6);
    net::put_u32(wire, 1);
  }
  wire.push_back(0);  // innermost null
  std::size_t offset = 0;
  EXPECT_THROW(net::decode_value(wire, offset), net::NetError);
}

TEST(TlvCodec, LyingContainerCountRejectedBeforeAllocating) {
  // An array claiming 2^31 elements inside a 6-byte buffer must be
  // rejected up front, not reserved for.
  std::string wire;
  wire.push_back(6);
  net::put_u32(wire, 0x7fffffffu);
  std::size_t offset = 0;
  EXPECT_THROW(net::decode_value(wire, offset), net::NetError);
}

// ------------------------------------------------- binary message codec

mq::Message structured_message() {
  json::Value payload;
  payload["uid"] = "task.0042";
  payload["t"] = 1.5e9;
  json::Array data;
  for (int i = 0; i < 16; ++i) data.emplace_back(std::int64_t{1} << i);
  payload["data"] = std::move(data);
  json::Value headers;
  headers["attempt"] = std::int64_t{2};
  mq::Message m = mq::Message::json_body("q.x", std::move(payload),
                                         std::move(headers));
  m.seq = 99;
  return m;
}

std::string encode_message(const mq::Message& m) {
  std::string out;
  net::append_message_binary(out, m);
  return out;
}

mq::Message decode_message(const std::string& wire) {
  std::size_t offset = 0;
  mq::Message m = net::decode_message_binary(wire, offset);
  EXPECT_EQ(offset, wire.size());
  return m;
}

TEST(BinaryMessage, StructuredPayloadRoundTripsWithoutRenderingJson) {
  const mq::Message original = structured_message();
  const std::uint64_t renders_before = mq::body_render_count();
  const std::string wire = encode_message(original);
  mq::Message decoded = decode_message(wire);
  EXPECT_EQ(decoded.seq, original.seq);
  EXPECT_EQ(decoded.headers, original.headers);
  // Decoding keeps the TLV bytes; the value materializes lazily.
  ASSERT_NE(decoded.shared_tlv_payload(), nullptr);
  EXPECT_FALSE(decoded.has_payload());
  EXPECT_EQ(mq::body_render_count(), renders_before);
  EXPECT_EQ(*decoded.payload(), *original.payload());
  EXPECT_EQ(mq::body_render_count(), renders_before);  // decode, not render
}

TEST(BinaryMessage, TlvBackedMessageRelaysVerbatim) {
  // broker-in-the-middle: decode off one connection, re-encode for
  // another. The payload bytes must pass through untouched with no decode
  // and no render.
  const std::string wire = encode_message(structured_message());
  const std::uint64_t renders_before = mq::body_render_count();
  mq::Message relay = decode_message(wire);
  const std::string rewire = encode_message(relay);
  EXPECT_EQ(rewire, wire);
  EXPECT_FALSE(relay.has_payload());  // never decoded
  EXPECT_EQ(mq::body_render_count(), renders_before);
}

TEST(BinaryMessage, TlvBackedMessageRendersBodyOnDemand) {
  mq::Message decoded = decode_message(encode_message(structured_message()));
  const std::uint64_t renders_before = mq::body_render_count();
  // A byte boundary that genuinely needs JSON text (the durable journal)
  // pays exactly one decode + one render.
  const std::string& body = decoded.body();
  EXPECT_EQ(mq::body_render_count(), renders_before + 1);
  EXPECT_EQ(json::parse(body).at("uid").as_string(), "task.0042");
}

TEST(BinaryMessage, RenderedBodyShipsVerbatimBytes) {
  mq::Message m;
  m.seq = 7;
  m.set_body(std::string("opaque \0 bytes, not json", 24));
  mq::Message decoded = decode_message(encode_message(m));
  EXPECT_EQ(decoded.seq, 7u);
  ASSERT_TRUE(decoded.has_rendered_body());
  EXPECT_EQ(decoded.body(), m.body());
}

TEST(BinaryMessage, EmptyMessageRoundTrips) {
  mq::Message m;
  m.seq = 1;
  mq::Message decoded = decode_message(encode_message(m));
  EXPECT_EQ(decoded.seq, 1u);
  EXPECT_FALSE(decoded.has_payload());
  EXPECT_FALSE(decoded.has_rendered_body());
  EXPECT_EQ(decoded.shared_tlv_payload(), nullptr);
}

TEST(BinaryMessage, TruncationAtEverySplitPointThrows) {
  const std::string wire = encode_message(structured_message());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::size_t offset = 0;
    EXPECT_THROW(net::decode_message_binary(
                     std::string_view(wire.data(), cut), offset),
                 net::NetError)
        << "cut at " << cut;
  }
}

TEST(BinaryMessage, MalformedPayloadRejectedAtDecodeNotAtConsumer) {
  // A TLV payload with a bogus tag: the frame decoder must throw when the
  // message crosses the boundary, not when a consumer later reads it.
  std::string wire;
  wire.push_back(0);      // headers: null
  net::put_u64(wire, 5);  // seq
  wire.push_back(2);      // payload kind: typed value
  wire.push_back(0x3f);   // unknown TLV tag
  std::size_t offset = 0;
  EXPECT_THROW(net::decode_message_binary(wire, offset), net::NetError);
}

TEST(BinaryMessage, UnknownPayloadKindRejected) {
  std::string wire;
  wire.push_back(0);      // headers: null
  net::put_u64(wire, 5);  // seq
  wire.push_back(9);      // no such payload kind
  std::size_t offset = 0;
  EXPECT_THROW(net::decode_message_binary(wire, offset), net::NetError);
}

TEST(BinaryMessage, SettersDropStaleTlvRepresentation) {
  mq::Message decoded = decode_message(encode_message(structured_message()));
  ASSERT_NE(decoded.shared_tlv_payload(), nullptr);
  decoded.set_body("replaced");
  EXPECT_EQ(decoded.shared_tlv_payload(), nullptr);
  EXPECT_EQ(decoded.body(), "replaced");
}

}  // namespace
}  // namespace entk
