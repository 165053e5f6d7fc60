// Unit + property tests for the JSON library.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/json/json.hpp"

namespace entk::json {
namespace {

TEST(JsonValue, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), Type::Null);
}

TEST(JsonValue, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_EQ(Value(-7ll).as_int(), -7);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(JsonValue, IntDoubleInterplay) {
  EXPECT_DOUBLE_EQ(Value(3).as_double(), 3.0);
  EXPECT_EQ(Value(4.0).as_int(), 4);  // integral double converts
  EXPECT_THROW(Value(4.5).as_int(), TypeError);
}

TEST(JsonValue, TypeMismatchThrows) {
  EXPECT_THROW(Value(1).as_string(), TypeError);
  EXPECT_THROW(Value("x").as_int(), TypeError);
  EXPECT_THROW(Value(true).as_array(), TypeError);
  EXPECT_THROW(Value().as_object(), TypeError);
}

TEST(JsonValue, ObjectSugarCreatesKeys) {
  Value v;
  v["a"] = 1;
  v["b"]["nested"] = "x";
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").at("nested").as_string(), "x");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zz"));
  EXPECT_THROW(v.at("zz"), MissingError);
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  Value v;
  v["z"] = 1;
  v["a"] = 2;
  v["m"] = 3;
  std::vector<std::string> keys;
  for (const auto& [k, val] : v.as_object()) {
    (void)val;
    keys.push_back(k);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonValue, ArrayPushBack) {
  Value v;
  v.push_back(1);
  v.push_back("two");
  EXPECT_TRUE(v.is_array());
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.as_array()[1].as_string(), "two");
}

TEST(JsonValue, GetWithDefaults) {
  Value v;
  v["i"] = 5;
  v["d"] = 1.5;
  v["s"] = "str";
  v["b"] = true;
  EXPECT_EQ(v.get_int("i", 0), 5);
  EXPECT_EQ(v.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(v.get_double("d", 0), 1.5);
  EXPECT_EQ(v.get_string("s", ""), "str");
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_EQ(v.get_string("i", "fallback"), "fallback");  // wrong type
  Value not_object(3);
  EXPECT_EQ(not_object.get_int("k", 7), 7);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_EQ(parse("123").as_int(), 123);
  EXPECT_EQ(parse("-9").as_int(), -9);
  EXPECT_DOUBLE_EQ(parse("3.25").as_double(), 3.25);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(parse("\"abc\"").as_string(), "abc");
}

TEST(JsonParse, Structures) {
  Value v = parse(R"({"a": [1, 2, {"b": null}], "c": "x"})");
  EXPECT_EQ(v.at("a").size(), 3u);
  EXPECT_TRUE(v.at("a").as_array()[2].at("b").is_null());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(JsonParse, WhitespaceTolerant) {
  Value v = parse("  {\n\t\"a\" :\r 1 } ");
  EXPECT_EQ(v.at("a").as_int(), 1);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(parse(R"("q\"q")").as_string(), "q\"q");
  EXPECT_EQ(parse(R"("back\\slash")").as_string(), "back\\slash");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(parse("tru"), ParseError);
  EXPECT_THROW(parse("1 2"), ParseError);  // trailing garbage
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("\"bad\x01ctrl\""), ParseError);
  EXPECT_THROW(parse("nan"), ParseError);
}

TEST(JsonParse, PrefixParsing) {
  const std::string two = "{\"a\":1}\n{\"b\":2}";
  std::size_t pos = 0;
  Value first = parse_prefix(two, pos);
  EXPECT_EQ(first.at("a").as_int(), 1);
  Value second = parse_prefix(two, pos);
  EXPECT_EQ(second.at("b").as_int(), 2);
  EXPECT_EQ(pos, two.size());
}

TEST(JsonDump, CompactAndPretty) {
  Value v;
  v["a"] = 1;
  v["b"].push_back(true);
  EXPECT_EQ(v.dump(), R"({"a":1,"b":[true]})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(JsonDump, SpecialDoubles) {
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
  // Infinities degrade to overflowing literals that parse back as inf.
  EXPECT_EQ(Value(INFINITY).dump(), "1e999");
}

TEST(JsonDump, EscapesControlCharacters) {
  Value v(std::string("a\x01" "b"));
  EXPECT_EQ(v.dump(), "\"a\\u0001b\"");
}

TEST(JsonEquality, StructuralAndNumeric) {
  EXPECT_EQ(parse("{\"a\":1,\"b\":2}"), parse("{\"b\":2,\"a\":1}"));
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_FALSE(Value(2) == Value(3));
  EXPECT_FALSE(Value("2") == Value(2));
}

// Property: dump -> parse is the identity for a family of generated values.
class JsonRoundTrip : public ::testing::TestWithParam<int> {};

Value generate(int seed, int depth = 0) {
  // Deterministic pseudo-random structure from the seed.
  const int kind = (seed * 2654435761u >> 8) % (depth > 2 ? 5 : 7);
  switch (kind) {
    case 0: return Value();
    case 1: return Value(seed % 2 == 0);
    case 2: return Value(std::int64_t{seed} * 1234567 - 42);
    case 3: return Value(seed * 0.37 - 1.5);
    case 4: return Value('s' + std::to_string(seed) + "\n\"\\x");
    case 5: {
      Value arr;
      for (int i = 0; i < seed % 4 + 1; ++i) {
        arr.push_back(generate(seed * 7 + i, depth + 1));
      }
      return arr;
    }
    default: {
      Value obj;
      for (int i = 0; i < seed % 3 + 1; ++i) {
        obj['k' + std::to_string(i)] = generate(seed * 13 + i, depth + 1);
      }
      return obj;
    }
  }
}

TEST_P(JsonRoundTrip, DumpParseIdentity) {
  const Value original = generate(GetParam());
  EXPECT_EQ(parse(original.dump()), original);
  EXPECT_EQ(parse(original.dump(2)), original);  // pretty round-trips too
}

INSTANTIATE_TEST_SUITE_P(Generated, JsonRoundTrip, ::testing::Range(1, 60));

// Targeted round-trip properties: the generated family above cannot hit
// every encoder edge, so escapes, unicode and numeric extremes get their
// own cases (the dump side now uses std::to_chars shortest formatting).

TEST(JsonRoundTrip, EscapeEdgeCases) {
  const std::string cases[] = {
      "",                                  // empty string
      std::string(1, '\0'),                // embedded NUL
      "\"quoted\" and \\back\\slash\\",
      "line\nfeed\rreturn\ttab\bbs\ffeed",
      std::string("\x01\x02\x03\x1e\x1f"),  // full control range edges
      "ends with backslash \\",
      "/solidus needs no escape/",
  };
  for (const std::string& s : cases) {
    const Value v(s);
    EXPECT_EQ(parse(v.dump()), v) << v.dump();
    EXPECT_EQ(parse(v.dump()).as_string(), s);
  }
}

TEST(JsonRoundTrip, UnicodePassesThroughUtf8) {
  const std::string cases[] = {
      "caf\xc3\xa9",                        // 2-byte UTF-8 (é)
      "\xe6\xbc\xa2\xe5\xad\x97",           // 3-byte (漢字)
      "\xf0\x9f\x9a\x80 rocket",            // 4-byte (emoji)
      "mixed \xc2\xb5 and ascii",
  };
  for (const std::string& s : cases) {
    const Value v(s);
    EXPECT_EQ(parse(v.dump()).as_string(), s);
  }
  // \uXXXX escapes decode to UTF-8 and then round-trip as raw bytes.
  const Value parsed = parse("\"\\u00e9\"");
  EXPECT_EQ(parsed.as_string(), "\xc3\xa9");
  EXPECT_EQ(parse(parsed.dump()), parsed);
}

TEST(JsonRoundTrip, IntegerExtremes) {
  const std::int64_t cases[] = {
      0,
      -1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
      4611686018427387904LL,   // 2^62
      -4611686018427387905LL,
  };
  for (const std::int64_t i : cases) {
    const Value v(i);
    EXPECT_EQ(parse(v.dump()), v) << i;
    EXPECT_EQ(parse(v.dump()).as_int(), i);
  }
}

TEST(JsonRoundTrip, DoubleExtremesSurviveExactly) {
  const double cases[] = {
      0.1,
      1.0 / 3.0,
      -0.0,
      5e-324,                                     // smallest denormal
      std::numeric_limits<double>::min(),         // smallest normal
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      1e22,                                       // exponent formatting
      -2.2250738585072011e-308,                   // near-denormal boundary
      3.141592653589793,
  };
  for (const double d : cases) {
    const Value round = parse(Value(d).dump());
    // Bit-exact: shortest-round-trip formatting must reproduce the double
    // (whole-valued doubles may come back as Int; Value equality and the
    // numeric comparison both accept that).
    ASSERT_EQ(round, Value(d)) << d;
    EXPECT_EQ(round.as_double(), d) << d;
  }
}

TEST(JsonDump, ShortestDoubleFormatting) {
  // std::to_chars emits the shortest text that round-trips, not %.17g's
  // padded form — 0.1 must dump as "0.1", not "0.10000000000000001".
  EXPECT_EQ(Value(0.1).dump(), "0.1");
  EXPECT_EQ(Value(2.5).dump(), "2.5");
}

TEST(JsonDump, LargePayloadDumpsWithReservedCapacity) {
  // Functional guard for the reserve() fast path: a payload much larger
  // than any growth increment still dumps and re-parses identically.
  Value big;
  for (int i = 0; i < 200; ++i) {
    Value row;
    row["id"] = i;
    row["name"] = "task-" + std::to_string(i);
    row["data"] = std::string(64, 'x');
    row["f"] = i * 0.125;
    big["rows"].push_back(std::move(row));
  }
  const std::string text = big.dump();
  EXPECT_GT(text.size(), 10000u);
  EXPECT_EQ(parse(text), big);
}

}  // namespace
}  // namespace entk::json
