// The shared JSON reader and writer helpers (util/json): the escaper
// and number formatter every writer uses, and the reader's rules that
// keep untrusted floorplan, trace and diagnostics files from crashing
// the tools — spec escapes, the nesting cap, checked integers,
// truncated input and error offsets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace presp {
namespace {

std::string escaped(std::string_view text) {
  std::string out;
  json::append_string(out, text);
  return out;
}

std::string number(double v) {
  std::string out;
  json::append_number(out, v);
  return out;
}

std::string read_string(const std::string& text) {
  json::Reader reader(text, "test");
  return reader.string();
}

void skip(const std::string& text) {
  json::Reader reader(text, "test");
  reader.skip_value();
}

std::string error_of(const std::string& text) {
  try {
    skip(text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

// ------------------------------------------------------------- writer

TEST(JsonWriterTest, StringEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(escaped("plain -> text"), "\"plain -> text\"");
  EXPECT_EQ(escaped("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(escaped("n\nt\tr\r"), R"("n\nt\tr\r")");
  EXPECT_EQ(escaped(std::string("\x01\x08\x0c\x1f", 4)),
            R"("\u0001\u0008\u000c\u001f")");
  EXPECT_EQ(escaped(std::string(1, '\0')), R"("\u0000")");
  // DEL, '/' and UTF-8 pass through untouched.
  EXPECT_EQ(escaped("\x7f/\xc3\xa9"), "\"\x7f/\xc3\xa9\"");
}

TEST(JsonWriterTest, NumberPrintsIntegersExactlyAndTheRestAsG6) {
  EXPECT_EQ(number(0.0), "0");
  EXPECT_EQ(number(-0.0), "0");
  EXPECT_EQ(number(42.0), "42");
  EXPECT_EQ(number(-3.0), "-3");
  EXPECT_EQ(number(999'999'999'999'999.0), "999999999999999");
  EXPECT_EQ(number(1e15), "1e+15");
  EXPECT_EQ(number(0.5), "0.5");
  EXPECT_EQ(number(1.0 / 3.0), "0.333333");
  EXPECT_EQ(number(1e300), "1e+300");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(std::nan("")), "null");
}

TEST(JsonWriterTest, NonFiniteNumbersPrintAsNull) {
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(-std::nan("")), "null");
  // The output stays readable by the strict reader.
  const std::string doc = "[" + number(std::nan("")) + "]";
  json::Reader reader(doc, "test");
  reader.array([&] { EXPECT_TRUE(reader.consume_null()); });
}

// ------------------------------------------------------------- reader

TEST(JsonReaderTest, DecodesEveryEscape) {
  EXPECT_EQ(read_string(R"("\"\\\/\b\f\n\r\t")"), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(read_string(R"("\u0041\u00e9\u20AC")"), "A\xc3\xa9\xe2\x82\xac");
  // A surrogate pair decodes to one 4-byte UTF-8 code point.
  EXPECT_EQ(read_string(R"("\ud83d\ude00")"), "\xf0\x9f\x98\x80");
  EXPECT_EQ(read_string("\"raw \xc3\xa9 bytes\""), "raw \xc3\xa9 bytes");
}

TEST(JsonReaderTest, RejectsMalformedEscapes) {
  for (const char* text :
       {R"("\uZZZZ")", R"("\u12")", R"("\u-123")", R"("\u+123")",
        R"("\x41")", R"("\udc00")", R"("\ud83d")", R"("\ud83dx")",
        R"("\ud83dA")", R"("\)"}) {
    EXPECT_THROW(read_string(text), ConfigError) << text;
  }
}

TEST(JsonReaderTest, EveryByteRoundTripsThroughTheEscaper) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  EXPECT_EQ(read_string(escaped(all)), all);
}

TEST(JsonReaderTest, SkipValueStopsAtTheNestingCap) {
  constexpr int kCap = json::Reader::kMaxDepth;
  const auto nested = [](int depth, char open, const std::string& inner,
                         char close) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    text += inner;
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  EXPECT_NO_THROW(skip(nested(kCap, '[', "1", ']')));
  EXPECT_THROW(skip(nested(kCap + 1, '[', "1", ']')), ConfigError);
  EXPECT_THROW(skip(nested(300'000, '[', "", ']')), ConfigError);

  std::string objects = "1";
  for (int i = 0; i <= kCap; ++i) objects = "{\"k\":" + objects + "}";
  EXPECT_THROW(skip(objects), ConfigError);
  EXPECT_NE(error_of(objects).find("nesting deeper than"),
            std::string::npos);
}

TEST(JsonReaderTest, SkipValueAcceptsEveryValueKind) {
  EXPECT_NO_THROW(skip(
      R"({"a": [1, -2.5e3, true, false, null, "s\n"], "b": {}, "c": []})"));
}

TEST(JsonReaderTest, IntegersMustFitTheirType) {
  const auto as_int = [](const std::string& text) {
    json::Reader reader(text, "test");
    return reader.integer<int>();
  };
  const auto as_u64 = [](const std::string& text) {
    json::Reader reader(text, "test");
    return reader.integer<std::uint64_t>();
  };
  EXPECT_EQ(as_int(" 2147483647"), 2147483647);
  EXPECT_EQ(as_int("-2147483648"), -2147483647 - 1);
  EXPECT_EQ(as_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"2147483648", "-2147483649", "1.0", "1e3", "-",
                          "", "x", "true"}) {
    EXPECT_THROW(as_int(bad), ConfigError) << bad;
  }
  EXPECT_THROW(as_u64("18446744073709551616"), ConfigError);
  EXPECT_THROW(as_u64("-1"), ConfigError);
}

TEST(JsonReaderTest, NumbersOutsideDoubleRangeAreErrors) {
  json::Reader ok("-12.5e-1", "test");
  EXPECT_DOUBLE_EQ(ok.number(), -1.25);
  json::Reader huge("1e999", "test");
  EXPECT_THROW(huge.number(), ConfigError);
  json::Reader word("abc", "test");
  EXPECT_THROW(word.number(), ConfigError);
}

TEST(JsonReaderTest, NonFiniteNumberTokensAreErrors) {
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                           "-Infinity", "infinity", "-", "+1", ".5"}) {
    json::Reader reader(text, "test");
    EXPECT_THROW(reader.number(), ConfigError) << text;
    EXPECT_THROW(skip(text), ConfigError) << text;
  }
  json::Reader negative(" -0.5", "test");
  EXPECT_DOUBLE_EQ(negative.number(), -0.5);
}

TEST(JsonReaderTest, EveryTruncationOfADocumentIsAnError) {
  const std::string doc =
      R"({"name": "a\"b\u0041", "list": [1, 2.5, true, null], "o": {}})";
  EXPECT_NO_THROW(skip(doc));
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_THROW(skip(doc.substr(0, n)), ConfigError) << n;
  }
}

TEST(JsonReaderTest, ErrorsNameTheDocumentAndOffset) {
  EXPECT_EQ(error_of("  [1, x]"),
            "test JSON parse error at offset 6: expected number");
  EXPECT_EQ(error_of(R"(["ok", "\uZZZZ"])"),
            "test JSON parse error at offset 10: malformed \\u escape");
  EXPECT_EQ(error_of("{\"a\" 1}"),
            "test JSON parse error at offset 5: expected ':'");
  EXPECT_EQ(error_of("\"open"),
            "test JSON parse error at offset 5: unterminated string");
}

TEST(JsonReaderTest, ObjectAndArrayWalkMembersInOrder) {
  const std::string text = R"({"a": [3, 4], "b": "x", "skip": {"n": [1]}})";
  json::Reader reader(text, "test");
  std::vector<int> numbers;
  std::string b;
  reader.object([&](const std::string& key) {
    if (key == "a")
      reader.array([&] { numbers.push_back(reader.integer<int>()); });
    else if (key == "b")
      b = reader.string();
    else
      reader.skip_value();
  });
  EXPECT_EQ(numbers, (std::vector<int>{3, 4}));
  EXPECT_EQ(b, "x");
}

}  // namespace
}  // namespace presp
