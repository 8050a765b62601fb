// Unit tests for decisive_base: strings, LangString, CSV, XML, JSON, tables,
// the deterministic PRNG, and crash-safe file replacement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>
#include <unistd.h>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/base/lang_string.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/round.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/base/table.hpp"
#include "decisive/base/xml.hpp"

using namespace decisive;

// ---------------------------------------------------------------- strings --

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("model.mdl", "model"));
  EXPECT_FALSE(starts_with("m", "model"));
  EXPECT_TRUE(ends_with("model.mdl", ".mdl"));
  EXPECT_FALSE(ends_with("mdl", "model.mdl"));
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("MCu-1"), "mcu-1");
  EXPECT_TRUE(iequals("ASIL-B", "asil-b"));
  EXPECT_FALSE(iequals("ASIL-B", "asil-c"));
  EXPECT_FALSE(iequals("abc", "ab"));
}

TEST(Strings, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("  -1e-3 "), -1e-3);
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_double("1.5x"), ParseError);
  EXPECT_THROW(parse_double(""), ParseError);
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_THROW(parse_int("4.2"), ParseError);
}

TEST(Strings, ParseBool) {
  EXPECT_TRUE(parse_bool("true"));
  EXPECT_TRUE(parse_bool("TRUE"));
  EXPECT_TRUE(parse_bool("1"));
  EXPECT_FALSE(parse_bool("false"));
  EXPECT_FALSE(parse_bool("0"));
  EXPECT_THROW(parse_bool("yes"), ParseError);
}

TEST(Strings, FormatNumberTrimsTrailingZeros) {
  EXPECT_EQ(format_number(3.14), "3.14");
  EXPECT_EQ(format_number(3.0), "3");
  EXPECT_EQ(format_number(4.5), "4.5");
  EXPECT_EQ(format_number(-0.0), "0");
}

TEST(Strings, FormatNumberPrintsWhatPrintfPrints) {
  // format_number prints without printf; the reference is printf's "%.*f"
  // in the C locale with the same zero and "-0" trimming.
  const auto reference = [](double value, int decimals) -> std::string {
    if (std::isnan(value)) return "nan";
    if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
    std::vector<char> buffer(400 + static_cast<std::size_t>(decimals));
    std::snprintf(buffer.data(), buffer.size(), "%.*f", decimals, value);
    std::string out(buffer.data());
    if (out.find('.') != std::string::npos) {
      while (!out.empty() && out.back() == '0') out.pop_back();
      if (!out.empty() && out.back() == '.') out.pop_back();
    }
    return out == "-0" ? "0" : out;
  };
  std::vector<double> values = {0.0, -0.0, 0.5, -0.5, 1.5, 2.5, 0.125, 0.375, -2.5,
                                1e-7, -1e-7, 5e-7, 123456789.0, -42.0, 1e15, 1e300,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min()};
  Rng rng(20261018);
  for (int i = 0; i < 5000; ++i) {
    const double mantissa = rng.uniform(-10.0, 10.0);
    const int exponent = static_cast<int>(rng.below(25)) - 12;
    values.push_back(mantissa * std::pow(10.0, exponent));
    // Exact halves and integers: ties at the last printed decimal.
    values.push_back(static_cast<double>(static_cast<long long>(rng.below(2000000)) - 1000000) /
                     std::pow(2.0, static_cast<double>(rng.below(12))));
  }
  for (const double value : values) {
    for (int decimals = 0; decimals <= 12; ++decimals) {
      ASSERT_EQ(format_number(value, decimals), reference(value, decimals))
          << "value " << value << " decimals " << decimals;
    }
  }
  // Past 22 decimals or 2^53 the exact integer scaling hands over.
  for (const double value : {0x1p53, -0x1p53 - 2.0, 0x1p52 + 0.5, 1.0 / 3.0, -2.5e-20, 7e-23}) {
    for (int decimals = 0; decimals <= 30; ++decimals) {
      ASSERT_EQ(format_number(value, decimals), reference(value, decimals))
          << "value " << value << " decimals " << decimals;
    }
  }
  EXPECT_EQ(format_number(2.5, -1), "2.5");  // a negative precision means 6, as for printf
}

TEST(Strings, FormatPercent) {
  EXPECT_EQ(format_percent(0.9677), "96.77%");
  EXPECT_EQ(format_percent(0.3, 0), "30%");
}

TEST(ErrorHierarchy, KindsAndMessages) {
  const CapacityError error("too big");
  EXPECT_EQ(error.kind(), ErrorKind::Capacity);
  EXPECT_NE(std::string(error.what()).find("too big"), std::string::npos);
  EXPECT_EQ(to_string(ErrorKind::Simulation), "simulation");
}

// ------------------------------------------------------------- LangString --

TEST(LangString, DefaultsToEnglish) {
  const LangString name("power supply");
  EXPECT_EQ(name.get(), "power supply");
  EXPECT_EQ(name.get("en"), "power supply");
  EXPECT_TRUE(name.has("en"));
}

TEST(LangString, FallbackChain) {
  LangString name;
  EXPECT_EQ(name.get(), "");
  name.set("de", "Netzteil");
  EXPECT_EQ(name.get("en"), "Netzteil");  // any variant beats empty
  name.set("en", "power supply");
  EXPECT_EQ(name.get("fr"), "power supply");  // en fallback
  EXPECT_EQ(name.get("de"), "Netzteil");
  EXPECT_EQ(name.size(), 2u);
}

// -------------------------------------------------------------------- CSV --

TEST(Csv, ParsesHeaderAndRows) {
  const auto table = parse_csv("a,b\n1,2\n3,4\n");
  EXPECT_EQ(table.header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.at(0, "b"), "2");
  EXPECT_EQ(table.at(1, "a"), "3");
}

TEST(Csv, HandlesQuotedFields) {
  const auto table = parse_csv("name,desc\n\"a,b\",\"say \"\"hi\"\"\"\n");
  EXPECT_EQ(table.rows[0][0], "a,b");
  EXPECT_EQ(table.rows[0][1], "say \"hi\"");
}

TEST(Csv, HandlesCrLfAndTrailingNewlines) {
  const auto table = parse_csv("a,b\r\n1,2\r\n\r\n");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][1], "2");
}

TEST(Csv, ColumnLookupIsCaseInsensitive) {
  const auto table = parse_csv("Component,FIT\nDiode,10\n");
  EXPECT_EQ(table.column("component"), 0);
  EXPECT_EQ(table.column("fit"), 1);
  EXPECT_EQ(table.column("nope"), -1);
}

TEST(Csv, AtThrowsOnBadAccess) {
  const auto table = parse_csv("a\n1\n");
  EXPECT_THROW((void)table.at(0, "missing"), ModelError);
  EXPECT_THROW((void)table.at(5, "a"), ModelError);
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv("a\n\"unterminated\n"), ParseError);
}

TEST(Csv, WriteQuotesOnlyWhenNeeded) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"plain", "with,comma"}, {"with\"quote", "line\nbreak"}};
  const std::string text = write_csv(table);
  EXPECT_NE(text.find("plain"), std::string::npos);
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  const auto back = parse_csv(text);
  EXPECT_EQ(back.rows, table.rows);
}

class CsvRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(CsvRoundTrip, ParseWriteParseIsStable) {
  const auto first = parse_csv(GetParam());
  const auto second = parse_csv(write_csv(first));
  EXPECT_EQ(first.header, second.header);
  EXPECT_EQ(first.rows, second.rows);
}

INSTANTIATE_TEST_SUITE_P(Samples, CsvRoundTrip,
                         ::testing::Values("a,b\n1,2\n", "x\n\"quoted \"\"x\"\"\"\n",
                                           "h1,h2,h3\n,,\nval,,end\n",
                                           "only_header\n"));

// -------------------------------------------------------------------- XML --

TEST(Xml, ParsesElementsAttributesText) {
  const auto root = xml::parse("<a x=\"1\"><b>text</b><b y='2'/></a>");
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(root->attribute_or("x", ""), "1");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->text, "text");
  EXPECT_EQ(root->children[1]->attribute_or("y", ""), "2");
  EXPECT_EQ(root->children_named("b").size(), 2u);
}

TEST(Xml, DecodesEntities) {
  const auto root = xml::parse("<a v=\"&lt;&amp;&gt;&quot;&apos;\">x &#65; &#x42;</a>");
  EXPECT_EQ(root->attribute_or("v", ""), "<&>\"'");
  EXPECT_EQ(root->text, "x A B");
}

TEST(Xml, SkipsCommentsDeclarationsDoctype) {
  const auto root = xml::parse(
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- c --><a><!-- inner --><b/></a>");
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(root->children.size(), 1u);
}

TEST(Xml, CdataIsText) {
  const auto root = xml::parse("<a><![CDATA[1 < 2 && 3]]></a>");
  EXPECT_EQ(root->text, "1 < 2 && 3");
}

TEST(Xml, MalformedInputThrows) {
  EXPECT_THROW(xml::parse("<a><b></a>"), ParseError);
  EXPECT_THROW(xml::parse("<a"), ParseError);
  EXPECT_THROW(xml::parse("<a/><b/>"), ParseError);
  EXPECT_THROW(xml::parse("<a v=unquoted/>"), ParseError);
}

TEST(Xml, RoundTripPreservesStructure) {
  const auto root = xml::parse("<m p=\"ssam\"><o id=\"1\" class=\"C&amp;D\"><r t=\"2 3\"/></o></m>");
  const auto again = xml::parse(xml::write(*root));
  EXPECT_EQ(again->name, "m");
  EXPECT_EQ(again->children[0]->attribute_or("class", ""), "C&D");
  EXPECT_EQ(again->children[0]->children[0]->attribute_or("t", ""), "2 3");
}

TEST(Xml, WriteLayoutIsPinned) {
  // Saved models are this layout byte for byte: self-closed leaves, text
  // inline, children indented two spaces, the closing tag on its own line.
  const auto root = xml::parse(
      "<m p=\"a&lt;b\"><leaf/><t>x &amp; y</t><both k=\"v\">z<c/></both><o><i/></o></m>");
  EXPECT_EQ(xml::write(*root),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
            "<m p=\"a&lt;b\">\n"
            "  <leaf/>\n"
            "  <t>x &amp; y</t>\n"
            "  <both k=\"v\">z\n"
            "    <c/>\n"
            "  </both>\n"
            "  <o>\n"
            "    <i/>\n"
            "  </o>\n"
            "</m>\n");
}

TEST(Xml, ReaderHandsOverEachRootChildComplete) {
  xml::Reader reader("<?xml version=\"1.0\"?><m p=\"q\"><a k=\"1\"><x/></a>tail<b/></m>");
  std::vector<std::string> seen;
  while (reader.next()) {
    std::string events;
    for (const xml::Event& event : reader.events()) {
      events += std::to_string(static_cast<int>(event.kind)) + std::string(event.name) + " ";
    }
    seen.push_back(reader.root().name + "/" + reader.root().attribute_or("p", "") + ":" +
                   events);
  }
  // Start 0, Attribute 1, End 4: the child "a" arrives whole, its own child
  // "x" inside it.
  EXPECT_EQ(seen, (std::vector<std::string>{"m/q:0a 1k 0x 4x 4a ", "m/q:0b 4b "}));
  EXPECT_EQ(reader.root().name, "m");
  EXPECT_TRUE(reader.root().children.empty());
  EXPECT_EQ(reader.root().text, "tail");
  EXPECT_FALSE(reader.next());

  // A fault after two complete children: both were handed over first.
  seen.clear();
  xml::Reader faulty("<m><a/><b/><c>");
  EXPECT_THROW(
      [&] {
        while (faulty.next()) seen.emplace_back(faulty.events().front().name);
      }(),
      ParseError);
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
}

namespace {

/// Everything a Reader reports: each child's events as it handed them over,
/// then the root's name, attributes and text, or the ParseError message.
std::string reader_transcript(xml::Reader& reader) {
  std::string out;
  try {
    while (reader.next()) {
      for (const xml::Event& event : reader.events()) {
        const std::string name(event.name);
        const std::string value(event.value);
        switch (event.kind) {
          case xml::Event::Kind::Start: out += "<" + name; break;
          case xml::Event::Kind::Attribute: out += " " + name + "=" + value; break;
          case xml::Event::Kind::Text: out += " text=" + value; break;
          case xml::Event::Kind::Cdata: out += " cdata=" + value; break;
          case xml::Event::Kind::End: out += " />" + name; break;
        }
      }
      out += "\n";
    }
    const xml::Element& root = reader.root();
    out += "root <" + root.name;
    for (const auto& [k, v] : root.attributes) out += " " + k + "=" + v;
    out += " children=" + std::to_string(root.children.size()) + " text=" + root.text + ">\n";
  } catch (const ParseError& error) {
    out += std::string("error: ") + error.what() + "\n";
  }
  return out;
}

std::string stream_transcript(const std::string& text, size_t window) {
  std::istringstream in(text);
  xml::Reader reader(in, window);
  return reader_transcript(reader);
}

std::string text_transcript(const std::string& text) {
  xml::Reader reader(text);
  return reader_transcript(reader);
}

}  // namespace

TEST(Xml, StreamedReaderMatchesTheWholeTextAtAnyWindow) {
  // Root text split by children, comments, CDATA, a DOCTYPE, entities, a
  // child longer than most windows, multi-line content (line numbers), and
  // trailing misc: every window size, including one byte, must report the
  // whole text's children, root and errors.
  const std::string doc =
      "<?xml version=\"1.0\"?>\n<!DOCTYPE m>\n<!-- lead -->\n<m p=\"q &amp; r\">\n"
      "  head &lt;1&gt;\n  <a k=\"1\"><x y=\"2\"/>inner</a>\n  <!-- between -->\n"
      "  <![CDATA[raw <cdata>]]>\n  <b long=\"" + std::string(300, 'z') + "\">\n"
      "    <c/>\n  </b>\n  tail\n  <d/>\n</m>\n<!-- after -->\n";
  const std::string expected = text_transcript(doc);
  ASSERT_EQ(expected.find("error"), std::string::npos) << expected;
  for (size_t window = 1; window <= 80; ++window) {
    EXPECT_EQ(stream_transcript(doc, window), expected) << "window " << window;
  }
  EXPECT_EQ(stream_transcript(doc, 1 << 16), expected);

  // Every prefix, and the document with one byte changed at each position,
  // fails (or not) exactly as the whole text does, message and line number
  // included.
  for (size_t cut = 0; cut < doc.size(); ++cut) {
    const std::string prefix = doc.substr(0, cut);
    EXPECT_EQ(stream_transcript(prefix, 16), text_transcript(prefix)) << "cut " << cut;
    std::string damaged = doc;
    damaged[cut] = damaged[cut] == '<' ? '>' : '<';
    EXPECT_EQ(stream_transcript(damaged, 16), text_transcript(damaged)) << "damaged " << cut;
  }
}

TEST(Xml, StreamedReaderStartsWhereTheStreamStandsSeekableOrNot) {
  // The reader asks a seekable stream how much is left, to read a short one
  // whole: it must read on from the stream's position, and a stream that
  // cannot seek must still be read through the window.
  const std::string doc =
      "<?xml version=\"1.0\"?>\n<m p=\"1\">\n  <a/>\n  text\n  <b k=\"v\"/>\n</m>\n";
  const std::string expected = text_transcript(doc);
  ASSERT_EQ(expected.find("error"), std::string::npos) << expected;

  std::istringstream behind("HEADER" + doc);
  behind.ignore(6);
  xml::Reader behind_reader(behind);
  EXPECT_EQ(reader_transcript(behind_reader), expected);

  struct ForwardOnly : std::streambuf {  // no seekoff/seekpos: reads only
    explicit ForwardOnly(std::string text) : text(std::move(text)) {
      setg(this->text.data(), this->text.data(), this->text.data() + this->text.size());
    }
    std::string text;
  };
  for (const size_t window : {size_t{4}, size_t{1} << 16}) {
    ForwardOnly buf(doc);
    std::istream forward(&buf);
    xml::Reader reader(forward, window);
    EXPECT_EQ(reader_transcript(reader), expected) << "window " << window;
  }
}

// ------------------------------------------------------------------- JSON --

TEST(Json, ParsesAllTypes) {
  const auto v = json::parse(R"({"n": null, "b": true, "x": 1.5, "s": "hi",
                                 "a": [1, 2], "o": {"k": "v"}})");
  EXPECT_TRUE(v.find("n")->is_null());
  EXPECT_TRUE(v.find("b")->as_bool());
  EXPECT_DOUBLE_EQ(v.find("x")->as_number(), 1.5);
  EXPECT_EQ(v.find("s")->as_string(), "hi");
  EXPECT_EQ(v.find("a")->as_array().size(), 2u);
  EXPECT_EQ(v.find("o")->find("k")->as_string(), "v");
}

TEST(Json, DecodesEscapes) {
  const auto v = json::parse(R"(["a\"b", "\n\t\\", "A"])");
  EXPECT_EQ(v.as_array()[0].as_string(), "a\"b");
  EXPECT_EQ(v.as_array()[1].as_string(), "\n\t\\");
  EXPECT_EQ(v.as_array()[2].as_string(), "A");
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(json::parse("{"), ParseError);
  EXPECT_THROW(json::parse("[1,]"), ParseError);
  EXPECT_THROW(json::parse("tru"), ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1} extra"), ParseError);
}

TEST(Json, TypeMismatchThrows) {
  const auto v = json::parse("42");
  EXPECT_THROW((void)v.as_string(), ParseError);
  EXPECT_THROW((void)v.as_array(), ParseError);
  EXPECT_DOUBLE_EQ(v.as_number(), 42.0);
}

TEST(Json, RoundTrip) {
  const char* text = R"({"list": [1, true, null, "x"], "nested": {"deep": [{}]}})";
  const auto v = json::parse(text);
  const auto again = json::parse(json::write(v));
  EXPECT_EQ(json::write(v), json::write(again));
}

// ------------------------------------------------------------------ table --

TEST(TextTable, AlignsColumns) {
  TextTable table({"a", "bb"});
  table.add_row({"xxx", "y"});
  const std::string out = table.render();
  EXPECT_NE(out.find("a   | bb"), std::string::npos);
  EXPECT_NE(out.find("xxx | y"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(TextTable, PadsShortRows) {
  TextTable table({"a", "b", "c"});
  table.add_row({"1"});
  EXPECT_NO_THROW(table.render());
}

// -------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
  EXPECT_EQ(rng.below(0), 0u);
}

// ---------------------------------------------------------------- persist --

TEST(Persist, AtomicWriteReplacesWholeContentAndLeavesNoTempSibling) {
  // atomic_write_file writes a sibling temp file and renames it over the
  // target, so the target holds the old or the new content, never a mix;
  // the CLI test InterruptedHeartbeatWriteLeavesThePreviousHeartbeatIntact
  // kills a writer inside that window.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("decisive-persist-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = (dir / "state.json").string();
  {
    std::ofstream out(path);
    out << "previous generation, longer than the content that replaces it\n";
  }

  atomic_write_file(path, "new\n");

  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "new\n");
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "state.json");
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

namespace {

/// llround_inline(x) == std::llround(x), with x in the failure message.
void expect_rounds_like_llround(double x) {
  EXPECT_EQ(llround_inline(x), std::llround(x)) << std::hexfloat << x;
}

}  // namespace

TEST(Round, HalvesAndTheirNeighboursRoundLikeLlround) {
  // k + 0.5 rounds away from zero; the doubles on either side of it round
  // to the nearer integer. Below 2^52 every half is a double.
  std::vector<double> halves;
  for (int k = 0; k < 4096; ++k) halves.push_back(k + 0.5);
  for (int e = 12; e < 52; ++e) {
    const double k = std::ldexp(1.0, e);
    for (const double offset : {-2.0, -1.0, 0.0, 1.0, 3.0}) halves.push_back(k + offset + 0.5);
  }
  for (const double half : halves) {
    for (const double sign : {1.0, -1.0}) {
      const double x = sign * half;
      expect_rounds_like_llround(x);
      expect_rounds_like_llround(std::nextafter(x, 0.0));
      expect_rounds_like_llround(std::nextafter(x, 2.0 * x));
    }
  }
}

TEST(Round, EdgeValuesRoundLikeLlround) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double two52 = std::ldexp(1.0, 52);
  const double two63 = std::ldexp(1.0, 63);
  for (const double x : {0.49999999999999994, 0.5, 1.5, 2.5, two52 - 0.5, two52 - 1.0, two52,
                         two52 + 1.0, two52 + 2.0, std::ldexp(1.0, 53), two63 - 1024.0, two63,
                         1e19, 0.0, std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min(), kInf,
                         std::numeric_limits<double>::quiet_NaN()}) {
    expect_rounds_like_llround(x);
    expect_rounds_like_llround(-x);
  }
  EXPECT_EQ(llround_inline(-0.0), 0);
  EXPECT_EQ(llround_inline(0.49999999999999994), 0);
  EXPECT_EQ(llround_inline(-0.5), -1);
}

TEST(Round, GridQuotientsRoundLikeLlround) {
  // What the deployment search rounds: a value in [0, scale] over the grid
  // quantum 1e-9 * max(scale, 1), for scales from 1e-3 to 1e6.
  Rng rng(20260420);
  for (int i = 0; i < 1'000'000; ++i) {
    const double scale = std::pow(10.0, rng.uniform(-3.0, 6.0));
    const double quantum = 1e-9 * std::max(scale, 1.0);
    const double x = rng.uniform(0.0, scale) / quantum;
    ASSERT_EQ(llround_inline(x), std::llround(x)) << std::hexfloat << x;
  }
}
