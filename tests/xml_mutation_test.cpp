// Mutation harness for the XML the model loader and the assurance case read.
// Valid documents (xml_mutants.hpp) are damaged by seeded byte flips,
// splices, duplicated and dropped lines and truncations. Every mutant must
// throw a decisive::Error or load; the whole-text load, the streamed load at
// several window sizes and the file load must give the same error message
// or the same model; and a model that loads must save, reload and save
// again to the same bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/xml.hpp"
#include "decisive/ssam/model.hpp"
#include "xml_mutants.hpp"

using namespace decisive;

namespace {

const std::string kAssets = DECISIVE_ASSETS_DIR;

/// A load's outcome: the error's kind and message, or the loaded model's
/// XMI. Anything thrown that is not a decisive::Error fails the test.
template <typename Load>
std::string model_outcome(Load load) {
  ssam::SsamModel model;
  try {
    load(model);
  } catch (const Error& error) {
    return "error " + std::string(to_string(error.kind())) + ": " + error.what();
  }
  return model::save_xmi(model.repo(), model.meta());
}

/// The assurance case's outcome: the error, or the case written back.
std::string case_outcome(std::string_view text) {
  try {
    return assurance::AssuranceCase::from_xml(text).to_xml();
  } catch (const Error& error) {
    return "error " + std::string(to_string(error.kind())) + ": " + error.what();
  }
}

/// Everything a reader reports: each child's events, then the root, or the
/// error.
std::string reader_outcome(xml::Reader& reader) {
  std::string out;
  try {
    while (reader.next()) {
      for (const xml::Event& event : reader.events()) {
        out += std::to_string(static_cast<int>(event.kind));
        out += event.name;
        out += '=';
        out += event.value;
        out += '\n';
      }
    }
    out += "root " + reader.root().name + " " + reader.root().text;
    for (const auto& [k, v] : reader.root().attributes) out += " " + k + "=" + v;
  } catch (const Error& error) {
    out += std::string("error: ") + error.what();
  }
  return out;
}

bool is_error(const std::string& outcome) { return outcome.rfind("error ", 0) == 0; }

/// The first bytes of an outcome, for a failure message.
std::string head(const std::string& outcome) { return outcome.substr(0, 160); }

/// Draws `count` mutants of `doc` from `seed` and checks each one.
void check_mutants(const xml_mutants::Document& doc, std::uint64_t seed, int count) {
  // One-byte windows re-read each piece about log2(its size) times; keep
  // them to the small documents.
  const std::vector<size_t> windows =
      doc.large ? std::vector<size_t>{4096, size_t{1} << 16}
                : std::vector<size_t>{1, 7, 64, 4096, size_t{1} << 16};
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("decisive_xml_mutant_" + doc.name + "_" + std::to_string(seed)))
                               .string();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + fnv1a64(doc.name));
  int loaded = 0;
  for (int i = 0; i < count; ++i) {
    const std::string mutant = xml_mutants::mutate(doc.text, rng);
    const std::string where = doc.name + " seed " + std::to_string(seed) + " mutant " +
                              std::to_string(i);
    if (!doc.model) {
      const std::string outcome = case_outcome(mutant);
      if (!is_error(outcome)) {
        ++loaded;
        EXPECT_EQ(case_outcome(outcome), outcome) << where;
      }
      xml::Reader whole(mutant);
      const std::string expected = reader_outcome(whole);
      for (const size_t window : windows) {
        std::istringstream in(mutant);
        xml::Reader streamed(in, window);
        EXPECT_EQ(reader_outcome(streamed), expected) << where << " window " << window;
      }
      continue;
    }

    const std::string outcome = model_outcome(
        [&](ssam::SsamModel& m) { model::load_xmi(m.repo(), m.meta(), mutant); });
    for (const size_t window : windows) {
      std::istringstream in(mutant);
      const std::string streamed = model_outcome(
          [&](ssam::SsamModel& m) { model::load_xmi(m.repo(), m.meta(), in, window); });
      EXPECT_TRUE(streamed == outcome)
          << where << " window " << window << "\n  text: " << head(outcome)
          << "\n  stream: " << head(streamed);
    }
    {
      std::ofstream out(path, std::ios::binary);
      out << mutant;
    }
    const std::string from_file = model_outcome(
        [&](ssam::SsamModel& m) { model::load_xmi_file(m.repo(), m.meta(), path); });
    EXPECT_TRUE(from_file == outcome)
        << where << " file\n  text: " << head(outcome) << "\n  file: " << head(from_file);
    if (is_error(outcome)) continue;
    ++loaded;
    const std::string again = model_outcome(
        [&](ssam::SsamModel& m) { model::load_xmi(m.repo(), m.meta(), outcome); });
    EXPECT_TRUE(again == outcome) << where << " does not save, reload and save alike";
  }
  std::remove(path.c_str());
  // A harness whose mutants all fail, or all load, checks half of its rules.
  if (count >= 20) {
    EXPECT_GT(loaded, 0) << doc.name << " seed " << seed;
    EXPECT_LT(loaded, count) << doc.name << " seed " << seed;
  }
}

/// `small` mutants of each small document and `large` of the 40×32 model
/// for each seed in [first, last].
void sweep(std::uint64_t first, std::uint64_t last, int small, int large) {
  for (const auto& doc : xml_mutants::documents(kAssets, large > 0)) {
    for (std::uint64_t seed = first; seed <= last; ++seed) {
      check_mutants(doc, seed, doc.large ? large : small);
    }
  }
}

}  // namespace

class XmlMutation : public ::testing::TestWithParam<int> {};

TEST_P(XmlMutation, MutantsFailAlikeOrRoundTrip) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  sweep(seed, seed, /*small=*/75, /*large=*/4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlMutation, ::testing::Range(1, 4));

// The wide net: seeds 4-23, run as its own step of the sanitizer job (and
// by hand: --gtest_also_run_disabled_tests).
TEST(XmlMutationWide, DISABLED_MutantsFailAlikeOrRoundTrip) { sweep(4, 23, 75, 2); }
