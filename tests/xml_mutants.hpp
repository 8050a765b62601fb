// Seeded mutants of valid XML documents for the mutation harness
// (xml_mutation_test.cpp): the committed SSAM model, freshly saved Systems A
// and B and the 40×32 scaled architecture, and an assurance case, each
// damaged by byte flips, splices, duplicated and dropped lines and
// truncations. Header-only, so that a check of another build's loader can
// draw the very same mutants.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "decisive/assurance/case.hpp"
#include "decisive/base/table.hpp"
#include "decisive/core/synthetic.hpp"
#include "decisive/model/xmi.hpp"

namespace xml_mutants {

/// A document the harness mutates; `model` tells an SSAM model (loaded with
/// model::load_xmi) from an assurance case (AssuranceCase::from_xml), and
/// `large` the one document too big for one-byte windows.
struct Document {
  std::string name;
  std::string text;
  bool model = true;
  bool large = false;
};

inline std::string saved(const decisive::core::SyntheticSystem& system) {
  return decisive::model::save_xmi(system.model->repo(), system.model->meta());
}

/// An assurance case with every node kind, nesting, a query child and
/// entities in its attributes and text.
inline std::string assurance_document() {
  decisive::assurance::AssuranceCase ac("brake <case> & \"more\"");
  ac.add_claim("G1", "The brake chain is acceptably safe");
  ac.add_strategy("S1", "Argue over the FMEDA & the 'cut sets'", "G1");
  ac.add_context("C1", "ISO 26262 part 5, ASIL < D", "G1");
  ac.add_claim("G2", "SPFM >= 90%", "S1");
  ac.add_claim("G3", "Latent faults covered", "S1");
  ac.add_artifact("E1", "FMEDA evidence", "G2", "brake_by_wire_report/FMEDA.csv", "csv",
                  "count(rows('FMEDA'), r -> r.safety_related == 'yes' && r.fit > 0) < 3");
  ac.add_artifact("E2", "Cut-set evidence", "G3", "cut_sets.csv", "csv", "true");
  return ac.to_xml();
}

/// Every document, the 40×32 model only when `with_large`.
inline std::vector<Document> documents(const std::string& assets_dir, bool with_large) {
  std::ifstream in(assets_dir + "/brake_chain.ssam", std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + assets_dir + "/brake_chain.ssam");
  std::vector<Document> out;
  out.push_back({"brake_chain", std::string(std::istreambuf_iterator<char>(in), {})});
  out.push_back({"system_a", saved(decisive::core::make_system_a())});
  out.push_back({"system_b", saved(decisive::core::make_system_b())});
  out.push_back({"assurance_case", assurance_document(), /*model=*/false});
  if (with_large) {
    out.push_back({"scaled_40x32", saved(decisive::core::make_scaled_architecture(40, 32)),
                   /*model=*/true, /*large=*/true});
  }
  return out;
}

/// The line around byte `at`, as [begin, end) with its '\n'.
inline std::pair<size_t, size_t> line_at(const std::string& text, size_t at) {
  const size_t newline_before = text.rfind('\n', at == 0 ? 0 : at - 1);
  const size_t begin = at == 0 || newline_before == std::string::npos ? 0 : newline_before + 1;
  const size_t newline = text.find('\n', at);
  return {begin, newline == std::string::npos ? text.size() : newline + 1};
}

/// One mutation of `text`.
inline void mutate_once(std::string& text, decisive::Rng& rng) {
  if (text.empty()) return;
  const size_t at = rng.below(text.size());
  switch (rng.below(5)) {
    case 0: {  // byte flip: half to a byte of XML's structure or a digit
      static constexpr char kBytes[] = "<>/=\"'&;#! \n0123456789-.x";
      text[at] = rng.chance(0.5) ? kBytes[rng.below(sizeof(kBytes) - 1)]
                                 : static_cast<char>(rng.below(256));
      return;
    }
    case 1: {  // splice: up to 64 bytes of the document inserted elsewhere
      const size_t from = rng.below(text.size());
      const size_t length = 1 + rng.below(std::min<size_t>(64, text.size() - from));
      text.insert(at, text.substr(from, length));
      return;
    }
    case 2: {  // duplicated line
      const auto [begin, end] = line_at(text, at);
      text.insert(end, text.substr(begin, end - begin));
      return;
    }
    case 3: {  // dropped line
      const auto [begin, end] = line_at(text, at);
      text.erase(begin, end - begin);
      return;
    }
    default:  // truncation
      text.resize(at);
      return;
  }
}

/// One to three mutations of `text`, so some mutants carry two faults.
inline std::string mutate(std::string text, decisive::Rng& rng) {
  const auto count = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < count; ++i) mutate_once(text, rng);
  return text;
}

}  // namespace xml_mutants
