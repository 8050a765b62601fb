// Tests for the assurance-case module (SACM/ACME substitute): structure,
// XML round trip and automated evaluation with executable artifact queries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "decisive/assurance/case.hpp"
#include "decisive/assurance/evaluate.hpp"
#include "decisive/base/error.hpp"

using namespace decisive;
using namespace decisive::assurance;

namespace {

/// Writes an evidence CSV the artifact queries can check. The name carries
/// the process id: ctest runs each test in its own process, in parallel.
class EvidenceFile {
 public:
  explicit EvidenceFile(const std::string& content) {
    path_ = std::filesystem::temp_directory_path() /
            ("decisive-evidence-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++) + ".csv");
    std::ofstream out(path_);
    out << content;
  }
  ~EvidenceFile() { std::filesystem::remove(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

}  // namespace

TEST(Case, StructureAndLookup) {
  AssuranceCase ac("demo");
  ac.add_claim("G1", "top");
  ac.add_strategy("S1", "argue", "G1");
  ac.add_claim("G2", "sub", "S1");
  ac.add_context("C1", "context", "G1");
  EXPECT_EQ(ac.root().id, "G1");
  ASSERT_NE(ac.find("S1"), nullptr);
  EXPECT_EQ(ac.find("S1")->children, (std::vector<std::string>{"G2"}));
  EXPECT_EQ(ac.find("missing"), nullptr);
  EXPECT_EQ(ac.nodes().size(), 4u);
}

TEST(Case, DuplicateIdAndUnknownParentThrow) {
  AssuranceCase ac("demo");
  ac.add_claim("G1", "top");
  EXPECT_THROW(ac.add_claim("G1", "again"), ModelError);
  EXPECT_THROW(ac.add_claim("G2", "sub", "nope"), ModelError);
}

TEST(Case, EmptyRootThrows) {
  const AssuranceCase ac("empty");
  EXPECT_THROW((void)ac.root(), ModelError);
}

TEST(Case, XmlRoundTrip) {
  AssuranceCase ac("rt");
  ac.add_claim("G1", "claim with <chars> & \"quotes\"");
  ac.add_strategy("S1", "strategy", "G1");
  ac.add_artifact("E1", "evidence", "S1", "/tmp/x.csv", "csv",
                  "rows().size() > 0 and 'a' < 'b'");
  const auto loaded = AssuranceCase::from_xml(ac.to_xml());
  EXPECT_EQ(loaded.name(), "rt");
  ASSERT_EQ(loaded.nodes().size(), 3u);
  EXPECT_EQ(loaded.root().statement, "claim with <chars> & \"quotes\"");
  const Node* e1 = loaded.find("E1");
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->kind, NodeKind::ArtifactReference);
  EXPECT_EQ(e1->artifact_location, "/tmp/x.csv");
  EXPECT_EQ(e1->query, "rows().size() > 0 and 'a' < 'b'");
  EXPECT_EQ(loaded.find("S1")->children, (std::vector<std::string>{"E1"}));
}

TEST(Case, FromXmlRejectsBadDocuments) {
  EXPECT_THROW(AssuranceCase::from_xml("<other/>"), ParseError);
  EXPECT_THROW(AssuranceCase::from_xml(
                   "<assuranceCase><node kind=\"Claim\" statement=\"no id\"/></assuranceCase>"),
               ParseError);
  EXPECT_THROW(AssuranceCase::from_xml("<assuranceCase>"
                                       "<node kind=\"Claim\" id=\"G1\"/>"
                                       "<node kind=\"Claim\" id=\"G1\"/>"
                                       "</assuranceCase>"),
               ParseError);
  EXPECT_THROW(AssuranceCase::from_xml("<assuranceCase>"
                                       "<node kind=\"Wat\" id=\"G1\"/>"
                                       "</assuranceCase>"),
               ParseError);
}

// -------------------------------------------------------------- evaluation --

TEST(Evaluate, SupportedWhenQueryHolds) {
  const EvidenceFile evidence("metric\n0.97\n");
  AssuranceCase ac("eval");
  ac.add_claim("G1", "top");
  ac.add_artifact("E1", "evidence", "G1", evidence.path(), "csv",
                  "rows().first().metric >= 0.90");
  const auto report = evaluate(ac);
  EXPECT_TRUE(report.case_supported);
  EXPECT_EQ(report.result_for("E1")->state, ClaimState::Supported);
  EXPECT_EQ(report.result_for("G1")->state, ClaimState::Supported);
}

TEST(Evaluate, DefeatedWhenQueryFalse) {
  const EvidenceFile evidence("metric\n0.50\n");
  AssuranceCase ac("eval");
  ac.add_claim("G1", "top");
  ac.add_artifact("E1", "evidence", "G1", evidence.path(), "csv",
                  "rows().first().metric >= 0.90");
  const auto report = evaluate(ac);
  EXPECT_FALSE(report.case_supported);
  EXPECT_EQ(report.result_for("E1")->state, ClaimState::Defeated);
  EXPECT_EQ(report.result_for("G1")->state, ClaimState::Defeated);
}

TEST(Evaluate, DefeatedOnQueryOrIoErrors) {
  AssuranceCase ac("eval");
  ac.add_claim("G1", "top");
  ac.add_artifact("E1", "missing file", "G1", "/nonexistent/file.csv", "csv", "true");
  const auto report = evaluate(ac);
  EXPECT_EQ(report.result_for("E1")->state, ClaimState::Defeated);
  EXPECT_FALSE(report.result_for("E1")->detail.empty());

  const EvidenceFile evidence("a\n1\n");
  AssuranceCase bad_query("eval2");
  bad_query.add_claim("G1", "top");
  bad_query.add_artifact("E1", "bad", "G1", evidence.path(), "csv", "syntax error here (");
  EXPECT_EQ(evaluate(bad_query).result_for("E1")->state, ClaimState::Defeated);
}

TEST(Evaluate, UndevelopedWithoutEvidence) {
  AssuranceCase ac("eval");
  ac.add_claim("G1", "top");
  ac.add_claim("G2", "undeveloped sub", "G1");
  const auto report = evaluate(ac);
  EXPECT_FALSE(report.case_supported);
  EXPECT_EQ(report.result_for("G2")->state, ClaimState::Undeveloped);
  EXPECT_EQ(report.result_for("G1")->state, ClaimState::Undeveloped);
}

TEST(Evaluate, ContextDoesNotCountAsEvidence) {
  AssuranceCase ac("eval");
  ac.add_claim("G1", "top");
  ac.add_context("C1", "some context", "G1");
  const auto report = evaluate(ac);
  EXPECT_EQ(report.result_for("G1")->state, ClaimState::Undeveloped);
}

TEST(Evaluate, MixedChildren) {
  const EvidenceFile good("v\n1\n");
  const EvidenceFile bad("v\n0\n");
  AssuranceCase ac("eval");
  ac.add_claim("G1", "top");
  ac.add_artifact("E1", "good", "G1", good.path(), "csv", "rows().first().v == 1");
  ac.add_artifact("E2", "bad", "G1", bad.path(), "csv", "rows().first().v == 1");
  const auto report = evaluate(ac);
  EXPECT_EQ(report.result_for("G1")->state, ClaimState::Defeated);  // any defeated child
}

TEST(Evaluate, DanglingReferenceIsDefeated) {
  AssuranceCase ac("eval");
  Node& g1 = ac.add_claim("G1", "top");
  g1.children.push_back("ghost");
  const auto report = evaluate(ac);
  EXPECT_EQ(report.result_for("G1")->state, ClaimState::Defeated);
}

TEST(Evaluate, CycleTerminates) {
  AssuranceCase ac("eval");
  Node& g1 = ac.add_claim("G1", "top");
  Node& g2 = ac.add_claim("G2", "sub", "G1");
  g2.children.push_back("G1");  // cycle
  (void)g1;
  const auto report = evaluate(ac);  // must not hang
  EXPECT_FALSE(report.case_supported);
}

TEST(Evaluate, ExtraEnvironmentIsVisibleToQueries) {
  const EvidenceFile evidence("metric\n0.95\n");
  AssuranceCase ac("eval");
  ac.add_claim("G1", "top");
  ac.add_artifact("E1", "evidence", "G1", evidence.path(), "csv",
                  "rows().first().metric >= target");
  query::Env extra;
  extra.set("target", query::Value(0.90));
  EXPECT_TRUE(evaluate(ac, &extra).case_supported);
  extra.set("target", query::Value(0.99));
  EXPECT_FALSE(evaluate(ac, &extra).case_supported);
}

TEST(Evaluate, NonBooleanQueryResultIsDefeated) {
  const EvidenceFile evidence("v\n42\n");
  AssuranceCase ac("eval");
  ac.add_claim("G1", "top");
  ac.add_artifact("E1", "numeric", "G1", evidence.path(), "csv", "rows().first().v");
  const auto report = evaluate(ac);
  EXPECT_EQ(report.result_for("E1")->state, ClaimState::Defeated);
  EXPECT_NE(report.result_for("E1")->detail.find("42"), std::string::npos);
}
