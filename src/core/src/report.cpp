#include "decisive/core/report.hpp"

#include <filesystem>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::core {

CsvTable metrics_table(const FmedaResult& result) {
  CsvTable table;
  table.header = {"Metric", "Value"};
  table.rows = {
      {"SPFM", format_number(result.spfm(), 6)},
      {"SPFM_percent", format_percent(result.spfm())},
      {"Achieved_ASIL", result.asil_label()},
      {"Single_Point_FIT", format_number(result.single_point_fit(), 6)},
      {"Safety_Related_FIT", format_number(result.total_safety_related_fit(), 6)},
      {"Safety_Related_Components",
       std::to_string(result.safety_related_component_count())},
      {"Rows", std::to_string(result.rows.size())},
      {"Warnings", std::to_string(result.warnings.size())},
  };
  // Campaign outcome counts (appended so existing row indices stay stable).
  const auto counts = result.outcome_counts();
  for (size_t i = 0; i < kFaultOutcomeCount; ++i) {
    table.rows.push_back({"Faults_" + std::string(to_string(static_cast<FaultOutcome>(i))),
                          std::to_string(counts[i])});
  }
  return table;
}

void write_report_workbook(const std::string& directory, const FmedaResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) throw IoError("cannot create report directory '" + directory + "'");

  write_csv_file(directory + "/FMEDA.csv", result.to_csv());
  write_csv_file(directory + "/Metrics.csv", metrics_table(result));

  CsvTable warnings;
  warnings.header = {"Warning"};
  for (const auto& warning : result.warnings) warnings.rows.push_back({warning});
  write_csv_file(directory + "/Warnings.csv", warnings);
}

}  // namespace decisive::core
