#include "decisive/base/csv.hpp"

#include <fstream>
#include <optional>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"

namespace decisive {

int CsvTable::column(std::string_view name) const noexcept {
  for (size_t i = 0; i < header.size(); ++i) {
    if (iequals(header[i], name)) return static_cast<int>(i);
  }
  return -1;
}

const std::string& CsvTable::at(size_t row, std::string_view column_name) const {
  const int col = column(column_name);
  if (col < 0) throw ModelError("csv table has no column '" + std::string(column_name) + "'");
  if (row >= rows.size()) throw ModelError("csv row index out of range");
  const auto& r = rows[row];
  if (static_cast<size_t>(col) >= r.size()) {
    static const std::string kEmpty;
    return kEmpty;
  }
  return r[static_cast<size_t>(col)];
}

CsvTable parse_csv(std::string_view text, char sep) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"' && field.empty() && !field_started) {
      in_quotes = true;
      field_started = true;
    } else if (c == sep) {
      end_field();
    } else if (c == '\r') {
      // swallow; \n handles the record break
    } else if (c == '\n') {
      end_record();
    } else {
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) throw ParseError("unterminated quoted field in CSV");
  if (field_started || !field.empty() || !record.empty()) end_record();

  CsvTable table;
  if (records.empty()) return table;
  table.header = std::move(records.front());
  for (auto& h : table.header) h = std::string(trim(h));
  table.rows.assign(std::make_move_iterator(records.begin() + 1),
                    std::make_move_iterator(records.end()));
  // Drop fully-empty trailing rows (common artefact of trailing newlines).
  while (!table.rows.empty()) {
    const auto& last = table.rows.back();
    bool all_empty = true;
    for (const auto& cell : last) {
      if (!trim(cell).empty()) { all_empty = false; break; }
    }
    if (!all_empty) break;
    table.rows.pop_back();
  }
  return table;
}

CsvTable read_csv_file(const std::string& path, char sep) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw IoError("cannot open CSV file '" + path + "'");
  return parse_csv(*text, sep);
}

namespace {
std::string quote_if_needed(const std::string& cell, char sep) {
  const bool needs =
      cell.find(sep) != std::string::npos || cell.find('"') != std::string::npos ||
      cell.find('\n') != std::string::npos || cell.find('\r') != std::string::npos;
  if (!needs) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string write_csv(const CsvTable& table, char sep) {
  std::string out;
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += sep;
      out += quote_if_needed(row[i], sep);
    }
    out += '\n';
  };
  write_row(table.header);
  for (const auto& row : table.rows) write_row(row);
  return out;
}

void write_csv_file(const std::string& path, const CsvTable& table, char sep) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot write CSV file '" + path + "'");
  out << write_csv(table, sep);
  if (!out) throw IoError("failed while writing CSV file '" + path + "'");
}

}  // namespace decisive
