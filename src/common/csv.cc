#include "common/csv.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"

namespace ppn {

namespace {

/// Parses one CSV cell as a double, requiring the whole cell (modulo
/// surrounding whitespace, including a trailing '\r' from CRLF files) to
/// be consumed: "1.5abc" or "1.5 2.5" is a malformed cell, not 1.5.
bool ParseCell(const std::string& cell, double* value) {
  size_t begin = 0;
  size_t end = cell.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(cell[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(cell[end - 1]))) {
    --end;
  }
  if (begin == end) return false;
  const std::string trimmed = cell.substr(begin, end - begin);
  char* parse_end = nullptr;
  *value = std::strtod(trimmed.c_str(), &parse_end);
  return parse_end == trimmed.c_str() + trimmed.size();
}

}  // namespace

bool WriteCsv(const std::string& path, const CsvTable& table) {
  for (const auto& row : table.rows) {
    if (row.size() != table.header.size()) return false;
  }
  // Temp-then-rename: a crash mid-write never leaves a truncated CSV where
  // a previous complete one existed.
  AtomicFileWriter file(path);
  if (!file.ok()) return false;
  std::ostream& out = file.stream();
  for (size_t i = 0; i < table.header.size(); ++i) {
    if (i > 0) out << ",";
    out << table.header[i];
  }
  out << "\n";
  out.precision(12);
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ",";
      out << row[i];
    }
    out << "\n";
  }
  return file.Commit();
}

bool ReadCsv(const std::string& path, CsvTable* table) {
  table->header.clear();
  table->rows.clear();
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;
  {
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) table->header.push_back(cell);
  }
  if (table->header.empty()) return false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<double> row;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      double value = 0.0;
      if (!ParseCell(cell, &value)) {
        table->header.clear();
        table->rows.clear();
        return false;
      }
      row.push_back(value);
    }
    if (row.size() != table->header.size()) {
      table->header.clear();
      table->rows.clear();
      return false;
    }
    table->rows.push_back(std::move(row));
  }
  return true;
}

bool CsvIndex(double value, int64_t* index) {
  constexpr double kLimit = 1073741824.0;  // 2^30.
  if (!(value >= 0.0 && value < kLimit) || value != std::floor(value)) {
    return false;
  }
  *index = static_cast<int64_t>(value);
  return true;
}

}  // namespace ppn
