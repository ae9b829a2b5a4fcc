#ifndef PPN_COMMON_CSV_H_
#define PPN_COMMON_CSV_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Minimal CSV reading/writing for numeric tables. Used to persist generated
/// market datasets and bench results so experiments can be replayed and
/// plotted externally.

namespace ppn {

/// A numeric table: a header row plus rows of doubles (all rows the same
/// width as the header).
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

/// Writes `table` to `path`. Returns false on IO failure or if any row's
/// width differs from the header's.
bool WriteCsv(const std::string& path, const CsvTable& table);

/// Reads a numeric CSV written by `WriteCsv` (first line header, remaining
/// lines doubles). Returns false on IO/parse failure; on failure `*table`
/// is left empty.
bool ReadCsv(const std::string& path, CsvTable* table);

/// Reads a cell as an index or count. `ReadCsv` accepts any double (nan,
/// inf, 1e300), so the range is checked before the cast: false unless
/// `value` is a whole number in [0, 2^30), which keeps the product of two
/// indices and a small factor inside int64.
bool CsvIndex(double value, int64_t* index);

}  // namespace ppn

#endif  // PPN_COMMON_CSV_H_
