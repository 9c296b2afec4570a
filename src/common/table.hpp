// Aligned console tables for benchmark output.
//
// Every bench target prints the paper's figure/table as a plain-text table
// through this class so all reproduction output has a uniform format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace xpuf {

/// Column-aligned table with a title, a header row, and formatted cells.
/// Numeric cells are formatted by the caller (the precision that matters is
/// experiment-specific). Rendering pads every column to its widest cell.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Sets (replaces) the header row.
  void set_header(std::vector<std::string> header);

  /// Appends a data row. Rows may be ragged; missing cells render empty.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats a double with fixed precision.
  static std::string num(double v, int precision = 4);

  /// Convenience: formats a double in scientific notation.
  static std::string sci(double v, int precision = 3);

  /// Convenience: formats a percentage (v in [0,1] -> "12.34%").
  static std::string pct(double v, int precision = 2);

  /// Renders to the stream with a title line, rule, header, rule, rows.
  void print(std::ostream& os) const;

  /// Renders to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace xpuf
