#pragma once
// Result-table formatting shared by the Table 1 / Table 2 benches.
//
// The paper reports results as fixed-column ASCII tables; benches format
// their rows through this helper so all tables render uniformly and
// EXPERIMENTS.md can quote the output verbatim.

#include <string>
#include <vector>

#include "util/metrics.hpp"

namespace rfn {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders with column widths fitted to content, e.g.
  ///   property | regs in COI | time (s) | result
  ///   ---------+-------------+----------+-------
  ///   mutex    | 4982        | 12.3     | T
  std::string to_string() const;

  /// Prints to stdout.
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Helpers for formatting table cells.
std::string fmt_int(int64_t v);
std::string fmt_double(double v, int precision = 1);

/// Renders per-engine effort from the registry snapshot as a table: one row
/// per engine namespace (BDD reachability, combinational/sequential ATPG,
/// hybrid trace extraction) with calls, search effort and wall time where
/// recorded. Printed by the CLI after every verify run.
std::string format_engine_stats(const MetricsSnapshot& s);

}  // namespace rfn
