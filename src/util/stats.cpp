#include "util/stats.hpp"

#include <algorithm>
#include <cstdio>

#include "util/log.hpp"

namespace rfn {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  RFN_CHECK(cells.size() == headers_.size(), "row width %zu != header width %zu",
            cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out.append(width[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) out += " | ";
    }
    out += '\n';
  };

  std::string out;
  emit_row(headers_, out);
  for (size_t c = 0; c < headers_.size(); ++c) {
    out.append(width[c], '-');
    if (c + 1 < headers_.size()) out += "-+-";
  }
  out += '\n';
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

std::string fmt_int(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  return buf;
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string format_engine_stats(const MetricsSnapshot& s) {
  auto count = [&s](const char* name) {
    return fmt_int(static_cast<int64_t>(s.value(name)));
  };
  Table t({"engine", "calls", "effort", "wall (s)"});
  t.add_row({"bdd-reach", count("mc.reach.calls"),
             count("mc.reach.image_steps") + " image steps",
             fmt_double(s.value("mc.reach.seconds"), 3)});
  t.add_row({"comb-atpg", count("atpg.comb.calls"),
             count("atpg.comb.backtracks") + " backtracks", "-"});
  t.add_row({"seq-atpg", count("atpg.seq.calls"),
             count("atpg.seq.backtracks") + " backtracks", "-"});
  t.add_row({"hybrid", count("hybrid.walks"),
             count("hybrid.atpg_calls") + " atpg calls", "-"});
  return t.to_string();
}

}  // namespace rfn
