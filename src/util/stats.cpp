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

std::string format_portfolio_stats(const MetricsSnapshot& s) {
  auto count = [&s](const char* name) {
    return fmt_int(static_cast<int64_t>(s.value(name)));
  };
  Table summary({"races", "launched", "cancelled", "inconclusive", "wall (s)"});
  summary.add_row({count("portfolio.races"), count("portfolio.jobs_launched"),
                   count("portfolio.jobs_cancelled"),
                   count("portfolio.jobs_inconclusive"),
                   fmt_double(s.value("portfolio.race.seconds"), 3)});
  std::string out = summary.to_string();
  Table winners({"engine", "wins"});
  bool any = false;
  static constexpr std::string_view kPrefix = "portfolio.wins.";
  for (const auto& [name, value] : s.values) {
    if (name.rfind(kPrefix, 0) != 0 || value <= 0.0) continue;
    winners.add_row({name.substr(kPrefix.size()),
                     fmt_int(static_cast<int64_t>(value))});
    any = true;
  }
  if (any) out += winners.to_string();
  return out;
}

std::string format_engine_stats(const MetricsSnapshot& s) {
  auto count = [&s](const char* name) {
    return fmt_int(static_cast<int64_t>(s.value(name)));
  };
  // Thread-CPU seconds from the portfolio's per-job accounting
  // ("engine.cpu.<job>" timers); "-" for engines that never raced.
  auto cpu = [&s](std::initializer_list<const char*> jobs) -> std::string {
    double total = 0.0;
    bool any = false;
    for (const char* job : jobs) {
      const std::string key = std::string("engine.cpu.") + job + ".seconds";
      if (s.values.find(key) == s.values.end()) continue;
      total += s.value(key.c_str());
      any = true;
    }
    return any ? fmt_double(total, 3) : "-";
  };
  Table t({"engine", "calls", "effort", "wall (s)", "cpu (s)"});
  t.add_row({"bdd-reach", count("mc.reach.calls"),
             count("mc.reach.image_steps") + " image steps",
             fmt_double(s.value("mc.reach.seconds"), 3),
             cpu({"bdd-reach"})});
  t.add_row({"comb-atpg", count("atpg.comb.calls"),
             count("atpg.comb.backtracks") + " backtracks", "-", "-"});
  t.add_row({"seq-atpg", count("atpg.seq.calls"),
             count("atpg.seq.backtracks") + " backtracks", "-",
             cpu({"guided-atpg"})});
  t.add_row({"hybrid", count("hybrid.walks"),
             count("hybrid.atpg_calls") + " atpg calls", "-", "-"});
  t.add_row({"sat-bmc", count("sat.checks"),
             count("sat.conflicts") + " conflicts", "-", cpu({"sat-bmc"})});
  t.add_row({"pdr", count("pdr.runs"), count("pdr.clauses") + " clauses",
             fmt_double(s.value("pdr.run.seconds"), 3), cpu({"pdr"})});
  return t.to_string();
}

}  // namespace rfn
