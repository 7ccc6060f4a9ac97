#include "core/rfn.hpp"

#include <algorithm>

#include "core/abstraction.hpp"
#include "core/session.hpp"

namespace rfn {

bool RfnOptions::engine_enabled(const char* name) const {
  if (engines.empty()) return true;
  return std::find(engines.begin(), engines.end(), name) != engines.end();
}

std::vector<std::string> RfnOptions::validate() const {
  std::vector<std::string> errors;
  // Single source of truth for the portfolio's engine names; the rejection
  // message spells out the whole valid set so a typo is self-correcting.
  static const char* const kEngines[] = {"bdd", "atpg", "sim", "sat", "pdr"};
  static const std::string kEngineList = [] {
    std::string list;
    for (const char* name : kEngines) {
      if (!list.empty()) list += ",";
      list += name;
    }
    return list;
  }();
  for (const std::string& e : engines) {
    const bool known = std::find(std::begin(kEngines), std::end(kEngines), e) !=
                       std::end(kEngines);
    if (!known)
      errors.push_back("unknown engine \"" + e + "\" (valid engines: " +
                       kEngineList + ")");
  }
  if (race_sat_max_depth == 0)
    errors.push_back("race_sat_max_depth must be >= 1");
  if (race_pdr_max_frames == 0)
    errors.push_back("race_pdr_max_frames must be >= 1");
  if (race_pdr_time_s < 0.0)
    errors.push_back("race_pdr_time_s must be >= 0");
  if (max_iterations == 0)
    errors.push_back("max_iterations must be >= 1");
  if (traces_per_iteration == 0)
    errors.push_back("traces_per_iteration must be >= 1");
  if (approx_fallback && approx_block_size == 0)
    errors.push_back("approx_block_size must be >= 1");
  if (approx_fallback && approx_overlap >= approx_block_size)
    errors.push_back(
        "approx_overlap must be smaller than approx_block_size (blocks must "
        "make forward progress)");
  if (budget_bdd_nodes < 0)
    errors.push_back("budget_bdd_nodes must be >= 0 (0 disables the budget)");
  if (budget_mem_mb < 0)
    errors.push_back("budget_mem_mb must be >= 0 (0 disables the budget)");
  if (race_probe_time_s < 0.0)
    errors.push_back("race_probe_time_s must be >= 0");
  if (race_sim_cycles == 0)
    errors.push_back("race_sim_cycles must be >= 1");
  if (reach.max_live_nodes == 0)
    errors.push_back("reach.max_live_nodes must be >= 1");
  if (reach.max_steps == 0)
    errors.push_back("reach.max_steps must be >= 1");
  return errors;
}

std::string join_errors(const std::vector<std::string>& errors) {
  std::string s;
  for (const std::string& e : errors) {
    if (!s.empty()) s += "; ";
    s += e;
  }
  return s;
}

RfnVerifier::RfnVerifier(const Netlist& m, GateId bad, RfnOptions opt)
    : m_(&m), bad_(bad), opt_(std::move(opt)) {
  RFN_CHECK(bad < m.size(), "bad signal out of range");
  included_ = initial_abstraction_registers(m, {bad});
}

RfnResult RfnVerifier::run() {
  // One-request path through the session engine (core/session.hpp). The
  // current included set seeds the run, so calling run() again resumes from
  // the previous run's refined abstraction rather than starting over.
  const std::vector<std::string> errors = opt_.validate();
  RFN_CHECK(errors.empty(), "invalid options: %s", join_errors(errors).c_str());
  RunHooks hooks;
  hooks.seed_registers = &included_;
  RfnResult result = run_property(*m_, bad_, opt_, hooks);
  included_ = result.final_registers;
  return result;
}

}  // namespace rfn
