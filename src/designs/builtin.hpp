#pragma once
// The shipped generated designs behind the `builtin:` scheme — one place
// that fixes the parameterizations and the exported property outputs, shared
// by rfn_cli, rfn_check and the test suites so a certificate produced by one
// binary hashes identically when re-elaborated by another.

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace rfn::designs {

/// Builds builtin design `name` ("fifo", "processor", "iu", "usb") with the
/// canonical small parameterization and its property signals exported as
/// named outputs (fifo: bad_full_q/bad_af_q/bad_hf_q; processor:
/// bad_mutex/error_flag; iu: iu0..iu4; usb: usb1_*/usb2_*).
/// "processor@paper" is the paper-scale processor of Table 1
/// (paper_scale_processor(), 4,968 registers) with the processor's outputs.
/// Unknown names set *ok = false and return an empty netlist.
Netlist make_builtin(const std::string& name, bool* ok);

/// The valid `builtin:` names, in the order make_builtin checks them. Error
/// messages list this set so a typo tells the user what would have worked —
/// the same convention RfnOptions::validate() uses for engine names.
const std::vector<std::string>& builtin_names();

}  // namespace rfn::designs
