#include "designs/builtin.hpp"

#include <utility>

#include "designs/fifo.hpp"
#include "designs/iu.hpp"
#include "designs/processor.hpp"
#include "designs/usb.hpp"

namespace rfn::designs {

const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> kNames = {"fifo", "processor", "processor@paper",
                                                  "iu", "usb"};
  return kNames;
}

Netlist make_builtin(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "fifo")
    return make_fifo({.addr_bits = 3, .data_bits = 2}).netlist;
  if (name == "processor" || name == "processor@paper") {
    ProcessorParams p;
    p.units = 4;
    p.pipe_depth = 4;
    p.pipe_width = 4;
    p.result_regs = 8;
    p.counter_bits = 4;
    ProcessorDesign d = make_processor(name == "processor" ? p : paper_scale_processor());
    d.netlist.add_output("bad_mutex", d.bad_mutex);
    d.netlist.add_output("error_flag", d.error_flag);
    return std::move(d.netlist);
  }
  if (name == "iu") {
    IuDesign d = make_iu({});
    for (size_t s = 0; s < d.coverage_sets.size(); ++s)
      d.netlist.add_output("iu" + std::to_string(s), d.coverage_sets[s][0]);
    // The coverage registers are all reachable (VIOLATED as properties), so
    // also expose a provable safety monitor: the decode FSM never enters an
    // illegal state (dec in {6,7} <=> dec[2] & dec[1]).
    d.netlist.add_output(
        "bad_dec", d.netlist.add(GateType::And,
                                 {d.netlist.find("dec[2]"),
                                  d.netlist.find("dec[1]")}));
    return std::move(d.netlist);
  }
  if (name == "usb") {
    UsbDesign d = make_usb({});
    for (size_t i = 0; i < d.usb1.size(); ++i)
      d.netlist.add_output("usb1_" + std::to_string(i), d.usb1[i]);
    for (size_t i = 0; i < d.usb2.size(); ++i)
      d.netlist.add_output("usb2_" + std::to_string(i), d.usb2[i]);
    // Same: the line register never holds SE1 (line == 3), a provable
    // safety property next to the reachable coverage targets.
    d.netlist.add_output(
        "bad_se1", d.netlist.add(GateType::And,
                                 {d.netlist.find("line[0]"),
                                  d.netlist.find("line[1]")}));
    return std::move(d.netlist);
  }
  *ok = false;
  return Netlist{};
}

}  // namespace rfn::designs
