// Quickstart: verify a safety property of a small design with RFN.
//
// Builds a lock-step elevator-door controller with a watchdog for "the door
// is never open while the cabin is moving", runs the RFN
// abstraction-refinement loop, and prints the verdict, the abstract-model
// size, and (for violated properties) the error trace.
//
// Usage: quickstart [--buggy] [--verbose]

#include <cstdio>

#include "core/rfn.hpp"
#include "netlist/builder.hpp"
#include "netlist/writer.hpp"
#include "util/options.hpp"

using namespace rfn;

namespace {

// A door/motion controller:
//   * the cabin FSM: PARKED -> ACCEL -> CRUISE -> PARKED (on arrive)
//   * the door FSM: CLOSED -> OPENING -> OPEN -> CLOSING -> CLOSED
//   * interlock: the door may only start opening when the cabin is PARKED;
//     the cabin may only leave PARKED when the door is CLOSED.
// With --buggy the interlock on the cabin side is dropped, making the
// property falsifiable.
Netlist make_elevator(bool buggy, GateId* bad_out) {
  NetBuilder b;
  const GateId call = b.input("call");        // request to move
  const GateId arrive = b.input("arrive");    // floor sensor
  const GateId open_req = b.input("open_req");

  const Word cabin = b.reg_word("cabin", 2, 0);  // 0 parked, 1 accel, 2 cruise
  const Word door = b.reg_word("door", 2, 0);    // 0 closed, 1 opening, 2 open, 3 closing

  const GateId parked = b.eq_const(cabin, 0);
  const GateId closed = b.eq_const(door, 0);

  // Cabin transitions. The door only starts opening when there is no move
  // request in flight, so a same-cycle race between the two FSMs is
  // impossible — unless --buggy drops the cabin-side interlock.
  const GateId may_move = buggy ? call : b.and_(call, closed);
  Word cabin_next = b.mux_word(may_move, cabin, b.constant_word(1, 2));
  cabin_next = b.mux_word(b.eq_const(cabin, 1), cabin_next, b.constant_word(2, 2));
  cabin_next = b.mux_word(b.and_(b.eq_const(cabin, 2), arrive), cabin_next,
                          b.constant_word(0, 2));
  b.set_next_word(cabin, b.mux_word(parked, cabin_next,
                                    b.mux_word(may_move, cabin, b.constant_word(1, 2))));

  // Door transitions (only opens while parked and no move request pending).
  Word door_next = door;
  door_next = b.mux_word(b.and_n({closed, open_req, parked, b.not_(call)}), door_next,
                         b.constant_word(1, 2));
  door_next = b.mux_word(b.eq_const(door, 1), door_next, b.constant_word(2, 2));
  door_next = b.mux_word(b.and_(b.eq_const(door, 2), b.not_(open_req)), door_next,
                         b.constant_word(3, 2));
  door_next = b.mux_word(b.eq_const(door, 3), door_next, b.constant_word(0, 2));
  b.set_next_word(door, door_next);

  // Watchdog: door not closed while the cabin is not parked.
  const GateId violation = b.and_(b.not_(closed), b.not_(parked));
  const GateId bad = b.reg("bad", Tri::F);
  b.set_next(bad, b.or_(bad, violation));
  b.output("bad", bad);

  Netlist n = b.take();
  *bad_out = n.output("bad");
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.get_bool("verbose", false)) set_log_level(LogLevel::Info);
  const bool buggy = opts.get_bool("buggy", false);

  GateId bad = kNullGate;
  const Netlist design = make_elevator(buggy, &bad);
  std::printf("design: %s\n", stats_line(design).c_str());

  RfnOptions rfn_opts;
  rfn_opts.time_limit_s = opts.get_double("time-limit", 60.0);
  const RfnResult result = run_property(design, bad, rfn_opts);

  std::printf("property 'door closed while moving': %s\n",
              result.verdict == Verdict::Holds   ? "HOLDS"
              : result.verdict == Verdict::Fails ? "VIOLATED"
                                                 : "UNKNOWN");
  std::printf("iterations: %zu, final abstract model: %zu of %zu registers\n",
              result.iterations, result.final_abstract_regs, design.num_regs());
  if (result.verdict == Verdict::Fails) {
    std::printf("error trace (%zu cycles):\n%s", result.error_trace.cycles(),
                trace_to_string(design, result.error_trace).c_str());
  }
  return result.verdict == Verdict::Unknown ? 1 : 0;
}
