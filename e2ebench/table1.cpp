// Workload table1-paper: the paper's Table 1 property suite — the
// paper-scale processor (mutex, error_flag) and the FIFO (psh_hf, psh_af,
// psh_full) — each property verified solo through a VerifySession and its
// verdict certified.

#include "bench.hpp"
#include "designs/fifo.hpp"
#include "designs/processor.hpp"

namespace e2e {
namespace {

using rfn::GateId;
using rfn::Verdict;

struct Row {
  std::string name;
  const rfn::Netlist* net;
  GateId bad;
  Verdict expected;
};

class Table1 : public Workload {
 public:
  explicit Table1(const Args& a) : a_(a) {
    so_.cluster_overlap = 0.0;  // solo runs, as the paper verifies them
  }

  void setup() override {
    using namespace rfn::designs;
    proc_ = make_processor(a_.small ? ProcessorParams{} : paper_scale_processor());
    fifo_ = make_fifo();
    rows_ = {{"mutex", &proc_.netlist, proc_.bad_mutex, Verdict::Holds},
             {"error_flag", &proc_.netlist, proc_.error_flag, Verdict::Fails},
             {"psh_hf", &fifo_.netlist, fifo_.bad_push_hf, Verdict::Holds},
             {"psh_af", &fifo_.netlist, fifo_.bad_push_af, Verdict::Holds},
             {"psh_full", &fifo_.netlist, fifo_.bad_push_full, Verdict::Holds}};
    if (a_.inject_wrong) rows_[0].expected = Verdict::Fails;
    shuffle(rows_, a_.seed);
  }

  size_t pass(Tally& t) override {
    ref_.clear();
    size_t regs = 0;
    for (const Row& r : rows_) {
      rfn::VerifySession session(*r.net, so_);
      std::vector<rfn::PropertyResult> res = session.run(props(r));
      check_verdict(t, r.name, res[0].verdict, r.expected, certify(*r.net, res[0]));
      regs += res[0].stats.final_abstract_regs;
      ref_.push_back(std::move(res[0]));
    }
    return regs;
  }

  Metrics traced(Tally& t, SpanLog& log) override {
    const rfn::Stopwatch ref_watch;
    pass(t);
    const double ref_s = ref_watch.seconds();

    Layers l;
    const rfn::Stopwatch traced_watch;
    for (size_t i = 0; i < rows_.size(); ++i)
      traced_session(*rows_[i].net, so_, props(rows_[i]), {ref_[i]}, log, l, t);
    const double traced_s = traced_watch.seconds();
    return layer_metrics(l, log, l.program.inclusive_s("rfn.iteration"), ref_s,
                         traced_s, t);
  }

  double pass_s() const override { return 8.0; }

 private:
  static std::vector<rfn::PropertyRequest> props(const Row& r) {
    return {{r.name, r.bad, {}}};
  }

  Args a_;
  rfn::SessionOptions so_;
  rfn::designs::ProcessorDesign proc_;
  rfn::designs::FifoDesign fifo_;
  std::vector<Row> rows_;
  std::vector<rfn::PropertyResult> ref_;  // the last pass's results, row order
};

}  // namespace

std::unique_ptr<Workload> make_table1(const Args& a) {
  return std::make_unique<Table1>(a);
}

}  // namespace e2e
