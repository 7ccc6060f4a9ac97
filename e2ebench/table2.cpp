// Workload table2-iu: the paper's Table 2 coverage mode on the paper-scale
// IU design — rfn_coverage_analysis on coverage sets IU1 and IU5 until every
// coverage state is classified reachable or unreachable.

#include <algorithm>

#include "bench.hpp"
#include "core/coverage.hpp"
#include "designs/iu.hpp"

namespace e2e {
namespace {

struct CoverageSet {
  std::string name;
  size_t index;  // into IuDesign::coverage_sets
  size_t unreachable, reachable;  // expected; every state classified
};

class Table2 : public Workload {
 public:
  explicit Table2(const Args& a) : a_(a) {}

  void setup() override {
    iu_ = rfn::designs::make_iu(a_.small ? rfn::designs::IuParams{}
                                         : rfn::designs::paper_scale_iu());
    // The coverage sets are control state; both scales classify them alike.
    sets_ = {{"IU1", 0, 1003, 21}, {"IU5", 4, 992, 32}};
    if (a_.inject_wrong) ++sets_[0].unreachable;
    shuffle(sets_, a_.seed);
  }

  size_t pass(Tally& t) override {
    ref_.clear();
    size_t regs = 0;
    for (const CoverageSet& s : sets_) {
      ref_.push_back(rfn::rfn_coverage_analysis(iu_.netlist, iu_.coverage_sets[s.index]));
      check(t, s, ref_.back());
      regs += ref_.back().final_abstract_regs;
    }
    return regs;
  }

  Metrics traced(Tally& t, SpanLog& log) override {
    const rfn::Stopwatch ref_watch;
    pass(t);
    const double ref_s = ref_watch.seconds();

    Layers l;
    const rfn::Stopwatch traced_watch;
    for (size_t i = 0; i < sets_.size(); ++i) {
      const CoverageSet& s = sets_[i];
      const rfn::CoverageResult got = l.observe([&] {
        return log.time("coverage", [&] {
          return rfn::rfn_coverage_analysis(iu_.netlist, iu_.coverage_sets[s.index]);
        });
      });
      l.iterations += got.iterations;
      const rfn::CoverageResult& ref = ref_[i];
      if (got.state_class != ref.state_class || got.iterations != ref.iterations ||
          got.final_abstract_regs != ref.final_abstract_regs)
        t.fail("traced pass diverged on " + s.name + ": iterations " +
               std::to_string(got.iterations) + " vs " + std::to_string(ref.iterations) +
               ", final regs " + std::to_string(got.final_abstract_regs) + " vs " +
               std::to_string(ref.final_abstract_regs));
    }
    const double traced_s = traced_watch.seconds();
    // The coverage loop keeps no per-iteration records: Step 3's outcomes
    // are the status annotations of its sequential-ATPG spans.
    const auto& status = l.program.layer("concretize").status;
    const auto count = [&status](const char* s) {
      const auto it = status.find(s);
      return it == status.end() ? size_t{0} : it->second;
    };
    l.concretize_real = count("sat");
    l.concretize_spurious = count("unsat");
    l.concretize_aborts = count("abort");
    return layer_metrics(l, log, log.busy("coverage"), ref_s, traced_s, t);
  }

  double pass_s() const override { return 10.0; }

 private:
  /// One operation per coverage state: a state fails when it is left
  /// unclassified or the set's counts differ from the expected ones.
  static void check(Tally& t, const CoverageSet& s, const rfn::CoverageResult& r) {
    const auto diff = [](size_t a, size_t b) { return a > b ? a - b : b - a; };
    const size_t bad = std::min(
        r.total_states, r.unknown + std::max(diff(r.unreachable, s.unreachable),
                                             diff(r.reachable, s.reachable)));
    t.ops(r.total_states, bad,
          s.name + ": " + std::to_string(r.unreachable) + " unreachable / " +
              std::to_string(r.reachable) + " reachable / " +
              std::to_string(r.unknown) + " unknown, expected " +
              std::to_string(s.unreachable) + " / " + std::to_string(s.reachable) +
              " / 0");
  }

  Args a_;
  rfn::designs::IuDesign iu_;
  std::vector<CoverageSet> sets_;
  std::vector<rfn::CoverageResult> ref_;  // the last pass's results, set order
};

}  // namespace

std::unique_ptr<Workload> make_table2(const Args& a) {
  return std::make_unique<Table2>(a);
}

}  // namespace e2e
