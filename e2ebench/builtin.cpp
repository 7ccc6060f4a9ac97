// Workload builtin-batch: the four builtin property suites with the property
// lists of CI's batch job, through api::load_design + api::run_verify with
// the default session options (clustering at 0.5, reuse on) and
// certification on — the path every CLI and server user gets by default.
//
// The traced pass repeats run_verify's two phases — the VerifySession run
// and the certification of each conclusive verdict — as traced_session does.

#include <stdexcept>

#include "api/api.hpp"
#include "bench.hpp"

namespace e2e {
namespace {

using rfn::Verdict;

struct Suite {
  std::string design;
  std::vector<std::pair<std::string, Verdict>> props;  // signal, expected
};

const std::vector<Suite>& suites() {
  constexpr Verdict T = Verdict::Holds, F = Verdict::Fails;
  static const std::vector<Suite> kSuites = {
      {"fifo", {{"bad_full_q", T}, {"bad_af_q", T}, {"bad_hf_q", T}}},
      {"processor", {{"bad_mutex", T}, {"error_flag", F}}},
      {"iu",
       {{"bad_dec", T}, {"iu0", F}, {"iu1", F}, {"iu2", F}, {"iu3", F}, {"iu4", F}}},
      {"usb",
       {{"bad_se1", T}, {"usb1_0", F}, {"usb1_1", F}, {"usb2_0", F}, {"usb2_1", F}}},
  };
  return kSuites;
}

class BuiltinBatch : public Workload {
 public:
  explicit BuiltinBatch(const Args& a) : a_(a) {}

  void setup() override {
    for (const Suite& s : suites()) {
      Loaded l;
      l.suite = s;
      std::string error;
      if (!rfn::api::load_design({"builtin:" + s.design, "", "", ""}, &l.design, &error))
        throw std::runtime_error("builtin:" + s.design + ": " + error);
      l.req.design.path = "builtin:" + s.design;
      for (const auto& [signal, expected] : s.props)
        l.req.props.push_back({signal, "", {}, ""});
      l.req.certify = true;
      loaded_.push_back(std::move(l));
    }
    if (a_.inject_wrong) loaded_[1].suite.props[0].second = Verdict::Fails;
    shuffle(loaded_, a_.seed);
  }

  size_t pass(Tally& t) override {
    size_t regs = 0;
    for (Loaded& l : loaded_) {
      std::string error;
      if (!rfn::api::run_verify(l.design, l.req, nullptr, false, nullptr, &l.ref, &error))
        throw std::runtime_error(l.suite.design + ": " + error);
      for (size_t i = 0; i < l.ref.results.size(); ++i) {
        const rfn::PropertyResult& r = l.ref.results[i];
        std::string cert_error = "no certificate";
        for (const rfn::CertificateRecord& rec : l.ref.cert_records)
          if (rec.property == r.name)
            cert_error = rec.ok ? "" : "certificate refused (" + rec.obligation + ")";
        check_verdict(t, l.suite.design + "/" + r.name, r.verdict,
                      l.suite.props[i].second, cert_error);
        regs += r.stats.final_abstract_regs;
      }
    }
    return regs;
  }

  Metrics traced(Tally& t, SpanLog& log) override {
    const rfn::Stopwatch ref_watch;
    pass(t);
    const double ref_s = ref_watch.seconds();

    Layers l;
    const rfn::Stopwatch traced_watch;
    for (const Loaded& ld : loaded_) {
      // run_verify's session, as it builds it.
      std::vector<rfn::PropertyRequest> props;
      std::string error;
      if (!rfn::api::resolve_properties(ld.design.netlist, ld.design.aiger_properties,
                                        ld.req.props, &props, &error))
        throw std::runtime_error(ld.suite.design + ": " + error);
      rfn::SessionOptions so;
      so.defaults = ld.req.options;
      so.cluster_overlap = ld.req.cluster_overlap;
      so.max_cluster_size = ld.req.max_cluster_size;
      so.workers = ld.req.session_workers;
      so.batch_budget_ms = ld.req.batch_budget_ms;
      so.reuse = ld.req.reuse;
      traced_session(ld.design.netlist, so, props, ld.ref.results, log, l, t);
    }
    const double traced_s = traced_watch.seconds();
    return layer_metrics(l, log, l.program.inclusive_s("rfn.iteration"), ref_s,
                         traced_s, t);
  }

  double pass_s() const override { return 0.5; }

 private:
  struct Loaded {
    Suite suite;
    rfn::api::LoadedDesign design;
    rfn::api::VerifyRequest req;
    rfn::api::RunOutput ref;  // the last pass's output
  };

  Args a_;
  std::vector<Loaded> loaded_;
};

}  // namespace

std::unique_ptr<Workload> make_builtin_batch(const Args& a) {
  return std::make_unique<BuiltinBatch>(a);
}

}  // namespace e2e
