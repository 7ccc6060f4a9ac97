// rfn_check — independent certificate verifier.
//
//   rfn_check <cert.json> <design.v|design.blif|design.aag|design.aig|
//              builtin:NAME> [--top MODULE]
//
// Re-elaborates the design, parses an rfn-cert-v1 witness (emitted by
// `rfn verify --certify`, see cert/format.hpp) and discharges its
// obligations (cert/check.hpp):
//
//   holds-invariant:  initiation, consecution, safety (CDCL SAT solver)
//   fails-trace:      trace replay through the Sim3 three-valued simulator
//
// Exit status: 0 the witness is valid; 1 an obligation was refuted (the
// failing obligation and a satisfying assignment are printed); 2 usage, I/O,
// format, or design-hash errors.
//
// This binary is the trust boundary of the verification service: it links
// only the netlist layer, Sim3, the SAT solver, and the frontends needed to
// re-elaborate designs — never the BDD package, the model checker, or the
// CEGAR loop whose answers it audits (enforced by its CMake link list).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/load.hpp"
#include "cert/check.hpp"
#include "cert/format.hpp"

using namespace rfn;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rfn_check <cert.json> <design.v|design.blif|builtin:NAME> "
               "[--top MODULE]\n");
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cert_path, design_path, top;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      if (i + 1 >= argc) return usage();
      top = argv[++i];
    } else if (cert_path.empty()) {
      cert_path = arg;
    } else if (design_path.empty()) {
      design_path = arg;
    } else {
      return usage();
    }
  }
  if (cert_path.empty() || design_path.empty()) return usage();

  std::string text;
  if (!read_file(cert_path, &text)) {
    std::fprintf(stderr, "rfn_check: cannot open %s\n", cert_path.c_str());
    return 2;
  }
  cert::Certificate certificate;
  std::string error;
  if (!cert::from_json(text, &certificate, &error)) {
    std::fprintf(stderr, "rfn_check: FAILED — obligation %s: %s\n",
                 cert::kObligationFormat, error.c_str());
    return 2;
  }

  // api::load_design: the SAME resolution the verifier used, so the
  // witness's design hash is taken over an identically normalized netlist.
  // (rfn_load is a leaf library — linking it does not widen this binary's
  // trust boundary.)
  api::DesignRef ref;
  ref.path = design_path;
  ref.top = top;
  api::LoadedDesign loaded;
  if (!api::load_design(ref, &loaded, &error)) {
    std::fprintf(stderr, "rfn_check: %s\n", error.c_str());
    return 2;
  }
  const Netlist& design = loaded.netlist;

  std::printf("rfn_check: %s witness for property '%s' on %s\n",
              cert::cert_kind_name(certificate.kind),
              certificate.property_name.c_str(), design_path.c_str());
  const cert::CheckResult res = cert::check_certificate(design, certificate);
  if (!res.ok) {
    std::fprintf(stderr, "rfn_check: FAILED — obligation %s: %s\n",
                 res.obligation.c_str(), res.detail.c_str());
    return res.obligation == cert::kObligationFormat ||
                   res.obligation == cert::kObligationDesignHash
               ? 2
               : 1;
  }
  std::printf("rfn_check: OK — %s\n", res.detail.c_str());
  return 0;
}
