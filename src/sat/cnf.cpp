#include "sat/cnf.hpp"

#include <algorithm>

#include "atpg/unroll.hpp"
#include "netlist/analysis.hpp"
#include "util/log.hpp"

namespace rfn::sat {

BmcEncoder::BmcEncoder(const Netlist& m, Solver& s) : m_(&m), s_(&s) {}

Lit BmcEncoder::fresh() { return Lit::make(s_->new_var()); }

Lit BmcEncoder::const_lit(bool value) {
  if (true_lit_ == kUndefLit) {
    true_lit_ = fresh();
    s_->add_clause({true_lit_});
  }
  return value ? true_lit_ : ~true_lit_;
}

void BmcEncoder::add_and(Lit out, const std::vector<Lit>& ins) {
  std::vector<Lit> big;
  big.reserve(ins.size() + 1);
  for (const Lit in : ins) {
    add2(~out, in);  // out -> in
    big.push_back(~in);
  }
  big.push_back(out);  // all ins -> out
  s_->add_clause(std::move(big));
}

void BmcEncoder::add_xor(Lit out, Lit a, Lit b) {
  add3(~out, a, b);
  add3(~out, ~a, ~b);
  add3(out, ~a, b);
  add3(out, a, ~b);
}

void BmcEncoder::add_root(GateId root) {
  RFN_CHECK(root < m_->size(), "BMC root out of range");
  if (in_cone(root)) return;
  roots_.push_back(root);
  cone_ = stable_frame_cone(*m_, roots_);
  order_.clear();
  for (GateId g : topo_order(*m_))
    if (cone_[g]) order_.push_back(g);
  cone_regs_.clear();
  for (GateId r : m_->regs())
    if (cone_[r]) cone_regs_.push_back(r);
  std::sort(cone_regs_.begin(), cone_regs_.end());
  enable_.resize(m_->size(), kUndefLit);
  // Enable literals exist as soon as a register enters the cone (not at first
  // frame materialization): callers assemble assumption sets before deciding
  // how deep to unroll.
  for (const GateId r : cone_regs_)
    if (enable_[r] == kUndefLit) enable_[r] = fresh();
  // Back-fill the widened cone into every frame already encoded. New
  // signals' fanins are either newly materialized too (visited earlier in
  // topo order / the previous frame, by the stable-cone fixpoint) or were
  // present before — existing clauses are never touched.
  for (size_t f = 1; f <= frames_; ++f) {
    vars_[f - 1].resize(m_->size(), kUndefLit);
    encode_frame_signals(f);
  }
}

void BmcEncoder::extend_to(size_t frames) {
  while (frames_ < frames) {
    ++frames_;
    vars_.emplace_back(m_->size(), kUndefLit);
    encode_frame_signals(frames_);
  }
}

void BmcEncoder::encode_frame_signals(size_t frame) {
  auto& map_f = vars_[frame - 1];
  for (const GateId g : order_) {
    if (map_f[g] != kUndefLit) continue;
    switch (m_->type(g)) {
      case GateType::Input:
        map_f[g] = fresh();
        break;
      case GateType::Const0:
        map_f[g] = const_lit(false);
        break;
      case GateType::Const1:
        map_f[g] = const_lit(true);
        break;
      case GateType::Reg: {
        const Lit v = fresh();
        map_f[g] = v;
        const Lit en = enable_[g];
        RFN_CHECK(en != kUndefLit, "cone register lacks an enable literal");
        if (frame == 1) {
          switch (m_->reg_init(g)) {
            case Tri::F: add2(~en, ~v); break;
            case Tri::T: add2(~en, v); break;
            case Tri::X: break;  // unconstrained either way
          }
        } else {
          const Lit d = vars_[frame - 2][m_->reg_data(g)];
          RFN_CHECK(d != kUndefLit, "register data missing at frame %zu", frame - 1);
          add3(~en, ~v, d);
          add3(~en, v, ~d);
        }
        break;
      }
      case GateType::Buf: {
        const Lit a = map_f[m_->fanins(g)[0]];
        map_f[g] = a;  // alias: no fresh variable needed
        break;
      }
      case GateType::Not: {
        const Lit a = map_f[m_->fanins(g)[0]];
        map_f[g] = ~a;
        break;
      }
      case GateType::Mux: {
        const Lit v = fresh();
        map_f[g] = v;
        const auto& fi = m_->fanins(g);
        const Lit sel = map_f[fi[0]], d0 = map_f[fi[1]], d1 = map_f[fi[2]];
        add3(~sel, ~d1, v);
        add3(~sel, d1, ~v);
        add3(sel, ~d0, v);
        add3(sel, d0, ~v);
        // Redundant but propagation-strengthening: d0 = d1 implies v.
        add3(~d0, ~d1, v);
        add3(d0, d1, ~v);
        break;
      }
      default: {  // And/Or/Nand/Nor/Xor/Xnor
        const Lit v = fresh();
        map_f[g] = v;
        std::vector<Lit> ins;
        ins.reserve(m_->fanins(g).size());
        for (const GateId fi : m_->fanins(g)) {
          RFN_CHECK(map_f[fi] != kUndefLit, "fanin missing at frame %zu", frame);
          ins.push_back(map_f[fi]);
        }
        switch (m_->type(g)) {
          case GateType::And: add_and(v, ins); break;
          case GateType::Nand: add_and(~v, ins); break;
          case GateType::Or:
            for (Lit& in : ins) in = ~in;
            add_and(~v, ins);
            break;
          case GateType::Nor:
            for (Lit& in : ins) in = ~in;
            add_and(v, ins);
            break;
          case GateType::Xor: add_xor(v, ins[0], ins[1]); break;
          case GateType::Xnor: add_xor(~v, ins[0], ins[1]); break;
          default: RFN_CHECK(false, "unexpected gate type in CNF encoding");
        }
        break;
      }
    }
  }
}

Lit BmcEncoder::enable(GateId r) const {
  return r < enable_.size() ? enable_[r] : kUndefLit;
}

Lit BmcEncoder::trigger(GateId root, size_t frame) {
  const auto key = std::make_pair(root, frame);
  const auto it = triggers_.find(key);
  if (it != triggers_.end()) return it->second;
  RFN_CHECK(frame >= 1 && frame <= frames_, "frame %zu out of range", frame);
  const Lit at = vars_[frame - 1][root];
  RFN_CHECK(at != kUndefLit, "signal %u not materialized at frame %zu", root, frame);
  const Lit t = fresh();
  add2(~t, at);
  triggers_.emplace(key, t);
  return t;
}

Trace BmcEncoder::decode_trace(size_t depth,
                               const std::vector<GateId>& included) const {
  RFN_CHECK(depth >= 1 && depth <= frames_, "decode depth out of range");
  Trace t;
  t.steps.resize(depth);
  const auto model_bit = [this](Lit l) {
    return s_->lit_value(l) == LBool::True;
  };
  // Cone registers and primary inputs are distinct signals: append directly.
  for (size_t f = 1; f <= depth; ++f) {
    TraceStep& step = t.steps[f - 1];
    for (const GateId r : cone_regs_) {
      const Lit l = vars_[f - 1][r];
      if (l == kUndefLit) continue;
      const bool kept = std::binary_search(included.begin(), included.end(), r);
      (kept ? step.state : step.inputs).push_back({r, model_bit(l)});
    }
    for (const GateId g : m_->inputs()) {
      if (g >= vars_[f - 1].size()) continue;
      const Lit l = vars_[f - 1][g];
      if (l == kUndefLit) continue;
      step.inputs.push_back({g, model_bit(l)});
    }
  }
  return t;
}

}  // namespace rfn::sat
