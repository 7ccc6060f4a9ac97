#include "atpg/frame_view.hpp"

#include <bit>

#include "netlist/analysis.hpp"

namespace rfn {

FrameView::FrameView(const Netlist& m, const std::vector<std::vector<GateId>>& needed,
                     std::span<const GateId> kept)
    : m_(&m), frames_(needed.size()), kept_(m.size(), false) {
  RFN_CHECK(frames_ >= 1, "frame view of zero frames");
  shift_ = static_cast<unsigned>(std::bit_width(m.size() > 1 ? m.size() - 1 : 1));
  mask_ = static_cast<GateId>((size_t{1} << shift_) - 1);
  RFN_CHECK((frames_ << shift_) < kNullGate, "%zu frames of %zu cells overflow node ids",
            frames_, m.size());

  for (GateId r : kept) {
    RFN_CHECK(m.is_reg(r), "kept gate %u is not a register", r);
    kept_[r] = true;
  }

  // Backward pass: a kept register in frame f's cone needs its data net in
  // frame f-1's cone.
  cone_.resize(frames_);
  for (size_t f0 = frames_; f0-- > 0;) {
    std::vector<GateId> roots = needed[f0];
    if (f0 + 1 < frames_) {
      for (GateId r : m.regs())
        if (kept_[r] && cone_[f0 + 1][r]) roots.push_back(m.reg_data(r));
    }
    cone_[f0] = comb_fanin_cone(m, roots);
  }
  for (size_t f0 = 0; f0 < frames_; ++f0)
    for (GateId g = 0; g < m.size(); ++g)
      if (cone_[f0][g] && !(f0 > 0 && kept_[g])) ++cone_nodes_;

  // One CSR table of readers over M, each list in topo rank order.
  const std::vector<GateId> order = topo_order(m);
  rank_.resize(m.size());
  for (uint32_t i = 0; i < order.size(); ++i) rank_[order[i]] = i;
  offsets_.assign(m.size() + 1, 0);
  for (GateId g = 0; g < m.size(); ++g)
    for (GateId f : m.fanins(g)) ++offsets_[f + 1];
  for (size_t g = 1; g <= m.size(); ++g) offsets_[g] += offsets_[g - 1];
  readers_.resize(offsets_[m.size()]);
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (GateId g : order)
    for (GateId f : m.fanins(g)) readers_[fill[f]++] = g;

  for (GateId g = 0; g < m.size(); ++g)
    if (m.is_const(g) || (kept_[g] && m.reg_init(g) != Tri::X))
      const_sources_.push_back(g);
}

GateId FrameView::node(size_t frame, GateId g) const {
  RFN_CHECK(frame >= 1 && frame <= frames_, "frame %zu out of range", frame);
  if (!cone_[frame - 1][g]) return kNullGate;
  return resolve(frame - 1, g);
}

size_t FrameView::heap_bytes() const {
  size_t bytes = cone_.capacity() * sizeof(std::vector<bool>) + (kept_.capacity() + 7) / 8;
  for (const std::vector<bool>& c : cone_) bytes += (c.capacity() + 7) / 8;
  bytes += rank_.capacity() * sizeof(uint32_t) + offsets_.capacity() * sizeof(uint32_t) +
           readers_.capacity() * sizeof(GateId) + const_sources_.capacity() * sizeof(GateId);
  bytes += (aliases_.capacity() + next_aliases_.capacity() + merged_.capacity()) *
           sizeof(GateId);
  return bytes;
}

}  // namespace rfn
