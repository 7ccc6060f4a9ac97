#include "atpg/frame_view.hpp"

#include <bit>

namespace rfn {

FrameNodes::FrameNodes(const TopoIndex& m, size_t frames, std::span<const GateId> kept)
    : t_(&m), m_(&m.net), frames_(frames), kept_(m.net.size(), false) {
  RFN_CHECK(frames_ >= 1, "frame view of zero frames");
  shift_ = static_cast<unsigned>(std::bit_width(m_->size() > 1 ? m_->size() - 1 : 1));
  mask_ = static_cast<GateId>((size_t{1} << shift_) - 1);
  RFN_CHECK((frames_ << shift_) < kNullGate, "%zu frames of %zu cells overflow node ids",
            frames_, m_->size());
  for (GateId r : kept) {
    RFN_CHECK(m.net.is_reg(r), "kept gate %u is not a register", r);
    kept_[r] = true;
  }
}

FrameView::FrameView(FrameNodes nodes, const std::vector<std::vector<GateId>>& needed)
    : FrameNodes(std::move(nodes)) {
  const Netlist& m = *m_;
  RFN_CHECK(needed.size() == frames_, "needed sets do not match the frames");
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

  for (GateId g = 0; g < m.size(); ++g)
    if (m.is_const(g) || (kept_[g] && m.reg_init(g) != Tri::X))
      const_sources_.push_back(g);
}

GateId FrameView::node(size_t frame, GateId g) const {
  RFN_CHECK(frame >= 1 && frame <= frames_, "frame %zu out of range", frame);
  if (!cone_[frame - 1][g]) return kNullGate;
  return resolve(frame - 1, g);
}

size_t FrameView::cone_nodes() const {
  size_t nodes = 0;
  for (size_t f0 = 0; f0 < frames_; ++f0)
    for (GateId g = 0; g < m_->size(); ++g) nodes += cone_[f0][g] && !(f0 > 0 && kept_[g]);
  return nodes;
}

size_t FrameView::heap_bytes() const {
  size_t bytes = cone_.capacity() * sizeof(std::vector<bool>) + (kept_.capacity() + 7) / 8;
  for (const std::vector<bool>& c : cone_) bytes += (c.capacity() + 7) / 8;
  bytes += const_sources_.capacity() * sizeof(GateId);
  bytes += (aliases_.capacity() + next_aliases_.capacity() + merged_.capacity()) *
           sizeof(GateId);
  return bytes;
}

}  // namespace rfn
