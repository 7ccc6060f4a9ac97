#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bdd/bdd.hpp"

// Quantification, substitution, and query operations of the BDD manager.
// Split from bdd.cpp to keep the node-table core readable.

namespace rfn {

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

namespace {
// Quantifier sets are passed to the recursions as positive cubes so the
// cache can key on a node id.
}  // namespace

uint32_t BddMgr::exists_rec(uint32_t f, uint32_t cube) {
  if (f < 2) return f;
  // Drop quantified variables above f's top variable: they are not in f's
  // support, so quantifying them is the identity.
  while (cube != 1 && level(cube) < level(f)) cube = nodes_[cube].hi;
  if (cube == 1) return f;
  const uint32_t cached = cache_lookup(Op::Exists, f, cube, kNil);
  if (cached != kNil) return cached;
  const Node& n = nodes_[f];
  uint32_t r;
  if (level(f) == level(cube)) {
    const uint32_t r0 = exists_rec(n.lo, nodes_[cube].hi);
    // Short-circuit: if the 0-branch is already true, so is the disjunction.
    r = r0 == 1 ? 1u : ite_rec(r0, 1, exists_rec(n.hi, nodes_[cube].hi));
  } else {
    r = find_or_add(n.var, exists_rec(n.lo, cube), exists_rec(n.hi, cube));
  }
  cache_insert(Op::Exists, f, cube, kNil, r);
  return r;
}

uint32_t BddMgr::and_exists_rec(uint32_t f, uint32_t g, uint32_t cube) {
  if (f == 0 || g == 0) return 0;
  if (f == 1 && g == 1) return 1;
  if (f > g) std::swap(f, g);
  if (f == 1) return exists_rec(g, cube);
  if (f == g) return exists_rec(f, cube);
  const uint32_t top = std::min(level(f), level(g));
  while (cube != 1 && level(cube) < top) cube = nodes_[cube].hi;
  if (cube == 1) return and_rec(f, g);
  const uint32_t cached = cache_lookup(Op::AndExists, f, g, cube);
  if (cached != kNil) return cached;
  uint32_t f0, f1, g0, g1;
  cofactors(f, top, f0, f1);
  cofactors(g, top, g0, g1);
  uint32_t r;
  if (level(cube) == top) {
    const uint32_t r0 = and_exists_rec(f0, g0, nodes_[cube].hi);
    r = r0 == 1 ? 1u : ite_rec(r0, 1, and_exists_rec(f1, g1, nodes_[cube].hi));
  } else {
    r = find_or_add(invperm_[top], and_exists_rec(f0, g0, cube),
                    and_exists_rec(f1, g1, cube));
  }
  cache_insert(Op::AndExists, f, g, cube, r);
  return r;
}

Bdd BddMgr::exists(const Bdd& f, const std::vector<BddVar>& vars) {
  if (f.is_null()) return Bdd();
  RFN_CHECK(f.mgr() == this, "exists: bad operand");
  std::vector<BddLit> lits;
  lits.reserve(vars.size());
  for (BddVar v : vars) lits.push_back({v, true});
  const Bdd c = cube(lits);
  if (c.is_null()) return Bdd();
  return run_guarded([&] { return exists_rec(f.id(), c.id()); });
}

Bdd BddMgr::forall(const Bdd& f, const std::vector<BddVar>& vars) {
  // forall v. f == !(exists v. !f)
  return apply_not(exists(apply_not(f), vars));
}

Bdd BddMgr::and_exists(const Bdd& f, const Bdd& g, const std::vector<BddVar>& vars) {
  if (f.is_null() || g.is_null()) return Bdd();
  RFN_CHECK(f.mgr() == this && g.mgr() == this, "and_exists: bad operand");
  std::vector<BddLit> lits;
  lits.reserve(vars.size());
  for (BddVar v : vars) lits.push_back({v, true});
  const Bdd c = cube(lits);
  if (c.is_null()) return Bdd();
  return run_guarded([&] { return and_exists_rec(f.id(), g.id(), c.id()); });
}

// ---------------------------------------------------------------------------
// Substitution
// ---------------------------------------------------------------------------

Bdd BddMgr::rename(const Bdd& f, const std::vector<BddVar>& map) {
  if (f.is_null() || cancel_fired_) return Bdd();
  RFN_CHECK(f.mgr() == this, "rename: bad operand");
  RFN_CHECK(map.size() >= num_vars(), "rename map too short");
  housekeeping();
  // Bottom-up rebuild through ITE so arbitrary (order-violating) maps are
  // handled. Memo is per-call: the map is not part of the global cache key.
  std::unordered_map<uint32_t, uint32_t> memo;
  // Keep every intermediate alive via handles: ite_rec results are
  // unreferenced, and although no GC runs during this loop, the memo may be
  // long-lived across many ite_rec calls which may allocate heavily.
  std::vector<Bdd> holder;
  auto rec = [&](auto&& self, uint32_t node) -> uint32_t {
    if (node < 2) return node;
    const auto it = memo.find(node);
    if (it != memo.end()) return it->second;
    const Node n = nodes_[node];  // copy: nodes_ may reallocate
    const uint32_t lo = self(self, n.lo);
    const uint32_t hi = self(self, n.hi);
    const uint32_t v = find_or_add(map[n.var], 0, 1);
    const uint32_t r = ite_rec(v, hi, lo);
    memo.emplace(node, r);
    holder.push_back(make(r));
    return r;
  };
  try {
    return make(rec(rec, f.id()));
  } catch (const BudgetExceeded&) {
    holder.clear();
    memo.clear();
    garbage_collect();
    return Bdd();
  }
}

// ---------------------------------------------------------------------------
// Cube construction and queries
// ---------------------------------------------------------------------------

Bdd BddMgr::cube(const std::vector<BddLit>& lits) {
  return run_guarded([&] {
    // Sorting MUST happen inside the guarded region: run_guarded's
    // housekeeping may reorder variables, and the bottom-up chain below is
    // only canonical when built in the *current* level order.
    std::vector<BddLit> sorted = lits;
    std::sort(sorted.begin(), sorted.end(), [&](const BddLit& a, const BddLit& b) {
      return perm_[a.var] < perm_[b.var];
    });
    for (size_t i = 1; i < sorted.size(); ++i)
      RFN_CHECK(sorted[i - 1].var != sorted[i].var, "duplicate var %u in cube",
                sorted[i].var);
    uint32_t acc = 1;
    for (auto it = sorted.rbegin(); it != sorted.rend(); ++it)
      acc = it->positive ? find_or_add(it->var, 0, acc) : find_or_add(it->var, acc, 0);
    return acc;
  });
}

std::vector<BddVar> BddMgr::support(const Bdd& f) {
  RFN_CHECK(!f.is_null() && f.mgr() == this, "support: bad operand");
  std::vector<BddVar> vars;
  std::vector<uint32_t> stack{f.id()};
  std::unordered_map<uint32_t, bool> seen;
  std::vector<bool> in_support(num_vars(), false);
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (id < 2 || seen[id]) continue;
    seen[id] = true;
    in_support[nodes_[id].var] = true;
    stack.push_back(nodes_[id].lo);
    stack.push_back(nodes_[id].hi);
  }
  for (BddVar v = 0; v < num_vars(); ++v)
    if (in_support[v]) vars.push_back(v);
  return vars;
}

double BddMgr::sat_count(const Bdd& f, uint32_t nvars) {
  RFN_CHECK(!f.is_null() && f.mgr() == this, "sat_count: bad operand");
  // count(node) = fraction-weighted model count: each skipped level between
  // a node and its child doubles the count. Terminals sit at virtual level
  // `nvars`.
  std::unordered_map<uint32_t, double> memo;
  auto lvl_of = [&](uint32_t node) -> double {
    return node < 2 ? static_cast<double>(nvars) : static_cast<double>(level(node));
  };
  auto rec = [&](auto&& self, uint32_t node) -> double {
    if (node == 0) return 0.0;
    if (node == 1) return 1.0;
    const auto it = memo.find(node);
    if (it != memo.end()) return it->second;
    const Node& n = nodes_[node];
    const double r = self(self, n.lo) * std::exp2(lvl_of(n.lo) - lvl_of(node) - 1) +
                     self(self, n.hi) * std::exp2(lvl_of(n.hi) - lvl_of(node) - 1);
    memo.emplace(node, r);
    return r;
  };
  return rec(rec, f.id()) * std::exp2(lvl_of(f.id()));
}

std::vector<BddLit> BddMgr::any_cube(const Bdd& f) {
  RFN_CHECK(!f.is_null() && f.mgr() == this && !f.is_false(), "any_cube: bad operand");
  std::vector<BddLit> lits;
  uint32_t node = f.id();
  while (node >= 2) {
    const Node& n = nodes_[node];
    if (n.lo != 0) {
      lits.push_back({n.var, false});
      node = n.lo;
    } else {
      lits.push_back({n.var, true});
      node = n.hi;
    }
  }
  return lits;
}

std::vector<BddLit> BddMgr::shortest_cube(const Bdd& f) {
  RFN_CHECK(!f.is_null() && f.mgr() == this && !f.is_false(),
            "shortest_cube: bad operand");
  // DP: fewest literals on any path from `node` to the 1-terminal. Variables
  // skipped along an edge cost nothing — a BDD path is an implicant, so the
  // cheapest path is exactly the paper's "fattest cube".
  std::unordered_map<uint32_t, uint32_t> cost;
  constexpr uint32_t kInf = 0x3FFFFFFF;
  auto rec = [&](auto&& self, uint32_t node) -> uint32_t {
    if (node == 0) return kInf;
    if (node == 1) return 0;
    const auto it = cost.find(node);
    if (it != cost.end()) return it->second;
    const Node& n = nodes_[node];
    const uint32_t c = std::min(self(self, n.lo), self(self, n.hi)) + 1;
    cost.emplace(node, c);
    return c;
  };
  rec(rec, f.id());
  std::vector<BddLit> lits;
  uint32_t node = f.id();
  while (node >= 2) {
    const Node& n = nodes_[node];
    const uint32_t lo_cost = n.lo == 1 ? 0 : (n.lo == 0 ? kInf : cost.at(n.lo));
    const uint32_t hi_cost = n.hi == 1 ? 0 : (n.hi == 0 ? kInf : cost.at(n.hi));
    if (lo_cost <= hi_cost) {
      lits.push_back({n.var, false});
      node = n.lo;
    } else {
      lits.push_back({n.var, true});
      node = n.hi;
    }
  }
  // The shortest path is not necessarily a prime implicant: a variable the
  // BDD tests near the root may be droppable (e.g. (x0 x1 x2) | x5 — every
  // path assigns x0, yet {x5} alone implies f). Expand to a prime implicant
  // by greedily dropping literals while the cube still implies f.
  for (size_t i = 0; i < lits.size();) {
    std::vector<BddLit> without;
    without.reserve(lits.size() - 1);
    for (size_t j = 0; j < lits.size(); ++j)
      if (j != i) without.push_back(lits[j]);
    const Bdd without_bdd = cube(without);
    if (without_bdd.is_null()) break;  // budget exhausted: keep current cube
    // The cube implies f iff cube & !f is empty.
    const Bdd excess = without_bdd & !f;
    if (excess.is_null()) break;
    if (excess.is_false()) {
      lits = std::move(without);  // dropped; retry same index
    } else {
      ++i;
    }
  }
  return lits;
}

std::vector<std::vector<BddLit>> BddMgr::first_cubes(const Bdd& f, size_t limit) {
  RFN_CHECK(!f.is_null() && f.mgr() == this, "first_cubes: bad operand");
  std::vector<std::vector<BddLit>> cubes;
  if (f.is_false() || limit == 0) return cubes;
  // DFS over BDD paths ending at the 1-terminal.
  std::vector<BddLit> path;
  auto rec = [&](auto&& self, uint32_t node) -> void {
    if (cubes.size() >= limit) return;
    if (node == 0) return;
    if (node == 1) {
      cubes.push_back(path);
      return;
    }
    const Node& n = nodes_[node];
    path.push_back({n.var, false});
    self(self, n.lo);
    path.back().positive = true;
    self(self, n.hi);
    path.pop_back();
  };
  rec(rec, f.id());
  return cubes;
}

BddVar BddMgr::top_var(const Bdd& f) const {
  RFN_CHECK(!f.is_null() && f.mgr() == this, "top_var: bad operand");
  if (f.id() < 2) return kNoTopVar;
  return nodes_[f.id()].var;
}

namespace {

// Minato-Morreale ISOP over the interval [L, U]: returns the cover as a BDD
// (exactly L when L == U on entry) and appends its cubes to `out`, or a null
// handle when the cube limit or the manager's node budget trips. Uses only
// public BddMgr operations, so each step is a GC-safe point.
Bdd isop_rec(BddMgr& mgr, const Bdd& L, const Bdd& U, size_t max_cubes,
             std::vector<std::vector<BddLit>>& out) {
  if (L.is_false()) return mgr.bdd_false();
  if (U.is_true()) {
    out.push_back({});
    return out.size() > max_cubes ? Bdd() : mgr.bdd_true();
  }
  // Branch on the top variable of the interval.
  const BddVar vl = mgr.top_var(L);
  const BddVar vu = mgr.top_var(U);
  BddVar v;
  if (vl == BddMgr::kNoTopVar) {
    v = vu;
  } else if (vu == BddMgr::kNoTopVar) {
    v = vl;
  } else {
    v = mgr.level_of(vl) <= mgr.level_of(vu) ? vl : vu;
  }
  const Bdd l0 = mgr.cofactor(L, v, false), l1 = mgr.cofactor(L, v, true);
  const Bdd u0 = mgr.cofactor(U, v, false), u1 = mgr.cofactor(U, v, true);
  if (l0.is_null() || l1.is_null() || u0.is_null() || u1.is_null()) return Bdd();

  // Cubes forced to carry !v: the part of l0 that cannot extend to v = 1.
  const size_t mark0 = out.size();
  const Bdd s0 = isop_rec(mgr, l0.diff(u1), u0, max_cubes, out);
  if (s0.is_null()) return Bdd();
  for (size_t i = mark0; i < out.size(); ++i) out[i].push_back({v, false});
  // Cubes forced to carry v.
  const size_t mark1 = out.size();
  const Bdd s1 = isop_rec(mgr, l1.diff(u0), u1, max_cubes, out);
  if (s1.is_null()) return Bdd();
  for (size_t i = mark1; i < out.size(); ++i) out[i].push_back({v, true});
  // What remains of L must be covered by v-free cubes, valid on both sides.
  const Bdd rest = l0.diff(s0) | l1.diff(s1);
  const Bdd both = u0 & u1;
  if (rest.is_null() || both.is_null()) return Bdd();
  const Bdd sd = isop_rec(mgr, rest, both, max_cubes, out);
  if (sd.is_null()) return Bdd();
  const Bdd cover = (mgr.nvar(v) & s0) | (mgr.var(v) & s1) | sd;
  return cover.is_null() ? Bdd() : cover;
}

}  // namespace

bool BddMgr::isop_cover(const Bdd& f, size_t max_cubes,
                        std::vector<std::vector<BddLit>>* out) {
  RFN_CHECK(!f.is_null() && f.mgr() == this && out != nullptr,
            "isop_cover: bad operand");
  const size_t mark = out->size();
  const Bdd cover = isop_rec(*this, f, f, max_cubes, *out);
  // With L == U the cover is exact by construction; a mismatch means a
  // budget-truncated intermediate slipped through, so reject it like an
  // overflow rather than hand back a wrong invariant.
  if (cover.is_null() || !(cover == f)) {
    out->resize(mark);
    return false;
  }
  for (size_t i = mark; i < out->size(); ++i) {
    std::sort(out->at(i).begin(), out->at(i).end(),
              [](const BddLit& a, const BddLit& b) { return a.var < b.var; });
  }
  return true;
}

bool BddMgr::eval(const Bdd& f, const std::vector<bool>& assignment) {
  RFN_CHECK(!f.is_null() && f.mgr() == this, "eval: bad operand");
  uint32_t node = f.id();
  while (node >= 2) {
    const Node& n = nodes_[node];
    RFN_CHECK(n.var < assignment.size(), "eval: assignment too short");
    node = assignment[n.var] ? n.hi : n.lo;
  }
  return node == 1;
}

size_t BddMgr::node_count(const Bdd& f) {
  RFN_CHECK(!f.is_null() && f.mgr() == this, "node_count: bad operand");
  std::unordered_map<uint32_t, bool> seen;
  std::vector<uint32_t> stack{f.id()};
  size_t count = 0;
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (id < 2 || seen[id]) continue;
    seen[id] = true;
    ++count;
    stack.push_back(nodes_[id].lo);
    stack.push_back(nodes_[id].hi);
  }
  return count;
}

}  // namespace rfn
