#pragma once
// Pinned ATPG search trajectories: the figures a justification run must
// reproduce exactly, so that a change to the engines' data structures can be
// shown to alter cost only, never the search.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "atpg/comb_atpg.hpp"

namespace rfn {

struct SearchPin {
  AtpgStatus status;
  uint64_t decisions;
  uint64_t backtracks;
  uint64_t literals;  // FNV-1a over the result's literals, in order

  bool operator==(const SearchPin&) const = default;
};

/// Folds a cube's literals, in order, into an FNV-1a hash.
inline uint64_t fnv_cube(const Cube& c, uint64_t h = 14695981039346656037ULL) {
  for (const Literal& lit : c) {
    h = (h ^ lit.signal) * 1099511628211ULL;
    h = (h ^ static_cast<uint64_t>(lit.value)) * 1099511628211ULL;
  }
  return h;
}

/// Compares case by case; on any difference prints `got` as table rows, so
/// a deliberate trajectory change can be re-recorded.
inline void expect_pins(const std::vector<SearchPin>& got,
                        const std::vector<SearchPin>& expected) {
  EXPECT_EQ(got.size(), expected.size());
  bool same = got.size() == expected.size();
  for (size_t i = 0; i < got.size() && i < expected.size(); ++i) {
    EXPECT_TRUE(got[i] == expected[i]) << "case " << i;
    same &= got[i] == expected[i];
  }
  if (same) return;
  for (const SearchPin& p : got)
    std::printf("      {AtpgStatus::%s, %llu, %llu, 0x%016llxULL},\n",
                p.status == AtpgStatus::Sat     ? "Sat"
                : p.status == AtpgStatus::Unsat ? "Unsat"
                                                : "Abort",
                static_cast<unsigned long long>(p.decisions),
                static_cast<unsigned long long>(p.backtracks),
                static_cast<unsigned long long>(p.literals));
}

}  // namespace rfn
