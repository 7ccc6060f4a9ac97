#pragma once
// WarmStateCache: cross-request warm verification state, keyed by design
// hash.
//
// The server's whole reason to stay resident is that the second request on
// a design should not start cold: the ReuseCache a VerifySession warms up —
// the final BDD variable order, memoized subcircuit extractions,
// crucial-register hints — all key off one Netlist instance, so keeping
// that instance (and its cache) alive across requests is what turns a
// request stream into an incremental workload.
//
// Entries are keyed by design_hash_hex (netlist/analysis): two requests
// naming the same design — by path, builtin:, or inline text — land on the
// same entry because the hash is over the elaborated netlist, not the
// spelling. The cost is that every request elaborates its design before
// lookup; on a hit the fresh load is discarded and the CACHED instance runs
// the session, the one the entry's warm state was built on.
//
// Leases serialize runs per design (ReuseCache is single-threaded by
// design): a second request on a busy design blocks until the first
// releases. Distinct designs run concurrently.
//
// Byte budget: each entry is charged its ReuseCache::approx_bytes() plus
// the design's Netlist::heap_bytes().
// When the total exceeds the budget, least-recently-used idle entries are
// evicted; entries with live or waiting leases are never evicted.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "api/load.hpp"
#include "core/session.hpp"

namespace rfn::serve {

struct WarmStats {
  size_t hits = 0;       // acquire() found the design's entry
  size_t misses = 0;     // acquire() created it
  size_t evictions = 0;  // entries dropped by the byte budget
  size_t entries = 0;    // live entries
  int64_t bytes = 0;     // charged bytes across live entries
};

class WarmStateCache {
  struct Entry;

 public:
  /// `byte_budget` <= 0 disables eviction (unbounded cache).
  explicit WarmStateCache(int64_t byte_budget) : budget_(byte_budget) {}

  /// A held entry: the cached design instance plus its warm state. Valid
  /// from acquire() until release(); the warm_* fields are the pre-run
  /// snapshot a response reports.
  struct Lease {
    const api::LoadedDesign* design = nullptr;
    ReuseCache* cache = nullptr;
    /// The entry existed before this acquire (a cache hit).
    bool warm = false;
    /// Pre-run reusable state: a saved BDD variable order.
    bool order_warm = false;

   private:
    friend class WarmStateCache;
    Entry* entry_ = nullptr;
  };

  /// Exchanges a freshly loaded design for a lease on its warm entry: the
  /// cached instance on a hit (`fresh` is discarded), `fresh` adopted on a
  /// miss. Blocks while another lease on the same design is live.
  Lease acquire(api::LoadedDesign fresh);

  /// Ends the lease: recharges the entry's bytes, bumps its recency, and
  /// evicts LRU idle entries down to the byte budget. The lease is dead
  /// afterwards.
  void release(Lease& lease);

  WarmStats stats() const;

 private:
  struct Entry {
    api::LoadedDesign design;
    ReuseCache cache;
    /// Serializes leases on this design (ReuseCache is single-threaded).
    std::mutex run_mu;
    int64_t bytes = 0;
    uint64_t last_used = 0;
    /// Live + waiting leases; eviction skips any entry with uses > 0.
    int uses = 0;
  };

  int64_t entry_bytes(const Entry& e) const;
  void evict_lru_locked();

  const int64_t budget_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> map_;
  uint64_t tick_ = 0;
  size_t hits_ = 0, misses_ = 0, evictions_ = 0;
  int64_t bytes_ = 0;
};

}  // namespace rfn::serve
