#include "serve/warm_cache.hpp"

#include <utility>

namespace rfn::serve {

int64_t WarmStateCache::entry_bytes(const Entry& e) const {
  return static_cast<int64_t>(e.design.netlist.heap_bytes()) + e.cache.approx_bytes();
}

WarmStateCache::Lease WarmStateCache::acquire(api::LoadedDesign fresh) {
  Entry* e = nullptr;
  bool warm = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(fresh.hash_hex);
    if (it != map_.end()) {
      ++hits_;
      warm = true;
      e = it->second.get();
    } else {
      ++misses_;
      auto entry = std::make_unique<Entry>();
      entry->design = std::move(fresh);
      e = entry.get();
      e->bytes = entry_bytes(*e);
      bytes_ += e->bytes;
      map_.emplace(e->design.hash_hex, std::move(entry));
    }
    e->last_used = ++tick_;
    ++e->uses;  // counted before waiting, so eviction never drops a waiter
  }
  e->run_mu.lock();
  Lease lease;
  lease.design = &e->design;
  lease.cache = &e->cache;
  lease.warm = warm;
  lease.order_warm = !e->cache.order.tokens.empty();
  lease.entry_ = e;
  return lease;
}

void WarmStateCache::release(Lease& lease) {
  Entry* e = lease.entry_;
  if (e == nullptr) return;
  lease = Lease{};
  // The recharge walks the entry's ReuseCache containers (SubcircuitMemo),
  // so it must happen while run_mu still serializes the entry: the moment
  // run_mu drops, a waiter in acquire() may start a run that mutates those
  // same containers. Taking mu_ while holding run_mu is
  // deadlock-free because acquire() never holds mu_ while waiting on
  // run_mu.
  const int64_t now = entry_bytes(*e);
  std::lock_guard<std::mutex> lk(mu_);
  bytes_ += now - e->bytes;
  e->bytes = now;
  e->last_used = ++tick_;
  --e->uses;
  // run_mu must drop before eviction: with uses now possibly 0 this entry
  // is a legal victim, and erasing it would destroy a held mutex. No new
  // waiter can appear meanwhile — finding the entry requires mu_.
  e->run_mu.unlock();
  evict_lru_locked();
}

void WarmStateCache::evict_lru_locked() {
  if (budget_ <= 0) return;
  while (bytes_ > budget_) {
    auto victim = map_.end();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second->uses > 0) continue;
      if (victim == map_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == map_.end()) return;  // everything live: over budget, stuck
    bytes_ -= victim->second->bytes;
    map_.erase(victim);
    ++evictions_;
  }
}

WarmStats WarmStateCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  WarmStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = map_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace rfn::serve
