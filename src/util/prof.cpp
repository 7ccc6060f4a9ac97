#include "util/prof.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#include <unistd.h>
#endif

namespace rfn::prof {

int64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
  return 0;
#endif
}

int64_t process_cpu_ns() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
  return 0;
#endif
}

int64_t read_rss_bytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
#else
  return 0;
#endif
}

RssLog& RssLog::global() {
  static RssLog* log = new RssLog();  // leaked like the metrics registry:
  return *log;                        // samplers may outlive static dtors
}

void RssLog::enable() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = true;
  watch_.reset();
  calls_ = 0;
  stride_ = 1;
  peak_ = 0;
  samples_.clear();
}

void RssLog::disable() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = false;
}

bool RssLog::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

int64_t RssLog::sample() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return 0;
  const int64_t bytes = read_rss_bytes();
  record_locked(bytes);
  return bytes;
}

void RssLog::record(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  record_locked(bytes);
}

void RssLog::record_locked(int64_t bytes) {
  if (bytes > peak_) peak_ = bytes;  // peak is exact even when thinned
  if (calls_++ % stride_ != 0) return;
  samples_.push_back({watch_.milliseconds(), bytes});
  if (samples_.size() >= kMaxSamples) {
    // Thin in place: keep every other sample and accept half as often from
    // now on, so the timeline stays bounded with uniform-ish spacing.
    size_t out = 0;
    for (size_t i = 0; i < samples_.size(); i += 2) samples_[out++] = samples_[i];
    samples_.resize(out);
    stride_ *= 2;
  }
}

int64_t RssLog::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

std::vector<RssSample> RssLog::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

json::Value build_prof_json(const MetricsSnapshot& now, double wall_s,
                            double cpu_s) {
  json::Value doc = json::Value::object();
  doc.set("format", "rfn-prof-v1");
  doc.set("wall_ms", wall_s * 1e3);
  doc.set("total_cpu_ms", cpu_s * 1e3);

  // Subsystem heap peaks are gauge maxima — not baseline-differenced (a
  // high-water mark is not additive across runs), read raw like every gauge.
  json::Value subsystems = json::Value::object();
  json::Value bdd = json::Value::object();
  bdd.set("live_bytes", now.value("bdd.heap_bytes"));
  bdd.set("peak_bytes", now.value("bdd.heap_bytes.max"));
  subsystems.set("bdd", std::move(bdd));
  doc.set("subsystems", std::move(subsystems));

  json::Value rss = json::Value::object();
  rss.set("peak_bytes", RssLog::global().peak_bytes());
  json::Value samples = json::Value::array();
  for (const RssSample& s : RssLog::global().samples()) {
    json::Value o = json::Value::object();
    o.set("t_ms", s.t_ms);
    o.set("bytes", s.bytes);
    samples.push(std::move(o));
  }
  rss.set("samples", std::move(samples));
  doc.set("rss", std::move(rss));
  return doc;
}

std::string folded_stacks(const json::Value& chrome_doc) {
  // The exporter guarantees per-tid balanced B/E pairs in timestamp order
  // (tests/trace_span_test.cpp pins that), so a plain stack walk suffices.
  struct Frame {
    std::string name;
    double ts_us = 0.0;
    double child_us = 0.0;
  };
  std::map<uint64_t, std::string> thread_names;
  std::map<uint64_t, std::vector<Frame>> stacks;
  std::map<std::string, double> self_us;

  const json::Value* events = chrome_doc.find("traceEvents");
  if (events == nullptr) return "";
  for (const json::Value& e : events->items()) {
    const std::string& ph = e.find("ph")->as_string();
    const uint64_t tid = e.find("tid")->as_uint();
    if (ph == "M") {
      if (e.find("name")->as_string() == "thread_name")
        if (const json::Value* n = e.find_path("args.name"))
          thread_names[tid] = n->as_string();
      continue;
    }
    if (ph == "B") {
      stacks[tid].push_back({e.find("name")->as_string(),
                             e.find("ts")->as_double(), 0.0});
    } else if (ph == "E") {
      std::vector<Frame>& stack = stacks[tid];
      if (stack.empty()) continue;  // defensive; the exporter never orphans
      const Frame top = stack.back();
      stack.pop_back();
      const double dur = e.find("ts")->as_double() - top.ts_us;
      std::string key = thread_names.count(tid)
                            ? thread_names[tid]
                            : "tid-" + std::to_string(tid);
      for (const Frame& f : stack) key += ";" + f.name;
      key += ";" + top.name;
      self_us[key] += std::max(0.0, dur - top.child_us);
      if (!stack.empty()) stack.back().child_us += dur;
    }
  }

  std::string out;
  for (const auto& [key, us] : self_us) {
    out += key;
    out += ' ';
    out += std::to_string(static_cast<long long>(std::llround(us)));
    out += '\n';
  }
  return out;
}

}  // namespace rfn::prof
