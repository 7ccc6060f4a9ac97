#include "core/portfolio.hpp"

#include <algorithm>
#include <memory>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/trace.hpp"

namespace rfn {

Portfolio::Portfolio(size_t workers) : exec_(workers) {}

RaceResult Portfolio::race(const std::vector<PortfolioJob>& jobs,
                           const CancelToken* parent) {
  const Stopwatch watch;
  RaceResult res;
  if (jobs.empty()) return res;
  Span race_span("portfolio.race");

  // Heap-allocated and shared with every wrapper so the condvar/mutex stay
  // alive until the last worker leaves its epilogue, even though race()
  // returns as soon as it observes remaining == 0.
  struct Shared {
    std::mutex mu;
    std::condition_variable done_cv;
    // One race token per job, chained to `parent`: raised by a conclusive
    // job for every job behind it, never for the jobs ahead of it.
    std::vector<std::unique_ptr<CancelToken>> cancel;
    std::vector<bool> done;
    size_t remaining = 0;
    size_t winner = static_cast<size_t>(-1);
    // Lowest lineup index that has reported a verdict so far.
    size_t first_conclusive = static_cast<size_t>(-1);
    size_t launched = 0;
    size_t cancelled = 0;
    size_t inconclusive = 0;
    // Per-job thread-CPU nanoseconds; each wrapper writes only its own slot
    // (same discipline as the jobs' result slots), read after the wait.
    std::vector<int64_t> cpu_ns;
  };
  auto sh = std::make_shared<Shared>();
  for (size_t i = 0; i < jobs.size(); ++i)
    sh->cancel.push_back(std::make_unique<CancelToken>(-1.0, parent));
  sh->done.assign(jobs.size(), false);
  sh->remaining = jobs.size();
  sh->cpu_ns.assign(jobs.size(), 0);

  SpanTracer& tracer = SpanTracer::global();
  for (size_t i = 0; i < jobs.size(); ++i) {
    // Causality across the executor boundary: the race thread emits the
    // flow origin, the worker binds its job span to the same id. The name
    // is interned because the worker's span outlives the race call frame.
    const char* span_name =
        tracer.enabled() ? tracer.intern(jobs[i].name) : "job";
    const uint64_t flow = tracer.flow_out(span_name);
    exec_.submit([sh, &jobs, i, span_name, flow] {
      SpanTracer::global().set_thread_name("portfolio-worker");
      Span job_span(span_name);
      SpanTracer::global().flow_in(span_name, flow);
      bool skip;
      {
        std::lock_guard<std::mutex> lk(sh->mu);
        skip = sh->cancel[i]->cancelled();
        if (skip)
          ++sh->cancelled;
        else
          ++sh->launched;
      }
      bool won = false;
      if (!skip) {
        // The per-job budget starts now, not at enqueue time.
        const int64_t cpu0 = prof::thread_cpu_ns();
        CancelToken token(jobs[i].time_limit_s, sh->cancel[i].get());
        won = jobs[i].run(token);
        sh->cpu_ns[i] = prof::thread_cpu_ns() - cpu0;
      }
      const char* outcome = "skipped";
      std::unique_lock<std::mutex> lk(sh->mu);
      if (won) {
        // A verdict makes every job behind this one irrelevant; the jobs
        // ahead keep running, and this one wins only if all of them finish
        // without a verdict. Every job ahead has left the FIFO queue by now
        // (running or finished), so the wait cannot starve it of a worker.
        sh->first_conclusive = std::min(sh->first_conclusive, i);
        for (size_t j = i + 1; j < sh->cancel.size(); ++j)
          sh->cancel[j]->cancel();
        sh->done_cv.wait(lk, [&] {
          return std::all_of(sh->done.begin(), sh->done.begin() + i,
                             [](bool d) { return d; });
        });
        won = sh->first_conclusive == i;
      }
      if (won) {
        sh->winner = i;
        outcome = "won";
      } else if (!skip && sh->cancel[i]->cancelled()) {
        // Cut short (by a verdict ahead of it or the parent token), or
        // conclusive but beaten by one: either way the result was discarded.
        ++sh->cancelled;
        outcome = "cancelled";
      } else if (!skip) {
        ++sh->inconclusive;
        outcome = "inconclusive";
      }
      job_span.annotate("outcome", outcome);
      job_span.end();
      sh->done[i] = true;
      --sh->remaining;
      sh->done_cv.notify_all();
    });
  }

  {
    std::unique_lock<std::mutex> lk(sh->mu);
    sh->done_cv.wait(lk, [&] { return sh->remaining == 0; });
    res.winner = sh->winner;
    res.launched = sh->launched;
    res.cancelled = sh->cancelled;
  }
  res.conclusive = res.winner != static_cast<size_t>(-1);
  if (res.conclusive) res.winner_name = jobs[res.winner].name;
  res.seconds = watch.seconds();
  if (tracer.enabled())
    race_span.annotate("winner", res.conclusive
                                     ? tracer.intern(res.winner_name)
                                     : "(none)");

  // One flush per race ("portfolio.*" and "engine.cpu.*"): the race's hot
  // path (job wrappers) touches only the Shared block, never the registry.
  MetricsRegistry& m = MetricsRegistry::global();
  m.counter("portfolio.races").add(1);
  m.counter("portfolio.jobs_launched").add(res.launched);
  m.counter("portfolio.jobs_cancelled").add(res.cancelled);
  m.counter("portfolio.jobs_inconclusive").add(sh->inconclusive);
  m.timer("portfolio.race").record(res.seconds);
  if (res.conclusive) m.counter("portfolio.wins." + res.winner_name).add(1);
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (sh->cpu_ns[i] == 0) continue;  // skipped, or no thread-CPU clock
    const double cpu = static_cast<double>(sh->cpu_ns[i]) * 1e-9;
    res.cpu_seconds += cpu;
    m.timer("engine.cpu." + jobs[i].name).record(cpu);
  }
  RFN_DEBUG("portfolio race: winner=%s launched=%zu cancelled=%zu %.3fs",
            res.conclusive ? res.winner_name.c_str() : "(none)", res.launched,
            res.cancelled, res.seconds);
  return res;
}

}  // namespace rfn
