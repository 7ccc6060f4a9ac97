#include "core/portfolio.hpp"

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"
#include "util/trace.hpp"

namespace rfn {

RaceResult race(const std::vector<PortfolioJob>& jobs,
                const CancelToken* parent) {
  const Stopwatch watch;
  RaceResult res;
  if (jobs.empty()) return res;
  Span race_span("portfolio.race");
  SpanTracer& tracer = SpanTracer::global();
  MetricsRegistry& m = MetricsRegistry::global();
  size_t inconclusive = 0;

  for (size_t i = 0; i < jobs.size(); ++i) {
    const PortfolioJob& job = jobs[i];
    // Every job, skipped or not, gets its span: the trace shows the lineup.
    Span job_span(tracer.enabled() ? tracer.intern(job.name) : "job");
    const char* outcome = "skipped";
    if (res.conclusive || should_stop(parent)) {
      ++res.cancelled;
    } else {
      ++res.launched;
      // The per-job budget starts now.
      CancelToken token(job.time_limit_s, parent);
      const int64_t cpu0 = prof::thread_cpu_ns();
      const bool won = job.run(token);
      const int64_t cpu_ns = prof::thread_cpu_ns() - cpu0;
      if (cpu_ns > 0) {  // 0 without a thread-CPU clock
        const double cpu = static_cast<double>(cpu_ns) * 1e-9;
        res.cpu_seconds += cpu;
        m.timer("engine.cpu." + job.name).record(cpu);
      }
      if (won) {
        res.conclusive = true;
        res.winner = i;
        res.winner_name = job.name;
        outcome = "won";
      } else if (should_stop(parent)) {
        ++res.cancelled;
        outcome = "cancelled";
      } else {
        ++inconclusive;
        outcome = "inconclusive";
      }
    }
    job_span.annotate("outcome", outcome);
  }
  res.seconds = watch.seconds();
  if (tracer.enabled())
    race_span.annotate("winner", res.conclusive
                                     ? tracer.intern(res.winner_name)
                                     : "(none)");

  m.counter("portfolio.races").add(1);
  m.counter("portfolio.jobs_launched").add(res.launched);
  m.counter("portfolio.jobs_cancelled").add(res.cancelled);
  m.counter("portfolio.jobs_inconclusive").add(inconclusive);
  m.timer("portfolio.race").record(res.seconds);
  if (res.conclusive) m.counter("portfolio.wins." + res.winner_name).add(1);
  RFN_DEBUG("portfolio race: winner=%s launched=%zu cancelled=%zu %.3fs",
            res.conclusive ? res.winner_name.c_str() : "(none)", res.launched,
            res.cancelled, res.seconds);
  return res;
}

}  // namespace rfn
