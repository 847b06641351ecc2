#pragma once

// The closed loop around Driver::run(), the readers of the counters and
// spans the program publishes (MetricsRegistry, TraceBuffer), and the
// JSON writer of the raw result file.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "observability/metrics.hpp"
#include "observability/report.hpp"
#include "observability/trace.hpp"

namespace paratreet::bench_step {

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Thrown from the traversal() hook to end Driver::run() once the loop
/// has measured enough steps: run() has no other early exit, and the hook
/// runs before any traversal starts, so the Forest is quiescent.
struct StopRun {};

/// One correctness check against a reference computed by the benchmark.
struct Check {
  std::string name;
  double value = 0.0;
  double limit = 0.0;
  bool passed = false;
  std::string detail;
};

/// How long one Driver::run() goes on.
struct LoopSpec {
  int warmup = 2;         ///< steps before timing starts
  int min_steps = 40;     ///< timed steps at least
  double seconds = 0.0;   ///< timed wall time at least
  bool setup_only = false;  ///< stop at the first timed step
  bool check = true;      ///< run the correctness checks in the last step
};

using CounterMap = std::map<std::string, std::uint64_t>;

inline CounterMap readCounters(const obs::MetricsRegistry* metrics) {
  CounterMap out;
  if (metrics == nullptr) return out;
  metrics->forEachCounter(
      [&](const obs::Counter& c) { out[c.name()] = c.value(); });
  return out;
}

/// The closed loop: each step starts when the previous one ends. A step
/// is the interval between successive traversal() hook entries, so it
/// covers post-traversal work, checkpoint, flush (gather + decompose),
/// build and the traversal itself. Time spent in the benchmark's own
/// correctness checks is taken out of the step it ran in.
class Loop {
 public:
  Loop(LoopSpec spec, const obs::MetricsRegistry* metrics)
      : spec_(spec), metrics_(metrics) {}

  /// Iterations Driver::run() is configured for; the loop stops it with
  /// StopRun long before.
  int iterationCap() const { return spec_.warmup + 1000000; }

  /// Start of set-up: call just before the rts::Runtime is constructed.
  void start() { t_start_ = Clock::now(); }

  /// First statement of every traversal() hook. Throws StopRun at the
  /// entry that closes the last timed step.
  void enterHook(int iter) {
    const auto now = Clock::now();
    if (iter < spec_.warmup) return;
    if (iter == spec_.warmup) {
      setup_s_ = seconds(now - t_start_);
      if (spec_.setup_only) throw StopRun{};
      t0_ = now;
      counters_begin_ = readCounters(metrics_);
    } else {
      step_s_.push_back(seconds(now - last_) - pending_check_s_);
      check_s_ += pending_check_s_;
    }
    if (final_) {
      t_end_ = now;
      stopped_at_ = iter;
      counters_end_ = readCounters(metrics_);
      throw StopRun{};
    }
    last_ = now;
    pending_check_s_ = 0.0;
    // Decide now whether the step starting here is the last one, so the
    // checks run inside it: enough steps, and enough time once it ends
    // (estimated by the previous step).
    const int index = iter - spec_.warmup;
    const double estimate = step_s_.empty() ? 0.0 : step_s_.back();
    final_ = index + 1 >= spec_.min_steps &&
             seconds(now - t0_) + estimate >= spec_.seconds;
    check_now_ = final_ && spec_.check;
  }

  bool checkThisStep() const { return check_now_; }
  void excludeFromStep(double s) { pending_check_s_ += s; }

  double setupSeconds() const { return setup_s_; }
  const std::vector<double>& stepSeconds() const { return step_s_; }
  /// Wall time of the timed steps, checks excluded.
  double timedWallSeconds() const { return seconds(t_end_ - t0_) - check_s_; }
  Clock::time_point timedBegin() const { return t0_; }
  Clock::time_point timedEnd() const { return t_end_; }
  bool finished() const { return stopped_at_ >= 0; }
  /// Iteration whose hook entry ended the run (it did not run).
  int stoppedAt() const { return stopped_at_; }

  /// Counter deltas over the timed steps; a counter registered only
  /// during the timed steps counts from zero.
  CounterMap counterDeltas() const {
    CounterMap out;
    for (const auto& [name, end] : counters_end_) {
      const auto it = counters_begin_.find(name);
      out[name] = end - (it == counters_begin_.end() ? 0 : it->second);
    }
    return out;
  }

 private:
  LoopSpec spec_;
  const obs::MetricsRegistry* metrics_;
  Clock::time_point t_start_{}, t0_{}, last_{}, t_end_{};
  double setup_s_ = 0.0;
  double pending_check_s_ = 0.0;
  double check_s_ = 0.0;
  int stopped_at_ = -1;
  bool final_ = false;
  bool check_now_ = false;
  std::vector<double> step_s_;
  CounterMap counters_begin_, counters_end_;
};

/// Spans of the timed window, summed by name.
struct SpanTotals {
  struct Entry {
    double total_s = 0.0;  ///< summed durations
    double self_s = 0.0;   ///< summed self time (bench-owned spans only)
    std::uint64_t count = 0;
  };
  std::map<std::string, Entry> by_name;
  std::uint64_t dropped = 0;
  std::uint64_t recorded = 0;
};

/// Sum the spans that start inside [begin, end). A span's self time is
/// its duration minus the part of it covered by spans nested inside it
/// on the same (proc, worker) lane; it is computed for the spans of
/// category `self_category` (the benchmark's own hooks, on the lane of
/// the thread that calls Driver::run()).
inline SpanTotals summarizeSpans(const obs::TraceBuffer& trace,
                                 Clock::time_point begin,
                                 Clock::time_point end,
                                 const std::string& self_category) {
  SpanTotals out;
  out.dropped = trace.dropped();
  const std::int64_t lo = trace.sinceOriginUs(begin);
  const std::int64_t hi = trace.sinceOriginUs(end);
  std::vector<obs::TraceEvent> events = trace.snapshot();
  out.recorded = events.size();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [&](const obs::TraceEvent& e) {
                                return e.start_us < lo || e.start_us >= hi;
                              }),
               events.end());
  auto same_lane = [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
    return a.proc == b.proc && a.worker == b.worker;
  };
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.proc != b.proc) return a.proc < b.proc;
              if (a.worker != b.worker) return a.worker < b.worker;
              return a.start_us < b.start_us;
            });
  // Start and duration are each truncated to whole microseconds, so a
  // nested span can poke out of its parent by a microsecond or two.
  constexpr std::int64_t kSlackUs = 2;
  std::vector<std::pair<std::int64_t, std::int64_t>> nested;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    auto& entry = out.by_name[e.name];
    entry.total_s += static_cast<double>(e.duration_us) * 1e-6;
    ++entry.count;
    if (self_category != e.category) continue;
    const std::int64_t e_end = e.start_us + e.duration_us;
    nested.clear();
    auto take = [&](const obs::TraceEvent& c) {
      const std::int64_t c_end = c.start_us + c.duration_us;
      if (c.start_us >= e.start_us - kSlackUs && c_end <= e_end + kSlackUs) {
        nested.emplace_back(std::max(c.start_us, e.start_us),
                            std::min(c_end, e_end));
      }
    };
    for (std::size_t j = i; j-- > 0 && same_lane(events[j], e) &&
                            events[j].start_us >= e.start_us - kSlackUs;) {
      take(events[j]);
    }
    for (std::size_t j = i + 1; j < events.size() && same_lane(events[j], e) &&
                                events[j].start_us < e_end;
         ++j) {
      take(events[j]);
    }
    // Self time = duration minus the union of the nested intervals.
    std::sort(nested.begin(), nested.end());
    std::int64_t covered = 0;
    std::int64_t reach = e.start_us;
    for (const auto& [b, f] : nested) {
      if (f > reach) {
        covered += f - std::max(b, reach);
        reach = f;
      }
    }
    entry.self_s += static_cast<double>(e.duration_us - covered) * 1e-6;
  }
  return out;
}

/// Minimal JSON emitter for the raw result file (numbers, strings,
/// nested objects and arrays; the caller keeps the nesting balanced).
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}

  void beginObject(const char* key = nullptr) { open(key, '{'); }
  void endObject() { close('}'); }
  void beginArray(const char* key = nullptr) { open(key, '['); }
  void endArray() { close(']'); }

  void number(const char* key, double v) {
    prefix(key);
    std::fprintf(f_, "%.17g", v);
  }
  void integer(const char* key, std::uint64_t v) {
    prefix(key);
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }
  void boolean(const char* key, bool v) {
    prefix(key);
    std::fputs(v ? "true" : "false", f_);
  }
  void string(const char* key, const std::string& v) {
    prefix(key);
    quoted(v);
  }
  void numbers(const char* key, const std::vector<double>& vs) {
    beginArray(key);
    for (const double v : vs) number(nullptr, v);
    endArray();
  }

 private:
  void quoted(const std::string& v) {
    std::fprintf(f_, "\"%s\"", obs::jsonEscape(v).c_str());
  }
  void prefix(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) std::fputc(',', f_);
      first_.back() = false;
    }
    if (key != nullptr) {
      quoted(key);
      std::fputc(':', f_);
    }
  }
  void open(const char* key, char c) {
    prefix(key);
    std::fputc(c, f_);
    first_.push_back(true);
  }
  void close(char c) {
    first_.pop_back();
    std::fputc(c, f_);
  }

  std::FILE* f_;
  std::vector<bool> first_;
};

}  // namespace paratreet::bench_step
