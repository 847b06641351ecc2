#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

namespace paratreet::obs {

/// One completed span: a named interval on one worker thread. Matches the
/// Chrome trace_event "complete" ("ph":"X") event shape so a dump can be
/// loaded straight into chrome://tracing / Perfetto.
struct TraceEvent {
  const char* name = "";      ///< static string (span sites are literals)
  const char* category = "";  ///< e.g. "phase", "traversal", "cache"
  std::int64_t start_us = 0;  ///< microseconds since the buffer's origin
  std::int64_t duration_us = 0;
  std::int32_t proc = -1;     ///< logical process (-1: off-worker)
  std::int32_t worker = -1;   ///< worker within the process (-1: off-worker)
};

/// Fixed-capacity concurrent buffer of completed spans, plus exact
/// per-name totals (seconds and count) — the framework's one phase clock.
///
/// Recording takes no lock. Every record() first adds the span to its
/// name's total (a fixed table of atomics; a name claims its slot by CAS
/// on first use, and names equal as text share a slot), then claims a
/// ring slot with one fetch_add, fills it and publishes it with a
/// release-store. When the ring fills, later spans are counted in
/// dropped() and otherwise discarded, but their totals stay exact —
/// tracing degrades, it never blocks the traversal. A capacity-0 buffer
/// keeps totals only. The table keeps each name's pointer, so a name must
/// outlive the buffer or its next reset() (span sites pass literals).
class TraceBuffer {
 public:
  /// Distinct names the totals table holds. Spans under further names
  /// still reach the ring; they are counted in totalsOverflow().
  static constexpr std::size_t kMaxSpanNames = 128;

  explicit TraceBuffer(std::size_t capacity = 1 << 16)
      : origin_(std::chrono::steady_clock::now()),
        slots_(capacity),
        ready_(capacity) {
    for (auto& r : ready_) r.store(false, std::memory_order_relaxed);
  }

  std::chrono::steady_clock::time_point origin() const { return origin_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Number of spans successfully recorded (clamped to capacity).
  std::size_t size() const {
    return std::min(next_.load(std::memory_order_acquire), slots_.size());
  }
  std::uint64_t dropped() const {
    const auto claimed = next_.load(std::memory_order_relaxed);
    return claimed > slots_.size() ? claimed - slots_.size() : 0;
  }

  void record(const TraceEvent& ev) { record(ev, ev.duration_us * 1000); }

  /// record(ev) with the exact duration for the totals (TraceSpan passes
  /// its nanosecond reading; ev.duration_us is the truncated event field).
  void record(const TraceEvent& ev, std::int64_t duration_ns) {
    if (Total* t = totalFor(ev.name, /*claim=*/true)) {
      t->ns.fetch_add(duration_ns, std::memory_order_relaxed);
      t->count.fetch_add(1, std::memory_order_relaxed);
    } else {
      totals_overflow_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= slots_.size()) return;
    slots_[slot] = ev;
    ready_[slot].store(true, std::memory_order_release);
  }

  /// Copy out every published span (export phase; racing recorders may
  /// still be claiming slots — unpublished slots are skipped).
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (ready_[i].load(std::memory_order_acquire)) out.push_back(slots_[i]);
    }
    return out;
  }

  /// Total seconds / span count recorded under `name` (0 if never seen).
  double totalSeconds(const char* name) const {
    const Total* t = totalFor(name, /*claim=*/false);
    return t == nullptr ? 0.0 : seconds(*t);
  }
  std::uint64_t totalCount(const char* name) const {
    const Total* t = totalFor(name, /*claim=*/false);
    return t == nullptr ? 0 : t->count.load(std::memory_order_relaxed);
  }
  /// fn(const char* name, double seconds, std::uint64_t count) per name.
  template <typename Fn>
  void forEachTotal(Fn fn) const {
    for (const Total& t : totals_) {
      const char* name = t.name.load(std::memory_order_acquire);
      if (name != nullptr) {
        fn(name, seconds(t), t.count.load(std::memory_order_relaxed));
      }
    }
  }
  /// Spans whose name found the totals table full.
  std::uint64_t totalsOverflow() const {
    return totals_overflow_.load(std::memory_order_relaxed);
  }

  /// Discard all spans and totals and restart the clock origin. Not
  /// concurrent-safe with record(); call between phases.
  void reset() {
    next_.store(0, std::memory_order_relaxed);
    for (auto& r : ready_) r.store(false, std::memory_order_relaxed);
    for (Total& t : totals_) {
      t.name.store(nullptr, std::memory_order_relaxed);
      t.ns.store(0, std::memory_order_relaxed);
      t.count.store(0, std::memory_order_relaxed);
    }
    totals_overflow_.store(0, std::memory_order_relaxed);
    origin_ = std::chrono::steady_clock::now();
  }

  std::int64_t sinceOriginUs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
        .count();
  }

 private:
  /// One cache line per name so workers recording different names never
  /// false-share.
  struct alignas(64) Total {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::int64_t> ns{0};
    std::atomic<std::uint64_t> count{0};
  };

  static double seconds(const Total& t) {
    return static_cast<double>(t.ns.load(std::memory_order_relaxed)) * 1e-9;
  }

  /// Open-addressed lookup keyed by the name's text (FNV-1a, linear
  /// probing). Slots are only ever claimed, never freed (until reset()),
  /// so an empty slot ends an unsuccessful probe. With `claim`, the first
  /// empty slot is taken by CAS; a lost race re-checks the winner's name.
  /// nullptr: absent (no claim) or the table is full (claim).
  Total* totalFor(const char* name, bool claim) const {
    std::uint64_t h = 14695981039346656037ull;
    for (const char* c = name; *c != '\0'; ++c) {
      h = (h ^ static_cast<unsigned char>(*c)) * 1099511628211ull;
    }
    for (std::size_t i = 0; i < kMaxSpanNames; ++i) {
      Total& t = totals_[(h + i) % kMaxSpanNames];
      const char* cur = t.name.load(std::memory_order_acquire);
      if (cur == nullptr) {
        if (!claim) return nullptr;
        if (t.name.compare_exchange_strong(cur, name,
                                           std::memory_order_acq_rel)) {
          return &t;
        }
      }
      if (cur == name || std::strcmp(cur, name) == 0) return &t;
    }
    return nullptr;
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<TraceEvent> slots_;
  std::vector<std::atomic<bool>> ready_;
  std::atomic<std::size_t> next_{0};
  mutable std::array<Total, kMaxSpanNames> totals_{};
  std::atomic<std::uint64_t> totals_overflow_{0};
};

/// RAII span: construction stamps the start, destruction records the
/// completed event (its total at nanosecond resolution). A null buffer
/// makes the scope a no-op, mirroring rts::ActivityScope, so instrumented
/// paths never branch per call site.
class TraceSpan {
 public:
  TraceSpan(TraceBuffer* buffer, const char* name, const char* category,
            std::int32_t proc = -1, std::int32_t worker = -1)
      : buffer_(buffer), name_(name), category_(category), proc_(proc),
        worker_(worker),
        start_(buffer ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{}) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (buffer_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    TraceEvent ev;
    ev.name = name_;
    ev.category = category_;
    ev.start_us = buffer_->sinceOriginUs(start_);
    // Both ends truncated from the origin, so an event contains every
    // event nested inside its span.
    ev.duration_us = buffer_->sinceOriginUs(end) - ev.start_us;
    ev.proc = proc_;
    ev.worker = worker_;
    buffer_->record(
        ev, std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
                .count());
  }

 private:
  TraceBuffer* buffer_;
  const char* name_;
  const char* category_;
  std::int32_t proc_;
  std::int32_t worker_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace paratreet::obs
