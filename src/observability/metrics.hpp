#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace paratreet::obs {

/// Number of independent shards every instrument spreads its hot-path
/// writes over. Each worker thread hashes to one shard, so concurrent
/// increments from different workers land on different cache lines (the
/// same trick as the paper's wait-free cache: private writes, aggregation
/// only at read time).
inline constexpr std::size_t kMetricShards = 32;

namespace detail {

/// Stable per-thread shard index: threads are numbered in creation order
/// and wrap around the shard count. Deliberately independent of the rts
/// worker numbering so metrics recorded off-worker (main thread, tests)
/// still shard correctly.
inline std::size_t thisThreadShard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

/// One cache line per shard so concurrent writers never false-share.
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};

/// Lock-free add of a double into an atomic holding its bit pattern.
inline void atomicAddDouble(std::atomic<std::uint64_t>& cell, double delta) {
  std::uint64_t expected = cell.load(std::memory_order_relaxed);
  double desired;
  do {
    double current;
    static_assert(sizeof(current) == sizeof(expected));
    std::memcpy(&current, &expected, sizeof(current));
    desired = current + delta;
    std::uint64_t desired_bits;
    std::memcpy(&desired_bits, &desired, sizeof(desired_bits));
    if (cell.compare_exchange_weak(expected, desired_bits,
                                   std::memory_order_relaxed)) {
      return;
    }
  } while (true);
}

inline double bitsToDouble(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

inline std::uint64_t doubleToBits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace detail

/// Monotonic integer counter. add() is wait-free: one relaxed fetch_add
/// on the calling thread's shard. value() sums the shards (read phase
/// only; concurrent reads see a consistent-enough running total).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t delta = 1) {
    shards_[detail::thisThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::array<detail::ShardCell, kMetricShards> shards_{};
};

/// Aggregated view of a Histogram at scrape time.
struct HistogramSnapshot {
  std::vector<double> bounds;           ///< upper bounds, one per finite bucket
  std::vector<std::uint64_t> counts;    ///< bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram: bucket bounds are set at registration and
/// never change, so observe() is a shard-local bucket search plus relaxed
/// atomic adds — no mutex, no allocation.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds)
      : name_(std::move(name)), bounds_(std::move(bounds)) {
    assert(!bounds_.empty());
    for (auto& s : shards_) {
      s = std::make_unique<Shard>(bounds_.size() + 1);
    }
  }

  void observe(double x) {
    Shard& s = *shards_[detail::thisThreadShard()];
    std::size_t b = 0;
    while (b < bounds_.size() && x > bounds_[b]) ++b;
    s.counts[b].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    detail::atomicAddDouble(s.sum, x);
    updateExtreme(s.min, x, /*is_min=*/true);
    updateExtreme(s.max, x, /*is_min=*/false);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot snap;
    snap.bounds = bounds_;
    snap.counts.assign(bounds_.size() + 1, 0);
    for (const auto& s : shards_) {
      for (std::size_t b = 0; b < snap.counts.size(); ++b) {
        snap.counts[b] += s->counts[b].load(std::memory_order_relaxed);
      }
      snap.count += s->count.load(std::memory_order_relaxed);
      snap.sum += detail::bitsToDouble(s->sum.load(std::memory_order_relaxed));
      snap.min = std::min(
          snap.min, detail::bitsToDouble(s->min.load(std::memory_order_relaxed)));
      snap.max = std::max(
          snap.max, detail::bitsToDouble(s->max.load(std::memory_order_relaxed)));
    }
    return snap;
  }

  void reset() {
    for (auto& s : shards_) {
      for (auto& c : s->counts) c.store(0, std::memory_order_relaxed);
      s->count.store(0, std::memory_order_relaxed);
      s->sum.store(detail::doubleToBits(0.0), std::memory_order_relaxed);
      s->min.store(detail::doubleToBits(std::numeric_limits<double>::infinity()),
                   std::memory_order_relaxed);
      s->max.store(
          detail::doubleToBits(-std::numeric_limits<double>::infinity()),
          std::memory_order_relaxed);
    }
  }

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t n_buckets) : counts(n_buckets) {
      min.store(detail::doubleToBits(std::numeric_limits<double>::infinity()),
                std::memory_order_relaxed);
      max.store(detail::doubleToBits(-std::numeric_limits<double>::infinity()),
                std::memory_order_relaxed);
    }
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{detail::doubleToBits(0.0)};
    std::atomic<std::uint64_t> min{0};
    std::atomic<std::uint64_t> max{0};
  };

  static void updateExtreme(std::atomic<std::uint64_t>& cell, double x,
                            bool is_min) {
    std::uint64_t expected = cell.load(std::memory_order_relaxed);
    while (true) {
      const double current = detail::bitsToDouble(expected);
      if (is_min ? x >= current : x <= current) return;
      if (cell.compare_exchange_weak(expected, detail::doubleToBits(x),
                                     std::memory_order_relaxed)) {
        return;
      }
    }
  }

  std::string name_;
  std::vector<double> bounds_;
  std::array<std::unique_ptr<Shard>, kMetricShards> shards_;
};

/// Geometric bucket bounds covering [first, first * ratio^(n-1)]; the
/// default shape for latency/size histograms.
inline std::vector<double> exponentialBounds(double first, double ratio,
                                             std::size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double b = first;
  for (std::size_t i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= ratio;
  }
  return bounds;
}

/// Process-wide registry of named instruments.
///
/// Registration (counter()/histogram()) takes a mutex and is meant for
/// setup or first-touch paths; instruments are created once and never
/// removed, so the returned references stay valid for the registry's
/// lifetime and the *increment* path — Counter::add, Histogram::observe —
/// never touches a lock. Repeated registration of
/// the same name returns the same instrument.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) {
    std::lock_guard lock(mutex_);
    for (auto& c : counters_) {
      if (c->name() == name) return *c;
    }
    counters_.push_back(std::make_unique<Counter>(std::string(name)));
    return *counters_.back();
  }

  /// The bounds of an already-registered histogram win; a second caller's
  /// bounds are ignored (names identify instruments, not shapes).
  Histogram& histogram(std::string_view name, std::vector<double> bounds) {
    std::lock_guard lock(mutex_);
    for (auto& h : histograms_) {
      if (h->name() == name) return *h;
    }
    histograms_.push_back(
        std::make_unique<Histogram>(std::string(name), std::move(bounds)));
    return *histograms_.back();
  }

  /// Visitors over the registered instruments (scrape/export phase).
  template <typename Fn>
  void forEachCounter(Fn fn) const {
    std::lock_guard lock(mutex_);
    for (const auto& c : counters_) fn(*c);
  }
  template <typename Fn>
  void forEachHistogram(Fn fn) const {
    std::lock_guard lock(mutex_);
    for (const auto& h : histograms_) fn(*h);
  }

  /// Lookup without creating; nullptr when absent.
  const Counter* findCounter(std::string_view name) const {
    std::lock_guard lock(mutex_);
    for (const auto& c : counters_) {
      if (c->name() == name) return c.get();
    }
    return nullptr;
  }
  const Histogram* findHistogram(std::string_view name) const {
    std::lock_guard lock(mutex_);
    for (const auto& h : histograms_) {
      if (h->name() == name) return h.get();
    }
    return nullptr;
  }

  /// Zero every instrument (between measured phases; not concurrent-safe
  /// with hot-path writes).
  void resetAll() {
    std::lock_guard lock(mutex_);
    for (auto& c : counters_) c->reset();
    for (auto& h : histograms_) h->reset();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace paratreet::obs
