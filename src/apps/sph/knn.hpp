#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/batch_eval.hpp"
#include "tree/node.hpp"
#include "tree/particle.hpp"

namespace paratreet {

/// One k-nearest-neighbour candidate: enough of the source particle is
/// copied that later SPH passes need no second tree lookup.
struct Neighbor {
  double d2{0.0};
  Vec3 position{};
  double mass{0.0};
  std::int32_t order{-1};

  /// Max-heap ordering by distance: the heap root is the farthest of the
  /// current k best, which defines the search ball.
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    return a.d2 < b.d2;
  }
};

/// Global k-nearest-neighbour result storage, indexed by particle
/// `order`. Thread safety comes from the partition structure: every
/// particle lives in exactly one bucket of one Partition, and a
/// Partition's traversal tasks are serialized, so each entry has a single
/// writer.
class NeighborStore {
 public:
  NeighborStore(std::size_t n_particles, int k) : k_(k), lists_(n_particles) {}

  int k() const { return k_; }

  /// Offer a source particle as a neighbour candidate of `target`;
  /// updates the target's search ball (ball2) as the heap tightens.
  ///
  /// Only candidates strictly inside the ball enter the heap. From an
  /// infinite ball this is the plain k-best heap (a full heap's ball is
  /// its root's d2). From a finite starting ball nothing outside it is
  /// kept and the ball never widens, so a heap that fills up holds k
  /// particles strictly inside the starting ball, which makes it the
  /// exact k nearest whatever the starting ball was.
  void consider(Particle& target, const Particle& source) {
    const double d2 = distanceSquared(target.position, source.position);
    if (!(d2 < target.ball2)) return;
    auto& heap = lists_[static_cast<std::size_t>(target.order)];
    const Neighbor nb{d2, source.position, source.mass, source.order};
    if (static_cast<int>(heap.size()) < k_) {
      heap.push_back(nb);
      std::push_heap(heap.begin(), heap.end());
      if (static_cast<int>(heap.size()) == k_) target.ball2 = heap.front().d2;
      return;
    }
    replaceRoot(heap, nb);
    target.ball2 = heap.front().d2;
  }

  const std::vector<Neighbor>& neighbors(std::int32_t order) const {
    return lists_[static_cast<std::size_t>(order)];
  }
  std::vector<Neighbor>& neighbors(std::int32_t order) {
    return lists_[static_cast<std::size_t>(order)];
  }
  std::size_t size() const { return lists_.size(); }

 private:
  /// Evict the farthest candidate for `nb` with one sift-down from the
  /// root (a pop_heap + push_heap pair would sift twice).
  static void replaceRoot(std::vector<Neighbor>& heap, const Neighbor& nb) {
    const std::size_t n = heap.size();
    std::size_t i = 0;
    while (true) {
      std::size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && heap[c] < heap[c + 1]) ++c;
      if (!(nb < heap[c])) break;
      heap[i] = heap[c];
      i = c;
    }
    heap[i] = nb;
  }

  int k_;
  std::vector<std::vector<Neighbor>> lists_;
};

/// Cold search-ball initialization: accept anything until k candidates
/// are known. A caller with a valid upper bound on the kth-neighbour
/// distance may start from that instead (SphSolver does, step over step).
inline constexpr double kInfiniteBall = std::numeric_limits<double>::infinity();

/// The k-nearest-neighbour Visitor, meant for the up-and-down traversal:
/// processing the bucket's own leaf first collapses the search ball, so
/// the outward sweep prunes nearly everything. Works with any Data — the
/// pruning is pure geometry against the per-particle ball.
template <typename Data>
struct KNearestVisitor {
  NeighborStore* store{nullptr};

  /// node() is a no-op, so batched traversals skip the summary copies.
  static constexpr bool kRecordsNodeInteractions = false;

  bool open(const SpatialNode<Data>& source, SpatialNode<Data>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      const Particle& p = target.particle(i);
      if (source.box.distanceSquared(p.position) < p.ball2) return true;
    }
    return false;
  }

  void node(const SpatialNode<Data>&, SpatialNode<Data>&) const {}

  void leaf(const SpatialNode<Data>& source, SpatialNode<Data>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      Particle& p = target.particle(i);
      if (source.box.distanceSquared(p.position) >= p.ball2) continue;
      for (int j = 0; j < source.n_particles; ++j) {
        store->consider(p, source.particle(j));
      }
    }
  }
};

/// Fixed-ball search Visitor (the Gadget-2 style primitive): gathers
/// density contributions and neighbour counts within each particle's
/// current fixed radius sqrt(ball2). Converged particles carry ball2 = 0
/// and are skipped for free by the same pruning test.
template <typename Data>
struct FixedBallDensityVisitor {
  /// node() is a no-op, so batched traversals skip the summary copies.
  static constexpr bool kRecordsNodeInteractions = false;
  /// Cubic-spline evaluation inside the ball.
  static constexpr double kFlopsPerPairInteraction = 18.0;

  bool open(const SpatialNode<Data>& source, SpatialNode<Data>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      const Particle& p = target.particle(i);
      if (p.ball2 > 0.0 &&
          source.box.distanceSquared(p.position) < p.ball2) {
        return true;
      }
    }
    return false;
  }

  void node(const SpatialNode<Data>&, SpatialNode<Data>&) const {}

  /// The inline path checks each target's ball against the leaf box
  /// before its pair loop. EvalKernel::kBatched drops that precheck: a
  /// leaf farther than the ball contributes no pair anyway (box distance
  /// lower-bounds every pair distance), so the d2 < ball2 mask alone
  /// yields the same set of contributions (self included).
  /// neighbor_count is an exact integer either way; density differs only
  /// by summation order.
  void leaf(const SpatialNode<Data>& source, SpatialNode<Data>& target) const {
    pairTerms(*this, source, target, [&](const Particle& p) {
      return source.box.distanceSquared(p.position) < p.ball2;
    });
  }

  /// Contributions are {density, neighbour count}.
  static constexpr int kFields = 2;

  /// Per-target constants: the search ball and the kernel's h and sigma.
  struct Target {
    double x, y, z, ball2, h, sigma;
  };
  std::optional<Target> target(const Particle& p) const {
    if (p.ball2 <= 0.0) return std::nullopt;
    // The search ball has radius 2h (the kernel support).
    const double h = 0.5 * std::sqrt(p.ball2);
    return Target{p.position.x, p.position.y, p.position.z, p.ball2, h,
                  1.0 / (3.14159265358979323846 * h * h * h)};
  }

  /// Source `s` inside the ball: sph::kernelW as a branchless masked
  /// cubic spline.
  void pairTerm(const Target& t, const PairSource& s, Lane acc) const {
    const double dx = t.x - s.x;
    const double dy = t.y - s.y;
    const double dz = t.z - s.z;
    const double d2 = dx * dx + dy * dy + dz * dz;
    const bool in = d2 < t.ball2;
    const double q = std::sqrt(d2) / t.h;
    const double u = 2.0 - q;  // > 0 whenever `in`
    const double wa = 1.0 - 1.5 * q * q + 0.75 * q * q * q;
    const double wb = 0.25 * u * u * u;
    const double w = t.sigma * (q < 1.0 ? wa : wb);
    acc[0] += in ? s.m * w : 0.0;
    acc[1] += in ? 1.0 : 0.0;
  }

  void apply(Particle& p, const double* sum) const {
    p.density += sum[0];
    p.neighbor_count += static_cast<int>(sum[1]);
  }
};

}  // namespace paratreet
