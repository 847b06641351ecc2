#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "apps/sph/kernel.hpp"
#include "core/interaction_list.hpp"
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
  void consider(Particle& target, const Particle& source) {
    const double d2 = distanceSquared(target.position, source.position);
    auto& heap = lists_[static_cast<std::size_t>(target.order)];
    const Neighbor nb{d2, source.position, source.mass, source.order};
    if (static_cast<int>(heap.size()) < k_) {
      heap.push_back(nb);
      std::push_heap(heap.begin(), heap.end());
      if (static_cast<int>(heap.size()) == k_) target.ball2 = heap.front().d2;
      return;
    }
    if (d2 < heap.front().d2) {
      replaceRoot(heap, nb);
      target.ball2 = heap.front().d2;
    }
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

/// Search-ball initialization: before a kNN traversal every particle's
/// ball is infinite (accept anything until k candidates are known).
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

  void leaf(const SpatialNode<Data>& source, SpatialNode<Data>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      Particle& p = target.particle(i);
      if (p.ball2 <= 0.0 ||
          source.box.distanceSquared(p.position) >= p.ball2) {
        continue;
      }
      // The search ball has radius 2h (the kernel support).
      const double h = 0.5 * std::sqrt(p.ball2);
      for (int j = 0; j < source.n_particles; ++j) {
        const Particle& q = source.particle(j);
        const double d2 = distanceSquared(p.position, q.position);
        if (d2 < p.ball2) {
          p.density += q.mass * sph::kernelW(std::sqrt(d2), h);
          p.neighbor_count += 1;
        }
      }
    }
  }

  /// Batch hook (EvalKernel::kBatched): the bucket's concatenated direct
  /// list through a branchless masked cubic spline. The inline path's
  /// per-leaf box precheck is dropped — a leaf farther than the ball can
  /// contribute no pair anyway (box distance lower-bounds every pair
  /// distance), so the d2 < ball2 mask alone reproduces the same set of
  /// contributions (self included, as inline). neighbor_count is an exact
  /// integer either way; density differs only by summation order.
  void leafBatch(const SoaSources& src, SpatialNode<Data>& target,
                 const SoaTargets& tgt) const {
    constexpr int kLanes = 8;
    const double* __restrict sx = src.x;
    const double* __restrict sy = src.y;
    const double* __restrict sz = src.z;
    const double* __restrict sm = src.m;
    for (int i = 0; i < tgt.n; ++i) {
      Particle& p = target.particle(i);
      const double ball2 = p.ball2;
      if (ball2 <= 0.0) continue;
      const double h = 0.5 * std::sqrt(ball2);
      const double sigma = 1.0 / (3.14159265358979323846 * h * h * h);
      const double px = tgt.x[i];
      const double py = tgt.y[i];
      const double pz = tgt.z[i];
      double dens[kLanes] = {};
      std::int32_t cnt[kLanes] = {};
      int j = 0;
      for (; j + kLanes <= src.n; j += kLanes) {
        for (int l = 0; l < kLanes; ++l) {
          const double dx = px - sx[j + l];
          const double dy = py - sy[j + l];
          const double dz = pz - sz[j + l];
          const double d2 = dx * dx + dy * dy + dz * dz;
          const bool in = d2 < ball2;
          const double q = std::sqrt(d2) / h;
          const double t = 2.0 - q;  // > 0 whenever `in`
          const double wa = 1.0 - 1.5 * q * q + 0.75 * q * q * q;
          const double wb = 0.25 * t * t * t;
          const double w = sigma * (q < 1.0 ? wa : wb);
          dens[l] += in ? sm[j + l] * w : 0.0;
          cnt[l] += in ? 1 : 0;
        }
      }
      double tdens = 0.0;
      std::int32_t tcnt = 0;
      for (; j < src.n; ++j) {
        const double dx = px - sx[j];
        const double dy = py - sy[j];
        const double dz = pz - sz[j];
        const double d2 = dx * dx + dy * dy + dz * dz;
        if (d2 < ball2) {
          tdens += sm[j] * sph::kernelW(std::sqrt(d2), h);
          tcnt += 1;
        }
      }
      for (int l = 0; l < kLanes; ++l) {
        tdens += dens[l];
        tcnt += cnt[l];
      }
      p.density += tdens;
      p.neighbor_count += tcnt;
    }
  }
};

}  // namespace paratreet
