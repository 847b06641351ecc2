#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/interaction_list.hpp"
#include "tree/node.hpp"
#include "tree/particle.hpp"
#include "util/box.hpp"

namespace paratreet {

/// A target bucket held by a Partition: a private, writable copy of the
/// particles of one (possibly split) tree leaf. Visitors deposit results
/// into these copies; Partition::gather() collects them afterwards.
template <typename Data>
struct Bucket {
  /// Key of the originating tree leaf. Split buckets share a leaf key.
  Key leaf_key{};
  OrientedBox box{};
  Data data{};
  std::vector<Particle> particles;

  /// The mutable SpatialNode view handed to visitors as the target.
  SpatialNode<Data> view() {
    return SpatialNode<Data>(data, box, leaf_key,
                             static_cast<int>(particles.size()),
                             particles.data());
  }
};

/// A Partition chare: owns a load-balanced slice of the particles (the
/// "load" side of the Partitions-Subtrees model), materialized as target
/// buckets after the leaf-sharing step. Partitions drive traversals; the
/// tree itself lives in Subtrees and the per-process cache.
template <typename Data>
struct Partition {
  int index{0};
  int home_proc{0};
  std::vector<Bucket<Data>> buckets;

  /// Build-phase only: Subtrees on several workers push buckets here
  /// concurrently during leaf sharing.
  std::mutex intake_mutex;

  /// Chare-style execution atomicity: traversal tasks (seeds and resumed
  /// continuations) of one Partition hold this while running, so target
  /// buckets are never written by two workers at once — matching Charm++
  /// semantics where a chare processes one message at a time. Distinct
  /// Partitions still run fully in parallel.
  std::mutex run_mutex;

  /// Wall seconds of traversal work executed for this Partition in the
  /// current iteration (written under run_mutex); input to the load
  /// balancers.
  double measured_load{0.0};

  /// SoA staging arrays and per-traversal source/summary pools for the
  /// batched evaluation phase (EvalKernel::kBatched). Owned here so the
  /// buffers warm up once and are reused across buckets, traversals, and
  /// iterations; accessed only under run_mutex (drains run as
  /// chare-style tasks).
  BatchScratch<Data> batch_scratch;

  /// Node table the interaction lists index into, rebuilt per traversal
  /// (EvalKernel::kBatched). Touched only under run_mutex.
  InteractionArena<Data> interaction_arena;

  /// Per-bucket interaction lists for EvalKernel::kBatched, index-aligned
  /// with `buckets`. Owned here (not by the per-traversal traverser) so
  /// list capacity survives across iterations; touched only under
  /// run_mutex and always drained + cleared (eagerly as buckets seal, or
  /// by the traversal's finish phase) before the next build invalidates
  /// the recorded node pointers.
  std::vector<InteractionList<Data>> interaction_lists;

  void addBucket(Bucket<Data> bucket) {
    std::lock_guard lock(intake_mutex);
    buckets.push_back(std::move(bucket));
  }

  void clear() { buckets.clear(); }

  std::size_t particleCount() const {
    std::size_t n = 0;
    for (const auto& b : buckets) n += b.particles.size();
    return n;
  }

  /// Apply `fn(Particle&)` to every particle held by this partition.
  template <typename Fn>
  void forEachParticle(Fn&& fn) {
    for (auto& b : buckets) {
      for (auto& p : b.particles) fn(p);
    }
  }

  /// Checkpoint hook: append this Partition's writable particle copies —
  /// the authoritative post-traversal state — to `out`, in bucket order.
  /// Runs on the home process after quiescence (no concurrent writers).
  void appendParticlesTo(std::vector<Particle>& out) const {
    for (const auto& b : buckets) {
      out.insert(out.end(), b.particles.begin(), b.particles.end());
    }
  }
};

}  // namespace paratreet
