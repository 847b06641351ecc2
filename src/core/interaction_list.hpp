#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tree/node.hpp"
#include "tree/particle.hpp"

namespace paratreet {

/// How a traversal turns pruning decisions into computed interactions.
enum class EvalKernel {
  /// Inline per-(node, bucket) visitor callbacks as in the paper: node()
  /// and leaf() run the moment the traversal makes a decision.
  kVisitor,
  /// Two-phase: the traversal only records per-bucket interaction lists;
  /// a batched evaluator drains them through SoA kernels (or replays the
  /// per-pair callbacks, preserving the recorded order). Only valid for
  /// visitors whose open() predicate does not depend on results produced
  /// by node()/leaf() during the same traversal (pure-geometry pruning,
  /// fixed search balls); criteria that tighten mid-walk (kNN) stay
  /// correct but lose their pruning.
  kBatched,
};

/// When EvalKernel::kBatched drains a sealed bucket's list.
enum class BatchDrain {
  /// Dataflow: a bucket's list seals the moment its last outstanding walk
  /// branch (seed or paused-and-resumed remote continuation) retires, and
  /// sealed buckets drain through the batch evaluator as worker-runtime
  /// tasks while other buckets are still walking. finish() only drains
  /// the stragglers.
  kOverlap,
  /// Bulk-synchronous reference: record everything, drain after global
  /// quiescence inside finish(). Kept as the A/B baseline — per-bucket
  /// evaluation is identical in both modes, so on a deterministic
  /// schedule the results match kOverlap bitwise.
  kBarrier,
};

/// Per-Partition node table for one traversal: every node a walk records
/// an interaction against is interned here once and lists refer to it by
/// dense uint32 index. Tree nodes and cached copies are pinned until the
/// next build and the arena is cleared on every traversal prepare, so the
/// bare pointers never dangle. Interning dedups across buckets (the
/// per-bucket traversal style visits the same node once per bucket),
/// which is what lets the evaluator convert each distinct leaf's
/// particles and each distinct summary to SoA form once per traversal
/// instead of once per (bucket, node) pair. Touched only under the
/// owning Partition's run_mutex.
template <typename Data>
class InteractionArena {
 public:
  /// Index of `node`, interning it on first encounter. The last-node
  /// fast path makes the common record pattern (one node against a run
  /// of targets, or repeated leaf records from one dfs step) a pointer
  /// compare; the map only fires once per distinct (node, walk region).
  std::uint32_t intern(const Node<Data>& node) {
    if (&node == last_node_) return last_index_;
    auto [it, inserted] =
        index_.try_emplace(&node, static_cast<std::uint32_t>(nodes_.size()));
    if (inserted) nodes_.push_back(&node);
    last_node_ = &node;
    last_index_ = it->second;
    return last_index_;
  }

  const Node<Data>* at(std::uint32_t i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }
  std::size_t size() const { return nodes_.size(); }

  /// Keep capacity (the arena is reused across traversals).
  void clear() {
    nodes_.clear();
    index_.clear();
    last_node_ = nullptr;
    last_index_ = 0;
  }

 private:
  std::vector<const Node<Data>*> nodes_;
  std::unordered_map<const Node<Data>*, std::uint32_t> index_;
  const Node<Data>* last_node_{nullptr};
  std::uint32_t last_index_{0};
};

/// A target bucket's recorded interactions, encoded as one tagged-index
/// stream into the Partition's InteractionArena: entry (slot << 1) is a
/// pruned node whose Data summary the evaluator consumes, (slot << 1) | 1
/// an opened leaf evaluated pairwise. One 4-byte push per record (the
/// node pointer itself lives once in the arena), and the single stream
/// preserves the interleaved record order so a per-pair replay reproduces
/// the inline visitor path bitwise.
template <typename Data>
class InteractionList {
 public:
  void addNode(std::uint32_t arena_slot) {
    items_.push_back(arena_slot << 1);
    ++node_count_;
  }

  void addLeaf(std::uint32_t arena_slot, int n_particles) {
    items_.push_back((arena_slot << 1) | 1u);
    ++leaf_count_;
    direct_sources_ += static_cast<std::size_t>(n_particles);
  }

  const std::vector<std::uint32_t>& items() const { return items_; }
  std::size_t nodeCount() const { return node_count_; }
  std::size_t leafCount() const { return leaf_count_; }
  /// Total source particles across the direct list.
  std::size_t directSources() const { return direct_sources_; }
  bool empty() const { return items_.empty(); }

  /// Walk the record in arrival order: fn(is_leaf, node).
  template <typename Fn>
  void forEachRecorded(const InteractionArena<Data>& arena, Fn&& fn) const {
    for (const std::uint32_t tag : items_) {
      fn((tag & 1u) != 0, *arena.at(tag >> 1));
    }
  }

  /// Keep capacity (lists are reused across buckets and iterations).
  void clear() {
    items_.clear();
    node_count_ = 0;
    leaf_count_ = 0;
    direct_sources_ = 0;
  }

 private:
  std::vector<std::uint32_t> items_;
  std::size_t node_count_{0};
  std::size_t leaf_count_{0};
  std::size_t direct_sources_{0};
};

/// Storage for the batched evaluation phase, owned by the Partition so
/// buffers warm up once and survive across buckets, traversals, and
/// iterations; accessed only under the Partition's run_mutex.
///
/// Two lifetimes live here:
///  - per-bucket staging (node_data, s*): valid for one evaluate() call;
///  - per-traversal pools (p*, node_pool, keyed by arena slot): each
///    distinct leaf's particles and each distinct pruned summary are
///    converted to SoA/contiguous form once per traversal, and every
///    bucket that references them gathers with bulk copies from the pool
///    instead of re-striding the ~150-byte AoS particles.
template <typename Data>
struct BatchScratch {
  // --- per-bucket staging --------------------------------------------------
  std::vector<Data> node_data;
  std::vector<double> sx, sy, sz, sm, sorder;

  // --- per-traversal pools (arena-slot keyed, see resetPools) --------------
  /// arena slot -> offset of the leaf's particles in p*; -1 = unconverted.
  std::vector<std::int64_t> source_offset;
  std::vector<double> px, py, pz, pm, porder;
  /// arena slot -> index into node_pool; -1 = uncopied.
  std::vector<std::int32_t> node_slot;
  std::vector<Data> node_pool;

  /// Invalidate the arena-keyed pools (arena slots are reassigned every
  /// traversal). Keeps capacity.
  void resetPools() {
    source_offset.clear();
    px.clear();
    py.clear();
    pz.clear();
    pm.clear();
    porder.clear();
    node_slot.clear();
    node_pool.clear();
  }
};

/// One source particle as a pair term sees it. `order` carries
/// Particle::order so terms can mask self-interaction by identity instead
/// of testing dr2 == 0. It is a double — exact for any order below 2^53 —
/// so the comparison stays in the FP pipeline and the mask select
/// vectorizes with the rest of the lane body (an int load in the inner
/// loop defeats SLP).
struct PairSource {
  double x, y, z, m, order;

  static PairSource of(const Particle& p) {
    return {p.position.x, p.position.y, p.position.z, p.mass,
            static_cast<double>(p.order)};
  }
};

/// Read-only SoA view of a gathered source batch: the direct list the
/// lane evaluator streams through a visitor's pair term.
struct SoaSources {
  const double* x{nullptr};
  const double* y{nullptr};
  const double* z{nullptr};
  const double* m{nullptr};
  const double* order{nullptr};
  int n{0};

  PairSource operator[](int j) const {
    return {x[j], y[j], z[j], m[j], order[j]};
  }
};

}  // namespace paratreet
