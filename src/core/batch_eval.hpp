#pragma once

#include <cstdint>
#include <cstring>

#include "core/interaction_list.hpp"
#include "tree/node.hpp"
#include "util/timer.hpp"

namespace paratreet {

/// Batch-hook detection. A Visitor may optionally provide, on top of the
/// paper's open()/node()/leaf():
///
///   void nodeBatch(const Data* nodes, int n, SpatialNode<Data>& target,
///                  const SoaTargets& tgt) const;
///   void leafBatch(const SoaSources& src, SpatialNode<Data>& target,
///                  const SoaTargets& tgt) const;
///
/// nodeBatch consumes the bucket's whole node-approximation list at once
/// (summaries gathered contiguous); leafBatch consumes the concatenated
/// SoA gather of every direct-list source span. Hooks absent => the
/// evaluator replays the recorded per-pair callbacks instead, in recorded
/// order, so plain paper-style visitors work unchanged under
/// EvalKernel::kBatched.
template <typename V, typename Data>
concept HasNodeBatch =
    requires(const V v, const Data* d, int n, SpatialNode<Data>& t,
             const SoaTargets& st) { v.nodeBatch(d, n, t, st); };

template <typename V, typename Data>
concept HasLeafBatch =
    requires(const V v, const SoaSources& s, SpatialNode<Data>& t,
             const SoaTargets& st) { v.leafBatch(s, t, st); };

/// Whether batched traversals record the node-approximation list for this
/// visitor. Visitors whose node() is a no-op (pure neighbour searches)
/// declare `static constexpr bool kRecordsNodeInteractions = false;` and
/// skip the bookkeeping entirely.
template <typename V>
constexpr bool recordsNodeInteractions() {
  if constexpr (requires { V::kRecordsNodeInteractions; }) {
    return V::kRecordsNodeInteractions;
  } else {
    return true;
  }
}

/// Estimated floating-point ops per particle-particle interaction, which
/// benchmarks multiply into the traversal.interactions.pp counter for a
/// flop estimate. Visitors can override with
/// `static constexpr double kFlopsPerPairInteraction`.
template <typename V>
constexpr double flopsPerPairInteraction() {
  if constexpr (requires { V::kFlopsPerPairInteraction; }) {
    return V::kFlopsPerPairInteraction;
  } else {
    return 20.0;
  }
}

/// Same for particle-node (summary) interactions
/// (`kFlopsPerNodeInteraction`).
template <typename V>
constexpr double flopsPerNodeInteraction() {
  if constexpr (requires { V::kFlopsPerNodeInteraction; }) {
    return V::kFlopsPerNodeInteraction;
  } else {
    return 50.0;
  }
}

/// Drains per-bucket interaction lists. One evaluator serves one
/// Partition's buckets (in any order — sealed buckets may drain while
/// other buckets are still walking); it borrows the Partition's
/// BatchScratch and resolves list entries through the Partition's
/// InteractionArena. The caller serializes access via the Partition's
/// run_mutex.
template <typename Data, typename Visitor>
class BatchEvaluator {
 public:
  struct Totals {
    double node_seconds = 0.0;    ///< time in nodeBatch / node() replay
    double leaf_seconds = 0.0;    ///< time in leafBatch / leaf() replay
    double replay_seconds = 0.0;  ///< interleaved bitwise replay (no hooks)
  };

  BatchEvaluator(const Visitor& visitor, BatchScratch<Data>& scratch,
                 const InteractionArena<Data>& arena)
      : visitor_(visitor), scratch_(scratch), arena_(arena) {}

  /// Apply bucket `b`'s recorded interactions to its particles. Does not
  /// clear the list (the caller owns its lifetime). Requires
  /// scratch_.prepareTargets() to have laid out bucket b's target slice.
  void evaluate(const InteractionList<Data>& list, SpatialNode<Data> target,
                std::uint32_t b) {
    if (list.empty() || target.n_particles == 0) return;
    constexpr bool node_hook = HasNodeBatch<Visitor, Data>;
    constexpr bool leaf_hook = HasLeafBatch<Visitor, Data>;
    if constexpr (!node_hook && !leaf_hook) {
      // No batch kernels: replay the callbacks in recorded order, which
      // reproduces the inline visitor path bitwise.
      WallTimer timer;
      list.forEachRecorded(arena_, [&](bool is_leaf, const Node<Data>& node) {
        if (is_leaf) {
          visitor_.leaf(SpatialNode<Data>::of(node), target);
        } else {
          visitor_.node(SpatialNode<Data>::of(node), target);
        }
      });
      totals_.replay_seconds += timer.seconds();
      return;
    }
    const SoaTargets tgt = gatherTargets(target, b);
    {
      WallTimer timer;
      if constexpr (node_hook) {
        if (list.nodeCount() > 0) {
          const int n = gatherNodes(list);
          visitor_.nodeBatch(scratch_.node_data.data(), n, target, tgt);
        }
      } else {
        list.forEachRecorded(arena_, [&](bool is_leaf, const Node<Data>& node) {
          if (!is_leaf) visitor_.node(SpatialNode<Data>::of(node), target);
        });
      }
      totals_.node_seconds += timer.seconds();
    }
    {
      WallTimer timer;
      if constexpr (leaf_hook) {
        if (list.directSources() > 0) {
          visitor_.leafBatch(gatherSources(list), target, tgt);
        }
      } else {
        list.forEachRecorded(arena_, [&](bool is_leaf, const Node<Data>& node) {
          if (is_leaf) visitor_.leaf(SpatialNode<Data>::of(node), target);
        });
      }
      totals_.leaf_seconds += timer.seconds();
    }
  }

  const Totals& totals() const { return totals_; }

 private:
  /// Bucket b's slice of the per-build persistent target gather,
  /// populated on first touch this build and reused by every later drain
  /// (positions don't move between builds).
  SoaTargets gatherTargets(SpatialNode<Data>& target, std::uint32_t b) {
    const std::size_t off = scratch_.target_offset[b];
    const auto n = static_cast<std::size_t>(target.n_particles);
    if (!scratch_.target_ready[b]) {
      for (std::size_t i = 0; i < n; ++i) {
        const Particle& p = target.particle(static_cast<int>(i));
        scratch_.tx[off + i] = p.position.x;
        scratch_.ty[off + i] = p.position.y;
        scratch_.tz[off + i] = p.position.z;
        scratch_.torder[off + i] = static_cast<double>(p.order);
      }
      scratch_.target_ready[b] = 1;
    }
    return SoaTargets{scratch_.tx.data() + off, scratch_.ty.data() + off,
                      scratch_.tz.data() + off, scratch_.torder.data() + off,
                      target.n_particles};
  }

  /// Copy the bucket's pruned-node summaries into one contiguous run (the
  /// form nodeBatch streams). Each distinct summary is pulled out of its
  /// ~250-byte-stride Node once per traversal into the compact pool;
  /// repeat references (the same node pruned against many buckets) read
  /// the pool instead of re-touching scattered tree/cache storage.
  int gatherNodes(const InteractionList<Data>& list) {
    scratch_.node_data.resize(list.nodeCount());
    if (scratch_.node_slot.size() < arena_.size()) {
      scratch_.node_slot.resize(arena_.size(), -1);
    }
    std::size_t i = 0;
    for (const std::uint32_t tag : list.items()) {
      if ((tag & 1u) != 0) continue;
      const std::uint32_t slot = tag >> 1;
      std::int32_t s = scratch_.node_slot[slot];
      if (s < 0) {
        s = static_cast<std::int32_t>(scratch_.node_pool.size());
        scratch_.node_pool.push_back(arena_.at(slot)->data);
        scratch_.node_slot[slot] = s;
      }
      scratch_.node_data[i++] = scratch_.node_pool[static_cast<std::size_t>(s)];
    }
    return static_cast<int>(i);
  }

  /// Concatenate every direct-list span into the SoA source arrays. Each
  /// distinct leaf is converted AoS->SoA once per traversal (ensureSpan);
  /// per-bucket gathers are then five bulk memcpys per span instead of a
  /// strided walk over the ~150-byte Particle records. A single-span list
  /// skips the concatenation and hands out pool pointers directly.
  SoaSources gatherSources(const InteractionList<Data>& list) {
    const std::size_t n = list.directSources();
    if (scratch_.source_offset.size() < arena_.size()) {
      scratch_.source_offset.resize(arena_.size(), -1);
    }
    if (list.leafCount() == 1) {
      for (const std::uint32_t tag : list.items()) {
        if ((tag & 1u) == 0) continue;
        const auto off = static_cast<std::size_t>(ensureSpan(tag >> 1));
        return SoaSources{scratch_.px.data() + off, scratch_.py.data() + off,
                          scratch_.pz.data() + off, scratch_.pm.data() + off,
                          scratch_.porder.data() + off, static_cast<int>(n)};
      }
    }
    scratch_.sx.resize(n);
    scratch_.sy.resize(n);
    scratch_.sz.resize(n);
    scratch_.sm.resize(n);
    scratch_.sorder.resize(n);
    std::size_t at = 0;
    for (const std::uint32_t tag : list.items()) {
      if ((tag & 1u) == 0) continue;
      const std::uint32_t slot = tag >> 1;
      const auto off = static_cast<std::size_t>(ensureSpan(slot));
      const auto m = static_cast<std::size_t>(arena_.at(slot)->n_particles);
      const std::size_t bytes = m * sizeof(double);
      std::memcpy(scratch_.sx.data() + at, scratch_.px.data() + off, bytes);
      std::memcpy(scratch_.sy.data() + at, scratch_.py.data() + off, bytes);
      std::memcpy(scratch_.sz.data() + at, scratch_.pz.data() + off, bytes);
      std::memcpy(scratch_.sm.data() + at, scratch_.pm.data() + off, bytes);
      std::memcpy(scratch_.sorder.data() + at, scratch_.porder.data() + off,
                  bytes);
      at += m;
    }
    return SoaSources{scratch_.sx.data(), scratch_.sy.data(),
                      scratch_.sz.data(), scratch_.sm.data(),
                      scratch_.sorder.data(), static_cast<int>(n)};
  }

  /// Offset of arena slot's leaf span in the source pool, converting the
  /// leaf's particles on first touch.
  std::int64_t ensureSpan(std::uint32_t slot) {
    std::int64_t off = scratch_.source_offset[slot];
    if (off >= 0) return off;
    const Node<Data>* leaf = arena_.at(slot);
    off = static_cast<std::int64_t>(scratch_.px.size());
    const auto m = static_cast<std::size_t>(leaf->n_particles);
    const auto end = static_cast<std::size_t>(off) + m;
    scratch_.px.resize(end);
    scratch_.py.resize(end);
    scratch_.pz.resize(end);
    scratch_.pm.resize(end);
    scratch_.porder.resize(end);
    for (std::size_t j = 0; j < m; ++j) {
      const Particle& p = leaf->particles[j];
      const std::size_t k = static_cast<std::size_t>(off) + j;
      scratch_.px[k] = p.position.x;
      scratch_.py[k] = p.position.y;
      scratch_.pz[k] = p.position.z;
      scratch_.pm[k] = p.mass;
      scratch_.porder[k] = static_cast<double>(p.order);
    }
    scratch_.source_offset[slot] = off;
    return off;
  }

  const Visitor& visitor_;
  BatchScratch<Data>& scratch_;
  const InteractionArena<Data>& arena_;
  Totals totals_{};
};

}  // namespace paratreet
