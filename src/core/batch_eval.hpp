#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>

#include "core/interaction_list.hpp"
#include "tree/node.hpp"
#include "util/timer.hpp"

// Function multiversioning for the lane evaluator: GCC and Clang emit a
// default, an AVX2 and an AVX-512F body of evalPairs/evalNodes and pick
// one at load time from the host CPU, so a portable binary still runs 4-
// and 8-wide lanes where the units exist. Both are also `flatten`: every
// call inside them, the visitor's terms included, is inlined into each
// clone (a call left out of line runs the default body's ISA; an
// out-of-line node-block lambda measured 2.3x slower). Other
// architectures (and compilers without the attribute) compile the plain
// body. The build uses -ffp-contract=off, so no clone
// fuses a multiply-add that another rounds twice: every clone computes
// the same bits. ThreadSanitizer builds compile the plain body too: the
// loader calls the clone resolver before the TSan runtime has started,
// and GCC instruments the resolver, so the binary would crash at startup.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define PARATREET_SIMD_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#ifndef PARATREET_SIMD_CLONES
#define PARATREET_SIMD_CLONES
#endif

namespace paratreet {

/// Vectorized evaluation: the term protocol. A Visitor writes each
/// interaction once, as a scalar term for one target against one source,
/// and the framework owns the loops around it — 8 accumulation lanes, the
/// scalar tail, the fixed-order lane reduction, the 64-entry node blocks
/// and the ISA dispatch. On top of the paper's open()/node()/leaf() a
/// visitor may provide:
///
///   static constexpr int kFields;  // doubles per contribution
///   void pairTerm(const Target& t, const PairSource& s, Lane acc) const;
///   void apply(Particle& p, const double* sum) const;  // sum[kFields]
///
/// and, for node approximations, a block of derived summaries:
///
///   using NodeBlock = ...;  // kNodeBlock entries, SoA, app layout
///   void summarize(NodeBlock& b, int k, const Data& d) const;
///   void nodeTerm(const Target& t, const NodeBlock& b, int k,
///                 Lane acc) const;
///
/// A node term with a run-time switch inside (gravity's quadrupole) would
/// keep the lanes from vectorizing; such a visitor instead writes
/// `template <bool kOn> void nodeTerm(...)` plus `bool nodeSwitch() const`,
/// and the evaluator compiles its loops once per value.
///
/// A term adds its contribution into acc[0 .. kFields). `Target` is
/// PointTarget unless the visitor defines
/// `std::optional<Target> target(const Particle& p) const` (per-target
/// constants hoisted out of the source loop; nullopt skips the target).
/// EvalKernel::kBatched streams the gathered lists through the terms in
/// lanes; the visitor's own leaf()/node() call pairTerms()/nodeTerms()
/// below, which run the same terms in order, so each formula exists once.
/// Without terms the evaluator replays the recorded node()/leaf()
/// callbacks in recorded order instead, so plain paper-style visitors
/// work unchanged (and bitwise) under EvalKernel::kBatched.

/// Accumulation lanes per target (one AVX-512 vector of doubles).
inline constexpr int kLanes = 8;
/// Node summaries derived per NodeBlock.
inline constexpr int kNodeBlock = 64;

/// The target a term sees unless the visitor defines target():
/// position and identity (Particle::order, as PairSource carries it).
struct PointTarget {
  double x, y, z, order;
};

/// One accumulation lane, `l`, of a field-major lane block
/// `double lanes[F][kLanes]`: each field's lanes stay contiguous for the
/// vectorizer.
class Lane {
 public:
  Lane(double (*lanes)[kLanes], int l) : lanes_(lanes), l_(l) {}
  double& operator[](int f) const { return lanes_[f][l_]; }

 private:
  double (*lanes_)[kLanes];
  int l_;
};

template <typename V>
concept HasPairTerm = requires { V::kFields; &V::pairTerm; &V::apply; };

template <typename V>
concept HasNodeTerm = requires { typename V::NodeBlock; };

/// Call fn with the visitor's node term as a callable, resolving
/// nodeSwitch() once so the term inside fn's loops has no branch.
template <typename V, typename Fn>
[[gnu::always_inline]] inline void withNodeTerm(const V& v, const Fn& fn) {
  if constexpr (requires { v.nodeSwitch(); }) {
    if (v.nodeSwitch()) {
      fn([&v](const auto&... a) { v.template nodeTerm<true>(a...); });
    } else {
      fn([&v](const auto&... a) { v.template nodeTerm<false>(a...); });
    }
  } else {
    fn([&v](const auto&... a) { v.nodeTerm(a...); });
  }
}

/// The visitor's target for `p` (PointTarget by default).
template <typename V>
auto targetOf(const V& v, const Particle& p) {
  if constexpr (requires { v.target(p); }) {
    return v.target(p);
  } else {
    return std::optional<PointTarget>(
        PointTarget{p.position.x, p.position.y, p.position.z,
                    static_cast<double>(p.order)});
  }
}

/// sum[f] over terms 0..n-1, in order, through one lane: the visitor path
/// and, over the last n % kLanes terms, the lane evaluator's tail.
template <int F, typename Term>
[[gnu::always_inline]] inline void orderedSum(int k, int n, const Term& term,
                                              double (&sum)[F]) {
  double acc[F][kLanes] = {};
  for (; k < n; ++k) term(k, Lane(acc, 0));
  for (int f = 0; f < F; ++f) sum[f] = acc[f][0];
}

/// sum[f] over terms 0..n-1 in kLanes explicit lanes, a scalar tail and a
/// fixed-order reduction (tail, then lane 0..kLanes-1), so the result is
/// the same on every ISA clone and needs no -ffast-math licence.
template <int F, typename Term>
[[gnu::always_inline]] inline void laneSum(int n, const Term& term,
                                           double (&sum)[F]) {
  double lanes[F][kLanes] = {};
  int k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    for (int l = 0; l < kLanes; ++l) term(k + l, Lane(lanes, l));
  }
  orderedSum(k, n, term, sum);
  for (int f = 0; f < F; ++f) {
    for (int l = 0; l < kLanes; ++l) sum[f] += lanes[f][l];
  }
}

/// Every target of `target` against every gathered source, in lanes.
template <typename Visitor, typename Data>
[[gnu::flatten]] PARATREET_SIMD_CLONES void evalPairs(
    const Visitor& v, const SoaSources& src, SpatialNode<Data>& target) {
  for (int i = 0; i < target.n_particles; ++i) {
    Particle& p = target.particle(i);
    const auto t = targetOf(v, p);
    if (!t) continue;
    double sum[Visitor::kFields];
    laneSum(src.n, [&](int j, Lane acc) { v.pairTerm(*t, src[j], acc); },
            sum);
    v.apply(p, sum);
  }
}

/// Every target of `target` against the `n` node summaries, a
/// kNodeBlock block at a time: each summary is derived once into the
/// block, then every target streams the block in lanes.
template <typename Visitor, typename Data>
[[gnu::flatten]] PARATREET_SIMD_CLONES void evalNodes(
    const Visitor& v, const Data* nodes, int n, SpatialNode<Data>& target) {
  typename Visitor::NodeBlock block{};
  withNodeTerm(v, [&](const auto& term) {
    for (int base = 0; base < n; base += kNodeBlock) {
      const int m = std::min(n - base, kNodeBlock);
      for (int k = 0; k < m; ++k) v.summarize(block, k, nodes[base + k]);
      for (int i = 0; i < target.n_particles; ++i) {
        Particle& p = target.particle(i);
        const auto t = targetOf(v, p);
        if (!t) continue;
        double sum[Visitor::kFields];
        laneSum(m, [&](int k, Lane acc) { term(*t, block, k, acc); }, sum);
        v.apply(p, sum);
      }
    }
  });
}

/// The visitor path's leaf(): every target of `target` against the
/// particles of leaf `source`, in source order. `keep(p)` may skip a
/// target for this leaf (a cheap per-leaf precheck).
template <typename Visitor, typename Data, typename Keep>
void pairTerms(const Visitor& v, const SpatialNode<Data>& source,
               SpatialNode<Data>& target, const Keep& keep) {
  for (int i = 0; i < target.n_particles; ++i) {
    Particle& p = target.particle(i);
    if (!keep(p)) continue;
    const auto t = targetOf(v, p);
    if (!t) continue;
    double sum[Visitor::kFields];
    orderedSum(
        0, source.n_particles,
        [&](int j, Lane acc) {
          v.pairTerm(*t, PairSource::of(source.particle(j)), acc);
        },
        sum);
    v.apply(p, sum);
  }
}

template <typename Visitor, typename Data>
void pairTerms(const Visitor& v, const SpatialNode<Data>& source,
               SpatialNode<Data>& target) {
  pairTerms(v, source, target, [](const Particle&) { return true; });
}

/// The visitor path's node(): every target of `target` against one
/// summary, through the same node term (one derived block entry).
template <typename Visitor, typename Data>
void nodeTerms(const Visitor& v, const Data& source,
               SpatialNode<Data>& target) {
  typename Visitor::NodeBlock block;
  v.summarize(block, 0, source);
  withNodeTerm(v, [&](const auto& term) {
    for (int i = 0; i < target.n_particles; ++i) {
      Particle& p = target.particle(i);
      const auto t = targetOf(v, p);
      if (!t) continue;
      double sum[Visitor::kFields];
      orderedSum(0, 1, [&](int, Lane acc) { term(*t, block, 0, acc); }, sum);
      v.apply(p, sum);
    }
  });
}

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
    double node_seconds = 0.0;    ///< time in node terms / node() replay
    double leaf_seconds = 0.0;    ///< time in pair terms / leaf() replay
    double replay_seconds = 0.0;  ///< interleaved bitwise replay (no terms)
  };

  BatchEvaluator(const Visitor& visitor, BatchScratch<Data>& scratch,
                 const InteractionArena<Data>& arena)
      : visitor_(visitor), scratch_(scratch), arena_(arena) {}

  /// Apply `target`'s recorded interactions to its particles. Does not
  /// clear the list (the caller owns its lifetime).
  void evaluate(const InteractionList<Data>& list, SpatialNode<Data> target) {
    if (list.empty() || target.n_particles == 0) return;
    constexpr bool node_terms = HasNodeTerm<Visitor>;
    constexpr bool pair_terms = HasPairTerm<Visitor>;
    if constexpr (!node_terms && !pair_terms) {
      // No terms: replay the callbacks in recorded order, which
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
    {
      WallTimer timer;
      if constexpr (node_terms) {
        if (list.nodeCount() > 0) {
          const int n = gatherNodes(list);
          evalNodes(visitor_, scratch_.node_data.data(), n, target);
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
      if constexpr (pair_terms) {
        if (list.directSources() > 0) {
          evalPairs(visitor_, gatherSources(list), target);
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
  /// Copy the bucket's pruned-node summaries into one contiguous run (the
  /// form evalNodes streams). Each distinct summary is pulled out of its
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
