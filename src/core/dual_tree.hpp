#pragma once

#include <cstdint>
#include <vector>

#include "core/cache.hpp"
#include "core/partition.hpp"
#include "core/traversal.hpp"
#include "rts/runtime.hpp"

namespace paratreet {

/// Decision returned by a dual-tree Visitor's cell() function (paper
/// Section II.A.2): when evaluating the interaction of two internal nodes
/// with B children each, either approximate the whole pair, keep the
/// target and open the source (B child interactions), or open both
/// (B² child interactions).
enum class CellDecision {
  kApproximate,  ///< consume the pair via node(); no descent
  kOpenSource,   ///< keep target, descend source children
  kOpenBoth,     ///< descend both sides
};

/// Dual-tree Visitor concept. For S = const SpatialNode<Data>& (source,
/// read-only) and T = const SpatialNode<Data>& (target summary) /
/// SpatialNode<Data>& (target bucket):
///   CellDecision cell(S source, T target)  — internal x internal
///   bool open(S source, T target_bucket)   — source internal, target leaf
///   void node(S source, T target)          — pair approximated/pruned
///   void leaf(S source, T target_bucket)   — source leaf x target bucket
///
/// node() may be called with an internal *target* summary (n_particles
/// set, but no particle storage): visitors that deposit per-particle
/// results must descend instead of approximating at internal targets
/// (return kOpenBoth or kOpenSource), while pair-counting style visitors
/// can consume whole node pairs.

/// A small local tree over one Partition's buckets, giving the dual-tree
/// traversal its target side. Built per traversal by recursive median
/// splits of the bucket list along the longest dimension.
template <typename Data>
class TargetTree {
 public:
  struct TNode {
    OrientedBox box{};
    Data data{};
    int n_particles{0};
    std::int32_t first_bucket{0}, n_buckets{0};  ///< leaf payload
    std::int32_t left{-1}, right{-1};            ///< children, -1 at leaf

    bool leaf() const { return left < 0; }
  };

  explicit TargetTree(Partition<Data>& partition, int max_buckets_per_leaf = 1)
      : partition_(partition) {
    order_.resize(partition.buckets.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<std::uint32_t>(i);
    }
    if (!order_.empty()) {
      root_ = build(0, static_cast<std::int32_t>(order_.size()),
                    max_buckets_per_leaf);
    }
  }

  bool empty() const { return root_ < 0; }
  const TNode& node(std::int32_t i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }
  std::int32_t root() const { return root_; }
  /// Bucket index (into the partition) for leaf-local position `i`.
  std::uint32_t bucketAt(std::int32_t i) const {
    return order_[static_cast<std::size_t>(i)];
  }

 private:
  std::int32_t build(std::int32_t begin, std::int32_t end, int max_leaf) {
    TNode n;
    n.first_bucket = begin;
    n.n_buckets = end - begin;
    for (std::int32_t i = begin; i < end; ++i) {
      const auto& b = partition_.buckets[order_[static_cast<std::size_t>(i)]];
      n.box.grow(b.box);
      n.data += b.data;
      n.n_particles += static_cast<int>(b.particles.size());
    }
    const auto self = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(n);
    if (end - begin > max_leaf) {
      const std::size_t dim = n.box.longestDimension();
      const std::int32_t mid = begin + (end - begin) / 2;
      std::nth_element(
          order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
          [&](std::uint32_t a, std::uint32_t b) {
            return partition_.buckets[a].box.center()[dim] <
                   partition_.buckets[b].box.center()[dim];
          });
      const std::int32_t left = build(begin, mid, max_leaf);
      const std::int32_t right = build(mid, end, max_leaf);
      nodes_[static_cast<std::size_t>(self)].left = left;
      nodes_[static_cast<std::size_t>(self)].right = right;
    }
    return self;
  }

  Partition<Data>& partition_;
  std::vector<std::uint32_t> order_;
  std::vector<TNode> nodes_;
  std::int32_t root_{-1};
};

/// The dual-tree traverser: simultaneously descends the global source
/// tree (through the per-process cache, pausing on remote regions) and a
/// local tree over the Partition's buckets, consulting the visitor's
/// cell() to choose between B and B² descent at internal-internal pairs.
template <typename Data, typename Visitor>
class DualTreeTraverser final : public TraverserBase {
 public:
  DualTreeTraverser(Partition<Data>& partition, CacheManager<Data>& cache,
                    Visitor visitor = {}, Instrumentation instr = {})
      : partition_(partition), cache_(cache), visitor_(std::move(visitor)),
        instr_(instr), targets_(partition) {}

  void start() {
    rts::ActivityScope scope(instr_.profiler, rts::Activity::kLocalTraversal);
    std::lock_guard run(partition_.run_mutex);
    LoadScope<Data> load(partition_);
    if (targets_.empty()) return;
    dual(cache_.root(), targets_.root());
  }

 private:
  using TNode = typename TargetTree<Data>::TNode;

  SpatialNode<Data> targetView(const TNode& t) {
    // Internal target summary: data + box, no particle storage.
    return SpatialNode<Data>(t.data, t.box, Key{0}, t.n_particles, nullptr);
  }

  void dual(Node<Data>* src, std::int32_t tgt_index) {
    if (src == nullptr || src->type == NodeType::kEmptyLeaf) return;
    const TNode& tgt = targets_.node(tgt_index);
    const SpatialNode<Data> src_view = SpatialNode<Data>::of(*src);

    if (tgt.leaf()) {
      // Target is a bucket group: fall back to single-tree semantics.
      for (std::int32_t i = 0; i < tgt.n_buckets; ++i) {
        singleTarget(src, targets_.bucketAt(tgt.first_bucket + i));
      }
      return;
    }

    if (src->leaf() || src->placeholder()) {
      // Source cannot be opened further (or needs a fetch): open target.
      dual(src, tgt.left);
      dual(src, tgt.right);
      return;
    }

    auto tgt_view = targetView(tgt);
    switch (visitor_.cell(src_view, tgt_view)) {
      case CellDecision::kApproximate:
        visitor_.node(src_view, tgt_view);
        return;
      case CellDecision::kOpenSource:
        for (int c = 0; c < src->n_children; ++c) {
          dual(src->child(c), tgt_index);
        }
        return;
      case CellDecision::kOpenBoth:
        for (int c = 0; c < src->n_children; ++c) {
          dual(src->child(c), tgt.left);
          dual(src->child(c), tgt.right);
        }
        return;
    }
  }

  /// Single-target walk under `src` for bucket `b` (the classic flow),
  /// pausing on remote regions.
  void singleTarget(Node<Data>* src, std::uint32_t b) {
    if (src == nullptr || src->type == NodeType::kEmptyLeaf) return;
    auto tgt = partition_.buckets[b].view();
    const SpatialNode<Data> src_view = SpatialNode<Data>::of(*src);
    if (!visitor_.open(src_view, tgt)) {
      visitor_.node(src_view, tgt);
      return;
    }
    switch (src->type) {
      case NodeType::kLeaf:
        visitor_.leaf(src_view, tgt);
        return;
      case NodeType::kInternal:
      case NodeType::kBoundary:
        for (int c = 0; c < src->n_children; ++c) {
          singleTarget(src->child(c), b);
        }
        return;
      case NodeType::kRemote:
      case NodeType::kRemoteLeaf:
        pauseAt(src, cache_, partition_, instr_.profiler,
                [this, b](Node<Data>* n) { singleTarget(n, b); });
        return;
      case NodeType::kEmptyLeaf:
        return;
    }
  }

  Partition<Data>& partition_;
  CacheManager<Data>& cache_;
  Visitor visitor_;
  Instrumentation instr_;
  TargetTree<Data> targets_;
};

}  // namespace paratreet
