#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "core/cache.hpp"
#include "core/partition.hpp"
#include "core/traversal.hpp"
#include "rts/profiler.hpp"

namespace paratreet {

/// A user-defined traversal order, demonstrating the paper's extensible
/// Traverser interface ("such as a priority-driven traversal for ray
/// tracing"): instead of depth-first order, source nodes are expanded in
/// order of a visitor-supplied priority, so the most promising regions
/// are refined first and pruning criteria that tighten during traversal
/// (best-hit distances, occlusion bounds) converge quickly.
///
/// Visitor concept, in addition to open()/node()/leaf():
///   double priority(S source, T target) — larger = expand sooner.
///
/// Remote nodes pause exactly as in the other traversers; resumed work
/// re-enters the priority queue of its bucket walk.
template <typename Data, typename Visitor>
class PriorityTraverser final : public TraverserBase {
 public:
  PriorityTraverser(Partition<Data>& partition, CacheManager<Data>& cache,
                    Visitor visitor = {}, Instrumentation instr = {})
      : partition_(partition), cache_(cache), visitor_(std::move(visitor)),
        instr_(instr) {}

  void start() {
    rts::ActivityScope scope(instr_.profiler, rts::Activity::kLocalTraversal);
    std::lock_guard run(partition_.run_mutex);
    LoadScope<Data> load(partition_);
    for (std::uint32_t b = 0; b < partition_.buckets.size(); ++b) {
      Frontier frontier;
      push(frontier, cache_.root(), b);
      drain(std::move(frontier), b);
    }
  }

 private:
  struct Entry {
    double priority;
    Node<Data>* node;
    bool operator<(const Entry& o) const { return priority < o.priority; }
  };
  using Frontier = std::priority_queue<Entry>;

  void push(Frontier& frontier, Node<Data>* node, std::uint32_t b) {
    if (node == nullptr || node->type == NodeType::kEmptyLeaf) return;
    auto tgt = partition_.buckets[b].view();
    const SpatialNode<Data> src = SpatialNode<Data>::of(*node);
    frontier.push({visitor_.priority(src, tgt), node});
  }

  /// Expand the frontier best-first until empty; pauses move the whole
  /// remaining frontier into the continuation.
  void drain(Frontier frontier, std::uint32_t b) {
    while (!frontier.empty()) {
      Node<Data>* node = frontier.top().node;
      frontier.pop();
      auto tgt = partition_.buckets[b].view();
      const SpatialNode<Data> src = SpatialNode<Data>::of(*node);
      if (!visitor_.open(src, tgt)) {
        visitor_.node(src, tgt);
        continue;
      }
      switch (node->type) {
        case NodeType::kLeaf:
          visitor_.leaf(src, tgt);
          break;
        case NodeType::kInternal:
        case NodeType::kBoundary:
          for (int c = 0; c < node->n_children; ++c) {
            push(frontier, node->child(c), b);
          }
          break;
        case NodeType::kRemote:
        case NodeType::kRemoteLeaf: {
          pause(node, std::move(frontier), b);
          return;  // the continuation owns the rest of the walk
        }
        case NodeType::kEmptyLeaf:
          break;
      }
    }
  }

  void pause(Node<Data>* ph, Frontier frontier, std::uint32_t b) {
    pauseAt(ph, cache_, partition_, instr_.profiler,
            [this, b, frontier = std::move(frontier)](Node<Data>* n) mutable {
              push(frontier, n, b);
              drain(std::move(frontier), b);
            });
  }

  Partition<Data>& partition_;
  CacheManager<Data>& cache_;
  Visitor visitor_;
  Instrumentation instr_;
};

}  // namespace paratreet
