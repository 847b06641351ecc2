#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "core/batch_eval.hpp"
#include "core/cache.hpp"
#include "core/interaction_list.hpp"
#include "core/partition.hpp"
#include "observability/instrumentation.hpp"
#include "util/timer.hpp"
#include "rts/profiler.hpp"
#include "rts/runtime.hpp"
#include "tree/node.hpp"
#include "util/small_vector.hpp"

namespace paratreet {

/// Visitor concept (paper Section II.A.2): a type V usable by the
/// traversers must provide, for S = const SpatialNode<Data>& and
/// T = SpatialNode<Data>&:
///   bool open(S source, T target)  — descend under source for target?
///   void node(S source, T target)  — source pruned: consume its summary
///   void leaf(S source, T target)  — source is an opened leaf
/// These are resolved statically (class template), so the compiler inlines
/// them into the traversal loops — the paper's "performance with
/// generality" technique. Under EvalKernel::kBatched the node()/leaf()
/// consequences are recorded as per-bucket interaction lists instead and
/// drained as buckets seal (or after the walk, BatchDrain::kBarrier),
/// through the visitor's terms when it has them; see core/batch_eval.hpp.

/// Type-erased base so the Driver can keep heterogeneous traversers alive
/// until the iteration drains.
class TraverserBase {
 public:
  virtual ~TraverserBase() = default;

  /// Called once per Partition after the walk reaches quiescence. With
  /// the overlapped batched drain this only drains stragglers and flushes
  /// counters; the default is a no-op so traversers without a deferred
  /// phase need nothing.
  virtual void finish() {}
};

/// How a top-down traversal iterates (Fig 10's ablation):
enum class TraversalStyle {
  /// GPU-style loop transposition: each tree node is processed against
  /// every target bucket before moving on — the locality-enhancing order
  /// ParaTreeT uses on CPUs.
  kTransposed,
  /// Classic depth-first walk of the whole tree once per bucket
  /// (the paper's "BasicTrav" baseline).
  kPerBucket,
};

/// List of target bucket indices a traversal frontier carries.
using TargetList = SmallVector<std::uint32_t, 8>;

/// Accumulates the enclosing scope's wall time into a Partition's
/// measured load. Construct *after* taking the partition's run_mutex so
/// lock waiting is not billed as work.
template <typename Data>
class LoadScope {
 public:
  explicit LoadScope(Partition<Data>& partition) : partition_(partition) {}
  ~LoadScope() { partition_.measured_load += timer_.seconds(); }

 private:
  Partition<Data>& partition_;
  WallTimer timer_;
};

/// The one pause-and-resume path of every traverser. The walk stopped at
/// remote placeholder `ph`, and `walk(node)` continues it at a node.
///  - kPerThread, with the node already in this worker's private cache:
///    `walk` runs at once, as part of the current unit.
///  - Otherwise `pause()` runs, still inside the pausing unit, and returns
///    the continuation to resume. The cache requests the node; the resumed
///    task takes the Partition's run_mutex, a LoadScope and the
///    kRemoteTraversal scope, then calls the continuation with the
///    published node (CacheManager::requestThenResume finds it).
/// A recording traverser defers its buckets in `pause()` and returns a
/// continuation that retires them; the others resume `walk` itself.
/// Kept out of line: pauses are rare, and inlined into a recursive walk
/// this cold path would enlarge every frame of the hot loop.
template <typename Data, typename Walk, typename Pause>
[[gnu::noinline]] void pauseAt(Node<Data>* ph, CacheManager<Data>& cache,
                               Partition<Data>& partition,
                               rts::ActivityProfiler* profiler, Walk&& walk,
                               Pause&& pause) {
  const int slot = rts::Runtime::currentWorker();
  if (cache.options().model == CacheModel::kPerThread) {
    if (Node<Data>* priv = cache.resolvePrivate(ph, slot)) {
      walk(priv);
      return;
    }
  }
  cache.requestThenResume(
      ph,
      [&partition, profiler, next = pause()](Node<Data>* fresh) mutable {
        rts::ActivityScope scope(profiler, rts::Activity::kRemoteTraversal);
        std::lock_guard run(partition.run_mutex);
        LoadScope<Data> load(partition);
        next(fresh);
      },
      slot);
}

/// pauseAt for a walk with no per-unit accounting (Priority, DualTree):
/// the resumed task runs `walk` itself.
template <typename Data, typename Walk>
void pauseAt(Node<Data>* ph, CacheManager<Data>& cache,
             Partition<Data>& partition, rts::ActivityProfiler* profiler,
             Walk walk) {
  pauseAt(ph, cache, partition, profiler, walk,
          [&walk] { return std::move(walk); });
}

/// State shared by the single-tree traversers: the interaction-list
/// recorder, the per-bucket seal accounting that drives the overlapped
/// drain, the pp/pn interaction counters, and their flush into the
/// metrics registry. Everything here is touched only under the owning
/// Partition's run_mutex (drain tasks take it themselves), so the seal
/// counters are plain ints.
///
/// Seal protocol: prepare() gives every bucket one outstanding unit (its
/// seed walk). A pause adds one unit per deferred bucket *before* the
/// pausing walk returns, and every unit (seed or resumed continuation)
/// retires its buckets when it completes — so a bucket's count hits zero
/// exactly when its last branch, including every paused-and-resumed
/// remote subtree, has recorded. Sealed buckets are queued and, in
/// BatchDrain::kOverlap, drained by a worker task while other buckets
/// still walk; the task is enqueued before its scheduling unit retires,
/// so the runtime's quiescence detection waits for it like any walk task.
template <typename Data, typename Visitor>
class InteractionRecorder {
 public:
  InteractionRecorder(Partition<Data>& partition, Visitor& visitor,
                      EvalKernel kernel, BatchDrain drain, rts::Runtime& rt,
                      Instrumentation instr)
      : partition_(partition), visitor_(visitor), kernel_(kernel),
        drain_(drain), rt_(rt), instr_(instr) {}

  bool batched() const { return kernel_ == EvalKernel::kBatched; }

  /// Accumulates enclosing-scope wall time into the record phase (the
  /// walk side of the record/drain breakdown, published as the
  /// kernel.record_phase span). No-op for kVisitor or without a trace.
  class RecordScope {
   public:
    explicit RecordScope(InteractionRecorder& r) : r_(r) {
      if (r_.batched() && r_.instr_.trace != nullptr) timer_.emplace();
    }
    ~RecordScope() {
      if (timer_) r_.record_seconds_ += timer_->seconds();
    }

   private:
    InteractionRecorder& r_;
    std::optional<WallTimer> timer_;
  };

  /// Reset the per-traversal state; call once the buckets are known (seed
  /// task), before any interaction lands. Lists/arena/scratch live on the
  /// Partition so their capacity persists across iterations.
  void prepare() {
    if (!batched()) return;
    const std::size_t nb = partition_.buckets.size();
    partition_.interaction_lists.resize(nb);
    for (auto& list : partition_.interaction_lists) list.clear();
    partition_.interaction_arena.clear();
    partition_.batch_scratch.resetPools();
    outstanding_.assign(nb, 1u);
    drained_.assign(nb, 0);
    sealed_ready_.clear();
    drain_scheduled_ = false;
    sealed_early_ = 0;
    record_seconds_ = 0.0;
    evaluator_.emplace(visitor_, partition_.batch_scratch,
                       partition_.interaction_arena);
  }

  /// Source pruned against bucket `t`: consume its summary now (visitor
  /// kernel) or append it to the bucket's node-approximation list.
  void interactNode(const Node<Data>& node, const SpatialNode<Data>& src,
                    SpatialNode<Data>& tgt, std::uint32_t t) {
    pn_count_ += static_cast<std::uint64_t>(tgt.n_particles);
    if (batched()) {
      if constexpr (recordsNodeInteractions<Visitor>()) {
        partition_.interaction_lists[t].addNode(
            partition_.interaction_arena.intern(node));
      }
    } else {
      visitor_.node(src, tgt);
    }
  }

  /// Source is an opened leaf for bucket `t`: evaluate the pair now or
  /// append the source span to the bucket's direct list.
  void interactLeaf(const Node<Data>& node, const SpatialNode<Data>& src,
                    SpatialNode<Data>& tgt, std::uint32_t t) {
    pp_count_ += static_cast<std::uint64_t>(node.n_particles) *
                 static_cast<std::uint64_t>(tgt.n_particles);
    if (batched()) {
      partition_.interaction_lists[t].addLeaf(
          partition_.interaction_arena.intern(node), node.n_particles);
    } else {
      visitor_.leaf(src, tgt);
    }
  }

  /// A pausing walk hands these buckets to a resume continuation; called
  /// before the pausing unit returns, so the counts never transiently
  /// reach zero while a branch is still pending.
  void deferTargets(const TargetList& keep) {
    if (!batched()) return;
    for (const std::uint32_t t : keep) ++outstanding_[t];
  }
  void deferTarget(std::uint32_t b) {
    if (!batched()) return;
    ++outstanding_[b];
  }

  /// A unit (seed walk or resumed continuation) completed for these
  /// buckets; buckets whose last unit retires are sealed and scheduled.
  void retireTargets(const TargetList& done) {
    if (!batched()) return;
    for (const std::uint32_t t : done) retireOne(t);
    maybeScheduleDrain();
  }
  void retireTarget(std::uint32_t b) {
    if (!batched()) return;
    retireOne(b);
    maybeScheduleDrain();
  }
  void retireAll() {
    if (!batched()) return;
    for (std::uint32_t b = 0; b < outstanding_.size(); ++b) retireOne(b);
    maybeScheduleDrain();
  }

  /// The post-quiescence phase: drain whatever did not seal early (all
  /// buckets under BatchDrain::kBarrier), then publish the kernel-phase
  /// spans and the seal and interaction counters. Caller holds the
  /// run_mutex.
  void finish() {
    if (batched() && !partition_.interaction_lists.empty()) {
      rts::ActivityScope scope(instr_.profiler, rts::Activity::kLocalTraversal);
      LoadScope<Data> load(partition_);
      obs::TraceSpan span(instr_.trace, "kernel.batch_eval", "kernel");
      for (std::uint32_t b = 0; b < drained_.size(); ++b) {
        if (drained_[b] == 0) drainBucket(b);
      }
      emitKernelPhases(evaluator_->totals());
    }
    flushCounters();
  }

 private:
  void retireOne(std::uint32_t b) {
    assert(outstanding_[b] > 0);
    if (--outstanding_[b] == 0) sealed_ready_.push_back(b);
  }

  /// Schedule one drain task on the home process (at most one in flight
  /// per Partition). Runs at unit-retire time, so the task lands on the
  /// queue before the enclosing walk task returns — quiescence waits for
  /// it.
  void maybeScheduleDrain() {
    if (drain_ != BatchDrain::kOverlap || drain_scheduled_ ||
        sealed_ready_.empty()) {
      return;
    }
    drain_scheduled_ = true;
    rt_.enqueue(partition_.home_proc, [this] { drainSealed(); });
  }

  /// The overlapped drain task: evaluate every sealed bucket queued so
  /// far. Uses try_lock + re-enqueue instead of blocking so a worker is
  /// never parked behind a long walk of the same Partition — the retry
  /// goes to the back of the queue and other tasks keep flowing.
  void drainSealed() {
    std::unique_lock run(partition_.run_mutex, std::try_to_lock);
    if (!run.owns_lock()) {
      rt_.enqueue(partition_.home_proc, [this] { drainSealed(); });
      return;
    }
    rts::ActivityScope scope(instr_.profiler, rts::Activity::kLocalTraversal);
    LoadScope<Data> load(partition_);
    obs::TraceSpan span(instr_.trace, "kernel.drain_overlap", "kernel");
    while (!sealed_ready_.empty()) {
      const std::uint32_t b = sealed_ready_.back();
      sealed_ready_.pop_back();
      drainBucket(b);
      ++sealed_early_;
    }
    drain_scheduled_ = false;
  }

  void drainBucket(std::uint32_t b) {
    if (drained_[b] != 0) return;
    drained_[b] = 1;
    evaluator_->evaluate(partition_.interaction_lists[b],
                         partition_.buckets[b].view());
    partition_.interaction_lists[b].clear();
  }

  void emitKernelPhases(
      const typename BatchEvaluator<Data, Visitor>::Totals& totals) {
    if (instr_.metrics != nullptr) {
      instr_.metrics->counter("kernel.sealed_early").add(sealed_early_);
      instr_.metrics->counter("kernel.sealed_total").add(drained_.size());
    }
    if (instr_.trace != nullptr) {
      // Aggregate per-phase events (one per Partition) so the kernel
      // phases show up under the enclosing kernel.batch_eval span.
      const auto now = std::chrono::steady_clock::now();
      auto emit = [&](const char* name, double seconds) {
        if (seconds <= 0.0) return;
        const auto ns = static_cast<std::int64_t>(seconds * 1e9);
        obs::TraceEvent ev;
        ev.name = name;
        ev.category = "kernel";
        ev.duration_us = ns / 1000;
        ev.start_us = instr_.trace->sinceOriginUs(now) - ev.duration_us;
        instr_.trace->record(ev, ns);
      };
      emit("kernel.node_phase", totals.node_seconds);
      emit("kernel.leaf_phase", totals.leaf_seconds);
      emit("kernel.replay_phase", totals.replay_seconds);
      emit("kernel.record_phase", record_seconds_);
    }
  }

  void flushCounters() {
    if (instr_.metrics == nullptr || (pp_count_ == 0 && pn_count_ == 0)) {
      pp_count_ = pn_count_ = 0;
      return;
    }
    instr_.metrics->counter("traversal.interactions.pp").add(pp_count_);
    instr_.metrics->counter("traversal.interactions.pn").add(pn_count_);
    pp_count_ = pn_count_ = 0;
  }

  Partition<Data>& partition_;
  Visitor& visitor_;
  EvalKernel kernel_;
  BatchDrain drain_;
  rts::Runtime& rt_;
  Instrumentation instr_;
  std::uint64_t pp_count_{0};  ///< particle-particle interactions decided
  std::uint64_t pn_count_{0};  ///< particle-node interactions decided

  // Seal/drain state (all under run_mutex; see class comment).
  std::vector<std::uint32_t> outstanding_;  ///< per-bucket pending units
  std::vector<std::uint8_t> drained_;       ///< per-bucket already evaluated
  std::vector<std::uint32_t> sealed_ready_; ///< sealed, awaiting a drain task
  bool drain_scheduled_{false};
  std::uint64_t sealed_early_{0};
  double record_seconds_{0.0};  ///< RecordScope total (traced runs only)
  std::optional<BatchEvaluator<Data, Visitor>> evaluator_;
};

/// The top-down traverser: starts at the global root and walks depth
/// first onto unpruned children. Remote nodes pause the affected targets
/// and the traversal continues elsewhere; the cache resumes them when the
/// data lands (relaxed depth-first order, as in the paper).
template <typename Data, typename Visitor>
class TopDownTraverser final : public TraverserBase {
 public:
  TopDownTraverser(Partition<Data>& partition, CacheManager<Data>& cache,
                   rts::Runtime& rt, Visitor visitor = {},
                   TraversalStyle style = TraversalStyle::kTransposed,
                   EvalKernel kernel = EvalKernel::kVisitor,
                   BatchDrain drain = BatchDrain::kOverlap,
                   Instrumentation instr = {})
      : partition_(partition), cache_(cache), visitor_(std::move(visitor)),
        style_(style), instr_(instr),
        recorder_(partition, visitor_, kernel, drain, rt, instr) {}

  /// Seed the traversal; must run on a worker of the partition's process.
  void start() {
    rts::ActivityScope scope(instr_.profiler, rts::Activity::kLocalTraversal);
    std::lock_guard run(partition_.run_mutex);
    LoadScope<Data> load(partition_);
    recorder_.prepare();
    typename Recorder::RecordScope rec(recorder_);
    Node<Data>* root = cache_.root();
    if (style_ == TraversalStyle::kTransposed) {
      TargetList all;
      all.reserve(partition_.buckets.size());
      for (std::uint32_t b = 0; b < partition_.buckets.size(); ++b) {
        all.push_back(b);
      }
      dfs(root, all);
      recorder_.retireAll();
    } else {
      for (std::uint32_t b = 0; b < partition_.buckets.size(); ++b) {
        TargetList one;
        one.push_back(b);
        dfs(root, one);
        // The bucket seals here unless a pause deferred it — so with the
        // overlapped drain, earlier buckets evaluate while later buckets
        // are still walking even on a fully local tree.
        recorder_.retireTarget(b);
      }
    }
  }

  /// Drain whatever did not seal early (batched kernel) and flush the
  /// interaction counters. The Forest calls this after quiescence, so
  /// every paused-and-resumed branch has already recorded.
  void finish() override {
    std::lock_guard run(partition_.run_mutex);
    recorder_.finish();
  }

 private:
  using Recorder = InteractionRecorder<Data, Visitor>;

  void dfs(Node<Data>* node, const TargetList& targets) {
    if (node == nullptr || node->type == NodeType::kEmptyLeaf) return;
    const SpatialNode<Data> src = SpatialNode<Data>::of(*node);
    TargetList& keep = scratchAt(node->depth);
    keep.clear();
    keep.reserve(targets.size());
    for (std::uint32_t t : targets) {
      auto tgt = partition_.buckets[t].view();
      if (visitor_.open(src, tgt)) keep.push_back(t);
      else recorder_.interactNode(*node, src, tgt, t);
    }
    if (keep.empty()) return;
    switch (node->type) {
      case NodeType::kLeaf:
        for (std::uint32_t t : keep) {
          auto tgt = partition_.buckets[t].view();
          recorder_.interactLeaf(*node, src, tgt, t);
        }
        return;
      case NodeType::kInternal:
      case NodeType::kBoundary:
        for (int c = 0; c < node->n_children; ++c) {
          dfs(node->child(c), keep);
        }
        return;
      case NodeType::kRemote:
      case NodeType::kRemoteLeaf:
        pause(node, std::move(keep));
        return;
      case NodeType::kEmptyLeaf:
        return;
    }
  }

  /// Per-depth scratch TargetList: a dfs step at depth d filters into
  /// slot d while its children reuse slot d+1, so the frontier no longer
  /// allocates one list per recursion step. Deque for reference
  /// stability — growing a deeper slot must not move slot d out from
  /// under the recursion that still reads it.
  TargetList& scratchAt(int depth) {
    assert(depth >= 0);
    while (static_cast<std::size_t>(depth) >= scratch_.size()) {
      scratch_.emplace_back();
    }
    return scratch_[static_cast<std::size_t>(depth)];
  }

  /// Defer `keep` until the placeholder's region is cached. The resume
  /// re-enters dfs at the published node; open() is re-evaluated there,
  /// which is safe because pruning predicates are either pure geometry or
  /// shrink monotonically (kNN). Moving out of the depth-scratch slot
  /// leaves it valid-empty for the next step. The deferred buckets gain
  /// an outstanding unit before this walk returns and the resume retires
  /// them — the seal accounting for the overlapped drain.
  void pause(Node<Data>* ph, TargetList keep) {
    pauseAt(
        ph, cache_, partition_, instr_.profiler,
        [&](Node<Data>* priv) { dfs(priv, keep); },
        [&] {
          recorder_.deferTargets(keep);
          return [this, keep = std::move(keep)](Node<Data>* fresh) {
            typename Recorder::RecordScope rec(recorder_);
            dfs(fresh, keep);
            recorder_.retireTargets(keep);
          };
        });
  }

  Partition<Data>& partition_;
  CacheManager<Data>& cache_;
  Visitor visitor_;
  TraversalStyle style_;
  Instrumentation instr_;
  Recorder recorder_;
  std::deque<TargetList> scratch_;  ///< per-depth frontier scratch
};

/// The up-and-down traverser (paper Section II.A.2): per target bucket,
/// locate the bucket's own leaf in the global tree, then climb the path
/// back to the root, traversing each sibling subtree top-down. Reserved
/// for pruning criteria that tighten during traversal (k-nearest
/// neighbours): visiting near regions first shrinks the search ball
/// before far regions are considered.
///
/// Under EvalKernel::kBatched the leaves are recorded instead of
/// evaluated, so a criterion that tightens via leaf() (kNN) never shrinks
/// during the walk: results stay correct, but the traversal records every
/// candidate the *initial* ball admits — use the batched kernel here only
/// for fixed-radius searches.
///
/// The seed walk runs in slices of kSeedSlice buckets, one task each. The
/// runtime's ready queue is FIFO, so a whole-Partition walk in one task
/// would hold back every cache request and fill queued behind it, and each
/// later bucket would park on the same in-flight placeholders. Between
/// slices those requests and fills run, and later buckets mostly find
/// their remote nodes already published.
template <typename Data, typename Visitor>
class UpAndDownTraverser final : public TraverserBase {
 public:
  /// Buckets walked per seed task.
  static constexpr std::uint32_t kSeedSlice = 16;

  UpAndDownTraverser(Partition<Data>& partition, CacheManager<Data>& cache,
                     rts::Runtime& rt, Visitor visitor = {},
                     EvalKernel kernel = EvalKernel::kVisitor,
                     BatchDrain drain = BatchDrain::kOverlap,
                     Instrumentation instr = {})
      : partition_(partition), cache_(cache), rt_(rt),
        visitor_(std::move(visitor)), instr_(instr),
        recorder_(partition, visitor_, kernel, drain, rt, instr) {}

  void start() { seedSlice(0); }

  void finish() override {
    std::lock_guard run(partition_.run_mutex);
    recorder_.finish();
  }

 private:
  using Recorder = InteractionRecorder<Data, Visitor>;
  using Path = SmallVector<Node<Data>*, 24>;

  /// Walk buckets [first, first + kSeedSlice), then enqueue the next slice
  /// on the home process. The first slice also prepares the recorder. The
  /// next slice is enqueued before this task returns, so quiescence waits
  /// for it, and it captures `this` like a resume continuation does.
  void seedSlice(std::uint32_t first) {
    rts::ActivityScope scope(instr_.profiler, rts::Activity::kLocalTraversal);
    const auto n = static_cast<std::uint32_t>(partition_.buckets.size());
    const std::uint32_t end = std::min(n, first + kSeedSlice);
    {
      std::lock_guard run(partition_.run_mutex);
      LoadScope<Data> load(partition_);
      if (first == 0) recorder_.prepare();
      typename Recorder::RecordScope rec(recorder_);
      for (std::uint32_t b = first; b < end; ++b) {
        descend(cache_.root(), b, /*path=*/{});
        // Any pause along b's walk deferred the bucket before descend
        // returned, so this retire only seals b once every branch is home.
        recorder_.retireTarget(b);
      }
    }
    if (end < n) {
      rt_.enqueue(partition_.home_proc, [this, end] { seedSlice(end); });
    }
  }

  int bitsPerLevel() const { return cache_.options().bits_per_level; }

  /// Phase A: walk from `node` down towards the bucket's own leaf,
  /// recording the path.
  void descend(Node<Data>* node, std::uint32_t b, Path path) {
    const Key leaf_key = partition_.buckets[b].leaf_key;
    while (true) {
      if (node->placeholder()) {
        pauseOn(node, b, [this, b, path = std::move(path)](
                             Node<Data>* fresh) mutable {
          descend(fresh, b, std::move(path));
        });
        return;
      }
      path.push_back(node);
      if (node->leaf() || node->key == leaf_key) break;
      const int bits = bitsPerLevel();
      const int rel = (keys::level(leaf_key, bits) - node->depth - 1) * bits;
      assert(rel >= 0);
      const auto c = static_cast<int>((leaf_key >> rel) &
                                      ((Key{1} << bits) - 1));
      assert(c < node->n_children);
      node = node->child(c);
    }
    ascend(b, std::move(path));
  }

  /// Phase B: process the own leaf, then each ancestor's other children.
  void ascend(std::uint32_t b, Path path) {
    Node<Data>* own = path.back();
    // Nearest data first: the bucket's own leaf.
    dfsSingle(own, b);
    // Skip the branch we came from by key: under kPerThread the path may
    // hold a private copy while the ancestor still links the placeholder.
    for (std::size_t i = path.size(); i-- > 1;) {
      const Key came_from = path[i]->key;
      Node<Data>* ancestor = path[i - 1];
      for (int c = 0; c < ancestor->n_children; ++c) {
        Node<Data>* child = ancestor->child(c);
        if (child != nullptr && child->key != came_from) dfsSingle(child, b);
      }
    }
  }

  /// A single-target top-down walk under `node`.
  void dfsSingle(Node<Data>* node, std::uint32_t b) {
    if (node == nullptr || node->type == NodeType::kEmptyLeaf) return;
    const SpatialNode<Data> src = SpatialNode<Data>::of(*node);
    auto tgt = partition_.buckets[b].view();
    if (!visitor_.open(src, tgt)) {
      recorder_.interactNode(*node, src, tgt, b);
      return;
    }
    switch (node->type) {
      case NodeType::kLeaf:
        recorder_.interactLeaf(*node, src, tgt, b);
        return;
      case NodeType::kInternal:
      case NodeType::kBoundary:
        for (int c = 0; c < node->n_children; ++c) dfsSingle(node->child(c), b);
        return;
      case NodeType::kRemote:
      case NodeType::kRemoteLeaf:
        pauseOn(node, b, [this, b](Node<Data>* fresh) { dfsSingle(fresh, b); });
        return;
      case NodeType::kEmptyLeaf:
        return;
    }
  }

  /// Pause bucket `b`'s walk at `ph` and continue with `walk` at the
  /// published node. Defers `b` for the seal accounting; the resumed unit
  /// retires it after `walk` (which may itself pause and defer again).
  template <typename Walk>
  void pauseOn(Node<Data>* ph, std::uint32_t b, Walk walk) {
    pauseAt(ph, cache_, partition_, instr_.profiler, walk, [&] {
      recorder_.deferTarget(b);
      return [this, b, walk = std::move(walk)](Node<Data>* fresh) mutable {
        typename Recorder::RecordScope rec(recorder_);
        walk(fresh);
        recorder_.retireTarget(b);
      };
    });
  }

  Partition<Data>& partition_;
  CacheManager<Data>& cache_;
  rts::Runtime& rt_;
  Visitor visitor_;
  Instrumentation instr_;
  Recorder recorder_;
};

}  // namespace paratreet
