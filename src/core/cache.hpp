#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cassert>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/serialization.hpp"
#include "observability/instrumentation.hpp"
#include "rts/profiler.hpp"
#include "rts/runtime.hpp"
#include "tree/arena.hpp"
#include "tree/node.hpp"

namespace paratreet {

/// Compare keys by their position along the tree's space-filling order,
/// ancestors before descendants. Used to lay out subtree-root records so
/// each upper-tree branch owns a contiguous range.
inline bool pathLess(Key a, Key b, int bits_per_level) {
  const int la = keys::level(a, bits_per_level);
  const int lb = keys::level(b, bits_per_level);
  Key aa = a, bb = b;
  if (la < lb) bb >>= (lb - la) * bits_per_level;
  else aa >>= (la - lb) * bits_per_level;
  if (aa != bb) return aa < bb;
  return la < lb;
}

/// Per-process software cache of the global tree (paper Section II.B).
///
/// The cache is a *single tree per process*: replicated upper ("branch")
/// nodes, links to the local Subtrees' roots, and placeholders for remote
/// regions. A traversal that reaches an unfetched placeholder registers a
/// continuation and moves on; the home process ships the region
/// (`fetch_depth` levels plus leaf particles), and the receiving worker
/// wires it up and publishes it according to the configured CacheModel:
///
///  - kWaitFree        — nodes are built privately, then published with one
///                       release-store of the parent's child link; readers
///                       never block and writers never lock (the paper's
///                       contribution).
///  - kXWrite          — identical, but every insertion holds the process
///                       lock ("exclusive write").
///  - kSingleInserter  — insertions are funneled through one worker at a
///                       time via a serial queue.
///  - kPerThread       — every worker keeps a private cache; nothing is
///                       shared, so each worker re-fetches remote data
///                       (the Fig 3 "Sequential" model: more communication
///                       volume and memory, no write contention).
///
/// All models produce identical traversal results; they differ only in
/// synchronization and communication behaviour.
///
/// Every cache event (miss, fill, received byte, pause, lock wait, ...)
/// is counted once, in the `cache.*` counters of the metrics registry in
/// Options::instr. The cache keeps no counts of its own: with no registry
/// attached nothing is counted, and reset() leaves the counters alone, so
/// they are cumulative over the registry's lifetime (use a fresh
/// registry, a delta or MetricsRegistry::resetAll() for one iteration).
template <typename Data>
class CacheManager {
 public:
  struct Options {
    CacheModel model = CacheModel::kWaitFree;
    int fetch_depth = 3;
    int bits_per_level = 3;
    /// Failed fills (injected fetch faults) are re-requested this many
    /// times before degrading to a synchronous direct read of the owning
    /// subtree; wired from the runtime's FaultConfig by Forest::build().
    int max_fetch_retries = 3;
    /// Sinks for activity profiling, metrics, and tracing (all optional).
    Instrumentation instr{};
  };

  void init(rts::Runtime* rt, int proc, const Options& opts,
            std::deque<CacheManager>* all_caches) {
    rt_ = rt;
    proc_ = proc;
    opts_ = opts;
    all_caches_ = all_caches;
    worker_caches_.clear();
    if (opts_.model == CacheModel::kPerThread) {
      worker_caches_.resize(static_cast<std::size_t>(rt->workersPerProc()));
      for (auto& wc : worker_caches_) wc = std::make_unique<WorkerCache>();
    }
    // Pre-register the cache's instruments so every hot-path update is a
    // plain Counter::add (wait-free) with no registry lookup. Instruments
    // are process-global in the registry: all CacheManagers of a run sum
    // into the same counters, which is what a scrape wants.
    metrics_ = Metrics{};
    if (opts_.instr.metrics != nullptr) {
      auto& reg = *opts_.instr.metrics;
      metrics_.hits = &reg.counter("cache.hits");
      metrics_.misses = &reg.counter("cache.misses");
      metrics_.shared_waits = &reg.counter("cache.shared_waits");
      metrics_.requests_served = &reg.counter("cache.requests_served");
      metrics_.fills = &reg.counter("cache.fills");
      metrics_.nodes_inserted = &reg.counter("cache.nodes_inserted");
      metrics_.bytes_received = &reg.counter("cache.bytes_received");
      metrics_.pauses = &reg.counter("cache.pauses");
      metrics_.preloaded_nodes = &reg.counter("cache.preloaded_nodes");
      metrics_.lock_wait_ns = &reg.counter("cache.lock_wait_ns");
      metrics_.fetch_retries = &reg.counter("cache.fetch_retries");
      metrics_.degraded_reads = &reg.counter("cache.degraded_reads");
      metrics_.fill_rtt_us = &reg.histogram(
          "cache.fill_rtt_us", obs::exponentialBounds(1.0, 2.0, 22));
    }
  }

  int proc() const { return proc_; }
  const Options& options() const { return opts_; }

  // --- build phase ----------------------------------------------------------

  /// Drop all cached state; called at each tree build.
  void reset() {
    arena_.clear();
    blocks_.clear();
    local_roots_.clear();
    root_.store(nullptr, std::memory_order_relaxed);
    for (auto& wc : worker_caches_) {
      std::lock_guard lock(wc->mutex);
      wc->entries.clear();
      wc->blocks.clear();
    }
  }

  /// Register a local Subtree's root (Fig 2 bottom-left hash table). Uses
  /// a lock for these build-time inserts; the table is read-only during
  /// traversal.
  void insertLocalRoot(Key key, Node<Data>* subtree_root) {
    std::lock_guard lock(local_roots_mutex_);
    local_roots_.emplace(key, subtree_root);
  }

  /// Assemble the replicated upper tree from all Subtrees' root records.
  /// Local roots link to the real local nodes; remote roots become
  /// placeholders carrying the broadcast summary Data.
  void buildUpperTree(std::vector<RootRecord<Data>> roots,
                      const OrientedBox& universe) {
    std::sort(roots.begin(), roots.end(),
              [this](const RootRecord<Data>& a, const RootRecord<Data>& b) {
                return pathLess(a.key, b.key, opts_.bits_per_level);
              });
    root_.store(buildUpper(std::span<const RootRecord<Data>>(roots),
                           keys::kRoot, 0, universe),
                std::memory_order_release);
  }

  Node<Data>* root() const { return root_.load(std::memory_order_acquire); }

  /// The node for `key` in this process's local subtrees (exact match on
  /// a subtree root, or a descent from one). Returns nullptr when the key
  /// is not homed here.
  Node<Data>* localNode(Key key) const {
    // Walk up the key's ancestors until one matches a local subtree root.
    Key ancestor = key;
    int steps = 0;
    while (true) {
      auto it = local_roots_.find(ancestor);
      if (it != local_roots_.end()) {
        // Descend back down following the key's path bits.
        Node<Data>* n = it->second;
        for (int s = steps - 1; s >= 0; --s) {
          if (n == nullptr || n->leaf() || n->placeholder()) return nullptr;
          const auto slot = static_cast<int>(
              (key >> (s * opts_.bits_per_level)) &
              ((Key{1} << opts_.bits_per_level) - 1));
          if (slot >= n->n_children) return nullptr;
          n = n->child(slot);
        }
        return n;
      }
      if (ancestor <= keys::kRoot) return nullptr;
      ancestor >>= opts_.bits_per_level;
      ++steps;
    }
  }

  // --- traversal phase --------------------------------------------------------

  /// Resolve a placeholder through the calling worker's private cache
  /// (kPerThread only). Returns the fetched copy or nullptr if absent.
  Node<Data>* resolvePrivate(const Node<Data>* placeholder, int worker_slot) {
    assert(opts_.model == CacheModel::kPerThread);
    auto& wc = *worker_caches_[static_cast<std::size_t>(worker_slot)];
    std::lock_guard lock(wc.mutex);
    auto it = wc.entries.find(placeholder->key);
    return it != wc.entries.end() && it->second.filled ? it->second.node
                                                       : nullptr;
  }

  /// Locate an upper-tree node by key (descending from the root along
  /// the key's path bits). Returns nullptr when the key is not on this
  /// process's replicated upper levels.
  Node<Data>* findUpperNode(Key key) {
    const int bits = opts_.bits_per_level;
    const int target_level = keys::level(key, bits);
    Node<Data>* n = root();
    while (n != nullptr && n->depth < target_level && !n->leaf() &&
           !n->placeholder()) {
      const int rel = (target_level - n->depth - 1) * bits;
      const auto slot =
          static_cast<int>((key >> rel) & ((Key{1} << bits) - 1));
      if (slot >= n->n_children) return nullptr;
      n = n->child(slot);
    }
    return n != nullptr && n->key == key ? n : nullptr;
  }

  /// Build-phase insertion of a proactively shared region (the paper's
  /// "number of branch nodes shared across all processors" knob): the
  /// region replaces its placeholder exactly like a cache fill, but is
  /// accounted separately from traversal-time fetches.
  void preload(const ResponseBlock<Data>& block) {
    Node<Data>* ph = findUpperNode(block.requested);
    if (ph == nullptr || !ph->placeholder()) return;
    bump(metrics_.preloaded_nodes, block.records.size());
    insertShared(block, ph);
  }

  /// Pause a traversal on unfetched placeholder `ph`: fire the fetch if
  /// this is the first request, and once the data is published run
  /// `resume(node)` as a fresh task on this process, `node` being the
  /// published replacement of `ph` (see published()). If the data arrived
  /// concurrently, the task is enqueued immediately. `resume` becomes
  /// part of that one task, so a pause allocates no more than the task
  /// and the waiter that parks it.
  template <typename Resume>
  void requestThenResume(Node<Data>* ph, Resume resume, int worker_slot) {
    rts::ActivityScope scope(opts_.instr.profiler, rts::Activity::kCacheRequest);
    bump(metrics_.pauses);
    rts::Task task = [this, ph, worker_slot,
                      resume = std::move(resume)]() mutable {
      resume(published(ph, worker_slot));
    };
    if (opts_.model == CacheModel::kPerThread) {
      requestPerThread(ph, std::move(task), worker_slot);
      return;
    }
    const bool first = !ph->requested.exchange(true, std::memory_order_acq_rel);
    if (first) sendRequest(ph, worker_slot);
    else bump(metrics_.shared_waits);
    auto* w = new Waiter{nullptr, std::move(task)};
    if (!ph->addWaiter(w)) {
      // Already published: the parent's child link holds the fresh node.
      bump(metrics_.hits);
      rt_->enqueue(proc_, std::move(w->resume));
      delete w;
    }
  }

  /// Sum of private-cache node copies (kPerThread memory footprint).
  /// Safe to poll mid-traversal: concurrent fills push into blocks_ under
  /// blocks_mutex_, so the read takes it too.
  std::size_t cachedNodeCount() const {
    std::size_t n = arena_.size();
    {
      std::lock_guard lock(blocks_mutex_);
      for (const auto& b : blocks_) n += b->nodes.size();
    }
    for (const auto& wc : worker_caches_) {
      std::lock_guard lock(wc->mutex);
      for (const auto& b : wc->blocks) n += b->nodes.size();
    }
    return n;
  }

 private:
  struct NodeBlock {
    std::deque<Node<Data>> nodes;
    std::vector<Particle> particles;
  };

  /// Pre-registered registry instruments; null pointers when no registry
  /// is attached (see init()). These are the cache's only counts.
  struct Metrics {
    obs::Counter* hits = nullptr;          ///< request found data published
    obs::Counter* misses = nullptr;        ///< requests that fetched (sent)
    obs::Counter* shared_waits = nullptr;  ///< piggybacked on in-flight fetch
    obs::Counter* requests_served = nullptr;
    obs::Counter* fills = nullptr;         ///< responses inserted
    obs::Counter* nodes_inserted = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* pauses = nullptr;        ///< continuations deferred
    /// Nodes replicated during the build by the share_levels knob.
    obs::Counter* preloaded_nodes = nullptr;
    /// Time spent acquiring insertion locks (kXWrite / kSingleInserter);
    /// stays zero for the wait-free model.
    obs::Counter* lock_wait_ns = nullptr;
    /// Re-requests after an injected fetch failure.
    obs::Counter* fetch_retries = nullptr;
    /// Fills that exhausted their retry budget and fell back to a
    /// synchronous direct read of the owning subtree.
    obs::Counter* degraded_reads = nullptr;
    /// Microseconds from a fill's first request to its response, retries
    /// and a degraded read included.
    obs::Histogram* fill_rtt_us = nullptr;
  };

  /// One logical fill across its retries. One id spans all attempts, so
  /// the injector's fail/serve decision is per (fetch, attempt); `sent` is
  /// when attempt 0 left (set only when fill_rtt_us is registered).
  struct Fetch {
    std::uint64_t id = 0;
    int attempt = 0;
    std::chrono::steady_clock::time_point sent{};
  };

  static void bump(obs::Counter* c, std::uint64_t delta = 1) {
    if (c != nullptr) c->add(delta);
  }

  /// The node that replaced placeholder `ph` once its fill was published:
  /// the requesting worker's private copy under kPerThread, otherwise the
  /// parent's child with the placeholder's key, or the root.
  Node<Data>* published(const Node<Data>* ph, int worker_slot) {
    rts::ActivityScope scope(opts_.instr.profiler,
                             rts::Activity::kTraversalResumption);
    Node<Data>* fresh = opts_.model == CacheModel::kPerThread
                            ? resolvePrivate(ph, worker_slot)
                        : ph->parent != nullptr
                            ? findChildByKey(ph->parent, ph->key)
                            : root();
    assert(fresh != nullptr && !fresh->placeholder());
    return fresh;
  }

  static Node<Data>* findChildByKey(const Node<Data>* parent, Key key) {
    for (int c = 0; c < parent->n_children; ++c) {
      Node<Data>* child = parent->child(c);
      if (child != nullptr && child->key == key) return child;
    }
    return nullptr;
  }

  struct WorkerEntry {
    bool filled = false;
    Node<Data>* node = nullptr;
    std::vector<rts::Task> waiters;
  };

  struct WorkerCache {
    mutable std::mutex mutex;
    std::unordered_map<Key, WorkerEntry> entries;
    std::vector<std::unique_ptr<NodeBlock>> blocks;
  };

  Node<Data>* buildUpper(std::span<const RootRecord<Data>> records, Key key,
                         int depth, const OrientedBox& universe) {
    const int bits = opts_.bits_per_level;
    if (records.empty()) {
      Node<Data>* n = arena_.allocate();
      n->key = key;
      n->depth = static_cast<std::int16_t>(depth);
      n->type = NodeType::kEmptyLeaf;
      return n;
    }
    if (records.size() == 1 && records.front().key == key) {
      const RootRecord<Data>& rec = records.front();
      if (rec.home_proc == proc_) {
        auto it = local_roots_.find(key);
        assert(it != local_roots_.end());
        return it->second;
      }
      Node<Data>* n = arena_.allocate();
      n->key = key;
      n->depth = static_cast<std::int16_t>(depth);
      n->type = rec.type == NodeType::kInternal ? NodeType::kRemote
                : rec.type == NodeType::kLeaf   ? NodeType::kRemoteLeaf
                                                : NodeType::kEmptyLeaf;
      n->box = rec.box;
      n->data = rec.data;
      n->n_particles = rec.n_particles;
      n->n_children = rec.type == NodeType::kInternal
                          ? static_cast<std::int16_t>(1 << bits)
                          : 0;
      n->owner_subtree = rec.owner_subtree;
      n->home_proc = rec.home_proc;
      return n;
    }
    // Branch node: group records by the child of `key` they fall under.
    Node<Data>* n = arena_.allocate();
    n->key = key;
    n->depth = static_cast<std::int16_t>(depth);
    n->type = NodeType::kBoundary;
    n->n_children = static_cast<std::int16_t>(1 << bits);
    n->data = Data{};
    std::size_t begin = 0;
    for (int c = 0; c < n->n_children; ++c) {
      const Key child_key = keys::child(key, static_cast<unsigned>(c), bits);
      std::size_t end = begin;
      while (end < records.size() &&
             keys::isAncestorOf(child_key, records[end].key, bits)) {
        ++end;
      }
      Node<Data>* child = buildUpper(records.subspan(begin, end - begin),
                                     child_key, depth + 1, universe);
      n->setChild(c, child);
      n->data += child->data;
      n->n_particles += child->n_particles;
      n->box.grow(child->box);
      begin = end;
    }
    assert(begin == records.size());
    return n;
  }

  // --- request / fill protocol ------------------------------------------------

  void sendRequest(Node<Data>* ph, int worker_slot) {
    Fetch fetch;
    if (auto* inj = rt_ != nullptr ? rt_->faultInjector() : nullptr) {
      fetch.id = inj->nextFetchId();
    }
    if (metrics_.fill_rtt_us != nullptr) {
      fetch.sent = std::chrono::steady_clock::now();
    }
    sendRequestAttempt(ph, worker_slot, fetch);
  }

  void sendRequestAttempt(Node<Data>* ph, int worker_slot, Fetch fetch) {
    if (fetch.attempt == 0) bump(metrics_.misses);
    const int home = ph->home_proc;
    const Key key = ph->key;
    const int requester = proc_;
    CacheManager* req_cache = this;
    auto* caches = all_caches_;
    // Request message: key + routing metadata.
    rts::Message req;
    req.from = proc_;
    req.to = home;
    req.bytes = sizeof(Key) + 3 * sizeof(int);
    req.kind = rts::MessageKind::kRequest;
    req.on_receive = [caches, home, key, requester, req_cache, ph,
                      worker_slot, fetch] {
      (*caches)[static_cast<std::size_t>(home)].serveRequest(
          key, requester, req_cache, ph, worker_slot, fetch);
    };
    rt_->send(std::move(req));
  }

  /// Home side (Fig 2, Step 1): serialize the region and reply. An
  /// injected fetch failure replies with a nack instead of the payload;
  /// the requester retries (sendRequestAttempt) until its budget runs
  /// out, then degrades to a direct read.
  void serveRequest(Key key, int requester, CacheManager* req_cache,
                    Node<Data>* ph, int worker_slot, Fetch fetch) {
    rts::ActivityScope scope(opts_.instr.profiler, rts::Activity::kCacheRequest);
    bump(metrics_.requests_served);
    if (auto* inj = rt_->faultInjector();
        inj != nullptr &&
        inj->onFetch(fetch.id, static_cast<std::uint32_t>(fetch.attempt))) {
      rt_->noteFault(rts::FaultKind::kFetchFail);
      rts::Message nack;
      nack.from = proc_;
      nack.to = requester;
      nack.bytes = sizeof(Key) + 2 * sizeof(int);
      nack.kind = rts::MessageKind::kResponse;
      nack.on_receive = [req_cache, ph, worker_slot, fetch] {
        req_cache->handleFetchFailure(ph, worker_slot, fetch);
      };
      rt_->send(std::move(nack));
      return;
    }
    Node<Data>* node = localNode(key);
    assert(node != nullptr && "request for a key not homed here");
    auto block = std::make_shared<ResponseBlock<Data>>(
        serializeRegion(node, opts_.fetch_depth));
    const std::size_t bytes = block->byteSize();
    rts::Message resp;
    resp.from = proc_;
    resp.to = requester;
    resp.bytes = bytes;
    resp.kind = rts::MessageKind::kResponse;
    resp.on_receive = [req_cache, block, ph, worker_slot, bytes,
                       sent = fetch.sent] {
      req_cache->handleResponse(std::move(block), ph, worker_slot, bytes,
                                sent);
    };
    rt_->send(std::move(resp));
  }

  /// Requester side of a nacked fill: retry while the budget allows,
  /// otherwise degrade.
  void handleFetchFailure(Node<Data>* ph, int worker_slot, Fetch fetch) {
    if (fetch.attempt < opts_.max_fetch_retries) {
      bump(metrics_.fetch_retries);
      obs::TraceSpan span(opts_.instr.trace, "cache.fetch_retry", "fault",
                          rts::Runtime::currentProc(),
                          rts::Runtime::currentWorker());
      ++fetch.attempt;
      sendRequestAttempt(ph, worker_slot, fetch);
      return;
    }
    degradedRead(ph, worker_slot, fetch.sent);
  }

  /// Last-resort fill: read the owning subtree synchronously out of the
  /// home process's cache (all logical processes share this address
  /// space, and local trees are read-only during traversal — the stand-in
  /// for an RDMA/RGET side channel). Accounted as cache.degraded_reads.
  void degradedRead(Node<Data>* ph, int worker_slot,
                    std::chrono::steady_clock::time_point sent) {
    obs::TraceSpan span(opts_.instr.trace, "cache.degraded_read", "fault",
                        rts::Runtime::currentProc(),
                        rts::Runtime::currentWorker());
    bump(metrics_.degraded_reads);
    CacheManager& home = (*all_caches_)[static_cast<std::size_t>(ph->home_proc)];
    Node<Data>* node = home.localNode(ph->key);
    assert(node != nullptr && "degraded read for a key not homed there");
    auto block = std::make_shared<ResponseBlock<Data>>(
        serializeRegion(node, opts_.fetch_depth));
    const std::size_t bytes = block->byteSize();
    handleResponse(std::move(block), ph, worker_slot, bytes, sent);
  }

  /// Requester side (Fig 2, Steps 2-5), dispatched to whichever worker is
  /// least busy by the runtime.
  void handleResponse(std::shared_ptr<ResponseBlock<Data>> block,
                      Node<Data>* ph, int worker_slot, std::size_t bytes,
                      std::chrono::steady_clock::time_point sent) {
    if (metrics_.fill_rtt_us != nullptr) {
      metrics_.fill_rtt_us->observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - sent)
              .count());
    }
    rts::ActivityScope scope(opts_.instr.profiler,
                             rts::Activity::kCacheInsertion);
    obs::TraceSpan span(opts_.instr.trace, "cache.fill", "cache",
                        rts::Runtime::currentProc(),
                        rts::Runtime::currentWorker());
    bump(metrics_.fills);
    bump(metrics_.bytes_received, bytes);
    switch (opts_.model) {
      case CacheModel::kWaitFree:
        insertShared(*block, ph);
        break;
      case CacheModel::kXWrite: {
        const auto t0 = std::chrono::steady_clock::now();
        std::lock_guard lock(xwrite_mutex_);
        recordLockWait(t0);
        insertShared(*block, ph);
        break;
      }
      case CacheModel::kSingleInserter: {
        // Funnel through a serial queue: at most one worker inserts at a
        // time, and queued fills are drained in arrival order.
        {
          const auto t0 = std::chrono::steady_clock::now();
          std::lock_guard lock(inserter_mutex_);
          recordLockWait(t0);
          inserter_queue_.emplace_back(std::move(block), ph);
          if (inserter_active_) return;
          inserter_active_ = true;
        }
        drainInserterQueue();
        break;
      }
      case CacheModel::kPerThread:
        insertPerThread(*block, worker_slot);
        break;
    }
  }

  void recordLockWait(std::chrono::steady_clock::time_point start) {
    const auto waited = std::chrono::steady_clock::now() - start;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count());
    bump(metrics_.lock_wait_ns, ns);
  }

  void drainInserterQueue() {
    while (true) {
      std::pair<std::shared_ptr<ResponseBlock<Data>>, Node<Data>*> item;
      {
        std::lock_guard lock(inserter_mutex_);
        if (inserter_queue_.empty()) {
          inserter_active_ = false;
          return;
        }
        item = std::move(inserter_queue_.front());
        inserter_queue_.pop_front();
      }
      insertShared(*item.first, item.second);
    }
  }

  /// Materialize a response as nodes. Frontier internal records (children
  /// not shipped) become requestable placeholders carrying valid Data.
  /// Returns the region root; `out_block` owns the storage.
  Node<Data>* materialize(const ResponseBlock<Data>& block,
                          NodeBlock& out_block, bool check_local_roots) {
    out_block.particles = block.particles;
    std::vector<Node<Data>*> made(block.records.size(), nullptr);
    for (std::size_t i = 0; i < block.records.size(); ++i) {
      const NodeRecord<Data>& rec = block.records[i];
      // Fig 2, Step 3: a record that is actually homed here (a local
      // subtree root) links to the real local node instead of a copy.
      if (check_local_roots && i > 0) {
        auto it = local_roots_.find(rec.key);
        if (it != local_roots_.end()) {
          made[i] = it->second;
          made[static_cast<std::size_t>(rec.parent_index)]->setChild(
              rec.child_slot, it->second);
          continue;
        }
      }
      Node<Data>* n = &out_block.nodes.emplace_back();
      made[i] = n;
      n->key = rec.key;
      n->depth = rec.depth;
      n->box = rec.box;
      n->data = rec.data;
      n->n_particles = rec.n_particles;
      n->owner_subtree = rec.owner_subtree;
      n->home_proc = rec.home_proc;
      if (rec.type == NodeType::kLeaf) {
        n->type = NodeType::kLeaf;
        n->particles = out_block.particles.data() + rec.particles_offset;
      } else if (rec.type == NodeType::kEmptyLeaf) {
        n->type = NodeType::kEmptyLeaf;
      } else {
        n->n_children = rec.n_children;
        n->type = rec.children_shipped ? NodeType::kInternal : NodeType::kRemote;
      }
      if (i > 0) {
        made[static_cast<std::size_t>(rec.parent_index)]->setChild(
            rec.child_slot, n);
      }
      bump(metrics_.nodes_inserted);
    }
    return made.empty() ? nullptr : made[0];
  }

  /// Shared-tree insertion (Fig 2, Steps 2-5): build privately, publish
  /// with one atomic store, then resume the paused traversals.
  void insertShared(const ResponseBlock<Data>& block, Node<Data>* ph) {
    auto node_block = std::make_unique<NodeBlock>();
    Node<Data>* fresh = materialize(block, *node_block, true);
    assert(fresh != nullptr && fresh->key == ph->key);
    {
      std::lock_guard lock(blocks_mutex_);
      blocks_.push_back(std::move(node_block));
    }
    // Step 4: swap the placeholder out of the tree. Parent links are
    // atomic; concurrent readers see either the placeholder (and enqueue
    // a waiter) or the fresh node. A placeholder with no parent is the
    // degenerate single-Subtree case: the cache root itself is remote.
    Node<Data>* parent = ph->parent;
    if (parent == nullptr) {
      root_.store(fresh, std::memory_order_release);
    } else {
      for (int c = 0; c < parent->n_children; ++c) {
        if (parent->children[static_cast<std::size_t>(c)].load(
                std::memory_order_relaxed) == ph) {
          parent->setChild(c, fresh);
          break;
        }
      }
    }
    // Step 5: resume paused traversals on this process's workers.
    Waiter* w = ph->closeWaiters();
    while (w != nullptr && w != kWaitersClosed) {
      Waiter* next = w->next;
      rt_->enqueue(proc_, std::move(w->resume));
      delete w;
      w = next;
    }
  }

  void requestPerThread(Node<Data>* ph, rts::Task resume, int worker_slot) {
    auto& wc = *worker_caches_[static_cast<std::size_t>(worker_slot)];
    bool is_new = false;
    {
      std::lock_guard lock(wc.mutex);
      WorkerEntry& entry = wc.entries[ph->key];
      if (entry.filled) {
        bump(metrics_.hits);
        rt_->enqueue(proc_, std::move(resume));
        return;
      }
      is_new = entry.waiters.empty();
      entry.waiters.push_back(std::move(resume));
    }
    if (is_new) sendRequest(ph, worker_slot);
    else bump(metrics_.shared_waits);
  }

  void insertPerThread(const ResponseBlock<Data>& block, int worker_slot) {
    auto& wc = *worker_caches_[static_cast<std::size_t>(worker_slot)];
    auto node_block = std::make_unique<NodeBlock>();
    // Private copies never alias local subtree roots: sharing them would
    // reintroduce the cross-thread sharing this model exists to avoid.
    Node<Data>* fresh = materialize(block, *node_block, false);
    std::vector<rts::Task> waiters;
    {
      std::lock_guard lock(wc.mutex);
      wc.blocks.push_back(std::move(node_block));
      WorkerEntry& entry = wc.entries[block.requested];
      entry.filled = true;
      entry.node = fresh;
      waiters.swap(entry.waiters);
    }
    for (auto& resume : waiters) rt_->enqueue(proc_, std::move(resume));
  }

  rts::Runtime* rt_{nullptr};
  int proc_{0};
  Options opts_{};
  std::deque<CacheManager>* all_caches_{nullptr};

  NodeArena<Data> arena_;  ///< upper-tree nodes & placeholders
  std::atomic<Node<Data>*> root_{nullptr};

  std::mutex local_roots_mutex_;
  std::unordered_map<Key, Node<Data>*> local_roots_;

  mutable std::mutex blocks_mutex_;
  std::vector<std::unique_ptr<NodeBlock>> blocks_;

  std::mutex xwrite_mutex_;

  std::mutex inserter_mutex_;
  std::deque<std::pair<std::shared_ptr<ResponseBlock<Data>>, Node<Data>*>>
      inserter_queue_;
  bool inserter_active_ = false;

  std::vector<std::unique_ptr<WorkerCache>> worker_caches_;

  Metrics metrics_{};
};

}  // namespace paratreet
