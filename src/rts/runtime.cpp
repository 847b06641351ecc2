#include "rts/runtime.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "rts/reliable.hpp"

namespace paratreet::rts {

namespace {
thread_local int tls_proc = -1;
thread_local int tls_worker = -1;

Runtime::Config checkedShape(Runtime::Config config) {
  if (config.n_procs < 1 || config.workers_per_proc < 1) {
    throw std::invalid_argument(
        "Runtime: n_procs and workers_per_proc must be >= 1 (got " +
        std::to_string(config.n_procs) + " x " +
        std::to_string(config.workers_per_proc) + ")");
  }
  return config;
}
}  // namespace

int Runtime::currentProc() { return tls_proc; }
int Runtime::currentWorker() { return tls_worker; }

Runtime::Runtime(Config config)
    : config_(checkedShape(std::move(config))),
      start_(std::chrono::steady_clock::now()) {
  queues_.reserve(config_.n_procs);
  for (int p = 0; p < config_.n_procs; ++p) {
    queues_.push_back(std::make_unique<ProcQueue>());
  }
  last_task_ns_ = std::make_unique<std::atomic<std::int64_t>[]>(
      static_cast<std::size_t>(numWorkers()));
  for (int i = 0; i < numWorkers(); ++i) {
    last_task_ns_[static_cast<std::size_t>(i)].store(
        -1, std::memory_order_relaxed);
  }
  configureFaults(config_.fault);
  // The transport comes up before any worker thread exists: a process-
  // spawning backend must fork from a single-threaded address space.
  transport_ = makeTransport(config_.transport);
  transport_->start(*this);
  threads_.reserve(static_cast<std::size_t>(numWorkers()));
  for (int p = 0; p < config_.n_procs; ++p) {
    for (int w = 0; w < config_.workers_per_proc; ++w) {
      threads_.emplace_back([this, p, w] { workerLoop(p, w); });
    }
  }
}

Runtime::~Runtime() {
  // Stop retransmit chains and drain without the watchdog: a destructor
  // must neither hang on an injected 100%-loss schedule nor throw.
  if (auto* rel = reliable_ptr_.load(std::memory_order_acquire)) {
    rel->abandonAll();
  }
  // Tasks piled up on an unrecovered crashed rank would keep pending_
  // above zero forever; discard them unrun. Exclude-then-purge (the
  // recovery idiom): a transport endpoint death racing this teardown may
  // still flush orphaned deliveries at the rank, and the excluded flag
  // turns those into accounted drops instead of fresh backlog.
  for (int p = 0; p < config_.n_procs; ++p) {
    auto& q = *queues_[p];
    const bool wedged = q.wedged.load(std::memory_order_acquire);
    if (q.crashed.load(std::memory_order_acquire) || wedged) {
      {
        std::lock_guard lock(q.mutex);
        q.excluded.store(true, std::memory_order_release);
      }
      if (wedged && !q.crashed.load(std::memory_order_acquire)) {
        // An unrecovered wedge may still hold wire state (a SIGSTOPped
        // rank process with unreceipted frames pinning quiescence). Kill
        // it for real: the transport flushes the orphans into the now-
        // excluded queue, where they retire with correct accounting.
        transport_->onRankDead(p);
      }
      purgeRankQueues(p);
    }
  }
  drainImpl(/*allow_watchdog=*/false);
  shutdown_.store(true, std::memory_order_release);
  for (auto& q : queues_) {
    std::lock_guard lock(q->mutex);
    q->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
  // Tear the wire down only after the drain and the joins: no worker can
  // originate another frame, and every receipt has been consumed.
  transport_->stop();
}

void Runtime::configureFaults(const FaultConfig& fault) {
  if (const std::string err = fault.validate(); !err.empty()) {
    throw std::invalid_argument("FaultConfig." + err);
  }
  // Tear down in publish-reverse order; callers hold the quiescence
  // contract, so no worker is reading the old pointers.
  reliable_ptr_.store(nullptr, std::memory_order_release);
  injector_ptr_.store(nullptr, std::memory_order_release);
  reliable_.reset();
  injector_.reset();
  config_.fault = fault;
  if (fault.injecting()) {
    injector_ = std::make_unique<FaultInjector>(fault);
    injector_ptr_.store(injector_.get(), std::memory_order_release);
    if (fault.anyMessageFaults()) {
      reliable_ = std::make_unique<ReliableLayer>(*this, *injector_);
      reliable_ptr_.store(reliable_.get(), std::memory_order_release);
    }
  }
  track_liveness_.store(fault.drain_deadline_ms > 0.0,
                        std::memory_order_release);
}

void Runtime::attachMetrics(obs::MetricsRegistry* registry) {
  std::unique_ptr<SchedulerMetrics> m;
  if (registry != nullptr) {
    m = std::make_unique<SchedulerMetrics>();
    m->tasks = &registry->counter("rts.tasks_executed");
    m->messages = &registry->counter("rts.messages");
    m->message_bytes = &registry->counter("rts.message_bytes");
    m->queue_depth = &registry->histogram(
        "rts.queue_depth", obs::exponentialBounds(1.0, 2.0, 12));
    // Resilience counters are registered unconditionally so fault-free
    // reports still show them — pinned at zero.
    m->retries = &registry->counter("rts.retries");
    m->undeliverable = &registry->counter("rts.undeliverable");
    m->dup_suppressed = &registry->counter("rts.dup_suppressed");
    m->crashes = &registry->counter("rts.crashes");
    m->heartbeat_missed = &registry->counter("rts.heartbeat.missed");
    m->frames_corrupt = &registry->counter("rts.frames_corrupt");
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
      m->faults_injected[k] = &registry->counter(
          std::string("rts.faults_injected.") + kFaultKindNames[k]);
    }
    m->busy_ns.reserve(static_cast<std::size_t>(numWorkers()));
    m->idle_ns.reserve(static_cast<std::size_t>(numWorkers()));
    for (int p = 0; p < config_.n_procs; ++p) {
      for (int w = 0; w < config_.workers_per_proc; ++w) {
        const std::string id =
            "rts.worker.p" + std::to_string(p) + ".w" + std::to_string(w);
        m->busy_ns.push_back(&registry->counter(id + ".busy_ns"));
        m->idle_ns.push_back(&registry->counter(id + ".idle_ns"));
      }
    }
  }
  metrics_.store(m.get(), std::memory_order_release);
  // Idle workers re-load metrics_ under their queue lock after waking and
  // record while still holding it, so passing through every queue mutex
  // waits out any worker still recording into the previous registry.
  // Afterwards that registry (and the old storage) is never touched again.
  for (auto& q : queues_) std::lock_guard lock(q->mutex);
  metrics_storage_ = std::move(m);
}

void Runtime::attachTrace(obs::TraceBuffer* trace) {
  trace_.store(trace, std::memory_order_release);
}

void Runtime::noteFault(FaultKind kind) {
  if (auto* m = metrics_.load(std::memory_order_acquire)) {
    m->faults_injected[static_cast<std::size_t>(kind)]->add(1);
  }
}

void Runtime::noteHeartbeatMissed(int rank) {
  if (auto* m = metrics_.load(std::memory_order_acquire)) {
    m->heartbeat_missed->add(1);
  }
  if (auto* tb = trace_.load(std::memory_order_acquire)) {
    obs::TraceEvent ev;
    ev.name = "rts.heartbeat.missed";
    ev.category = "fault";
    ev.start_us = tb->sinceOriginUs(std::chrono::steady_clock::now());
    ev.duration_us = 0;
    ev.proc = rank;
    ev.worker = -1;
    tb->record(ev);
  }
}

void Runtime::noteFrameCorrupt(int rank) {
  if (auto* m = metrics_.load(std::memory_order_acquire)) {
    m->frames_corrupt->add(1);
  }
  if (auto* tb = trace_.load(std::memory_order_acquire)) {
    obs::TraceEvent ev;
    ev.name = "rts.frame_corrupt";
    ev.category = "fault";
    ev.start_us = tb->sinceOriginUs(std::chrono::steady_clock::now());
    ev.duration_us = 0;
    ev.proc = rank;
    ev.worker = -1;
    tb->record(ev);
  }
}

void Runtime::checkRank(const char* where, const char* which,
                        int rank) const {
  if (rank < 0 || rank >= config_.n_procs) {
    throw std::out_of_range(std::string(where) + ": " + which + " rank " +
                            std::to_string(rank) + " outside [0, " +
                            std::to_string(config_.n_procs) + ")");
  }
}

void Runtime::enqueue(int proc, Task task) {
  checkRank("Runtime::enqueue", "proc", proc);
  auto& q = *queues_[proc];
  // pending_ is raised before the task becomes poppable and credited back
  // if the rank turns out to be excluded; the flag is read under the
  // queue mutex so a recovery's exclude-then-purge cannot miss a task.
  pending_.fetch_add(1, std::memory_order_relaxed);
  std::size_t depth = 0;
  bool dropped = false;
  {
    std::lock_guard lock(q.mutex);
    if (q.excluded.load(std::memory_order_acquire)) {
      // Black hole: a shrink recovery routed around this dead rank.
      dropped = true;
    } else {
      q.ready.push_back(std::move(task));
      depth = q.ready.size();
    }
  }
  if (dropped) {
    finishTask();
    return;
  }
  q.cv.notify_one();
  if (auto* m = metrics_.load(std::memory_order_acquire)) {
    m->queue_depth->observe(static_cast<double>(depth));
  }
}

void Runtime::enqueueAfterUs(int proc, double delay_us, Task task) {
  checkRank("Runtime::enqueueAfterUs", "proc", proc);
  if (delay_us <= 0.0) {
    enqueue(proc, std::move(task));
    return;
  }
  const auto delay = std::chrono::duration<double, std::micro>(delay_us);
  const auto ready =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(delay);
  auto& q = *queues_[proc];
  pending_.fetch_add(1, std::memory_order_relaxed);
  bool dropped = false;
  {
    std::lock_guard lock(q.mutex);
    if (q.excluded.load(std::memory_order_acquire)) {
      dropped = true;
    } else {
      q.delayed.push(detail::DelayedTask{
          ready, delay_seq_.fetch_add(1, std::memory_order_relaxed),
          std::move(task)});
    }
  }
  if (dropped) {
    finishTask();
    return;
  }
  q.cv.notify_one();
}

void Runtime::send(Message msg) {
  checkRank("Runtime::send", "source", msg.from);
  checkRank("Runtime::send", "destination", msg.to);
  // Dropped before entering the reliable layer: retransmitting into a
  // rank the recovery already excluded would only burn the retry budget.
  if (queues_[msg.to]->excluded.load(std::memory_order_acquire)) return;
  if (auto* m = metrics_.load(std::memory_order_acquire)) {
    m->messages->add(1);
    m->message_bytes->add(msg.bytes);
  }
  if (msg.from == msg.to) {  // local delivery: nothing to lose on the wire
    enqueue(msg.to, std::move(msg.on_receive));
    return;
  }
  if (auto* rel = reliable_ptr_.load(std::memory_order_acquire)) {
    rel->send(std::move(msg));
    return;
  }
  const double delay_us =
      config_.comm.enabled() ? config_.comm.costUs(msg.bytes) : 0.0;
  transport_->deliver(std::move(msg), delay_us);
}

void Runtime::broadcast(std::function<void(int)> fn) {
  for (int p = 0; p < config_.n_procs; ++p) {
    enqueue(p, [fn, p] { fn(p); });
  }
}

void Runtime::finishTask() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

void Runtime::drain() { drainImpl(/*allow_watchdog=*/true); }

void Runtime::drainImpl(bool allow_watchdog) {
  const auto quiescent = [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  std::unique_lock lock(drain_mutex_);
  const double deadline_ms = config_.fault.drain_deadline_ms;
  if (!allow_watchdog || deadline_ms <= 0.0) {
    drain_cv_.wait(lock, quiescent);
    return;
  }
  if (!drain_cv_.wait_for(
          lock, std::chrono::duration<double, std::milli>(deadline_ms),
          quiescent)) {
    lock.unlock();
    throw QuiescenceTimeout(quiescenceDiagnostic());
  }
}

std::string Runtime::quiescenceDiagnostic() {
  const auto now = std::chrono::steady_clock::now();
  std::string out = "Runtime::drain() watchdog: no quiescence within " +
                    std::to_string(config_.fault.drain_deadline_ms) +
                    " ms; " +
                    std::to_string(pending_.load(std::memory_order_acquire)) +
                    " task(s)/message(s) pending\n";
  out += "transport: " + transport_->describe() + "\n";
  out += "per-proc queues (ready/delayed):\n";
  std::string dead;
  for (std::size_t p = 0; p < queues_.size(); ++p) {
    auto& q = *queues_[p];
    std::lock_guard lock(q.mutex);
    out += "  proc " + std::to_string(p) + ": ready=" +
           std::to_string(q.ready.size()) + " delayed=" +
           std::to_string(q.delayed.size());
    if (q.crashed.load(std::memory_order_acquire)) {
      out += " CRASHED";
      if (!dead.empty()) dead += ", ";
      dead += std::to_string(p);
    }
    if (q.wedged.load(std::memory_order_acquire)) out += " WEDGED";
    if (q.excluded.load(std::memory_order_acquire)) out += " (excluded)";
    out += "\n";
  }
  if (!dead.empty()) {
    out += "rank-crash fault: rank(s) " + dead +
           " died mid-step; enable checkpointing "
           "(Configuration.checkpoint_every > 0) to recover\n";
  }
  if (auto* rel = reliable_ptr_.load(std::memory_order_acquire)) {
    out += "in-flight reliable messages: " +
           std::to_string(rel->inflight()) + " (retries=" +
           std::to_string(rel->retries()) + ", undeliverable=" +
           std::to_string(rel->undeliverable()) + ")\n";
    out += rel->describeInflight();
  }
  if (auto* inj = injector_ptr_.load(std::memory_order_acquire)) {
    out += "injected faults:";
    const auto counts = inj->counts();
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
      out += std::string(" ") + kFaultKindNames[k] + "=" +
             std::to_string(counts[k]);
    }
    out += "\n";
  }
  out += "per-worker last-task age:\n";
  for (int p = 0; p < config_.n_procs; ++p) {
    for (int w = 0; w < config_.workers_per_proc; ++w) {
      const auto slot =
          static_cast<std::size_t>(p * config_.workers_per_proc + w);
      const std::int64_t stamp =
          last_task_ns_[slot].load(std::memory_order_relaxed);
      out += "  p" + std::to_string(p) + ".w" + std::to_string(w) + ": ";
      if (stamp < 0) {
        out += "no task yet\n";
      } else {
        const auto age_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
                .count() -
            stamp;
        out += std::to_string(static_cast<double>(age_ns) / 1e6) + " ms ago\n";
      }
    }
  }
  return out;
}

void Runtime::markCrashed(int proc) {
  queues_[proc]->crashed.store(true, std::memory_order_release);
  crashes_.fetch_add(1, std::memory_order_relaxed);
  if (auto* m = metrics_.load(std::memory_order_acquire)) {
    m->crashes->add(1);
  }
  noteFault(FaultKind::kCrash);
  if (auto* inj = injector_ptr_.load(std::memory_order_acquire)) {
    inj->record(FaultKind::kCrash);
  }
  if (auto* tb = trace_.load(std::memory_order_acquire)) {
    obs::TraceEvent ev;
    ev.name = "rts.crash";
    ev.category = "fault";
    ev.start_us = tb->sinceOriginUs(std::chrono::steady_clock::now());
    ev.duration_us = 0;
    ev.proc = proc;
    ev.worker = currentWorker();
    tb->record(ev);
  }
  // Keep the wire honest: under a process-backed transport a modeled
  // crash kills the rank's real process (SIGKILL), so the socket EOF and
  // the crashed flag tell the same story. No-op for in-proc.
  transport_->onRankDead(proc);
}

void Runtime::onTransportRankDown(int rank) {
  checkRank("Runtime::onTransportRankDown", "rank", rank);
  auto& q = *queues_[rank];
  if (q.crashed.load(std::memory_order_acquire)) return;
  markCrashed(rank);
  std::lock_guard lock(q.mutex);
  q.cv.notify_all();  // park idle workers on the crashed branch now
}

void Runtime::markWedged(int proc) {
  noteFault(FaultKind::kWedge);
  if (auto* inj = injector_ptr_.load(std::memory_order_acquire)) {
    inj->record(FaultKind::kWedge);
  }
  if (auto* tb = trace_.load(std::memory_order_acquire)) {
    obs::TraceEvent ev;
    ev.name = "rts.wedge";
    ev.category = "fault";
    ev.start_us = tb->sinceOriginUs(std::chrono::steady_clock::now());
    ev.duration_us = 0;
    ev.proc = proc;
    ev.worker = currentWorker();
    tb->record(ev);
  }
  // A process-backed transport wedges the rank at the wire level
  // (SIGSTOP: the process lives, its socket stays open, no EOF ever
  // arrives). Otherwise park the rank's scheduling locally — its queues
  // stay open and fill up, but no worker pops. Either way the rank is
  // silent without being dead: only missed heartbeats can tell.
  auto& q = *queues_[proc];
  q.wedged.store(true, std::memory_order_release);
  if (transport_->onRankWedged(proc)) return;
  std::lock_guard lock(q.mutex);
  q.cv.notify_all();  // park idle workers on the wedged branch now
}

void Runtime::scheduleWedge(int rank, int after_tasks) {
  checkRank("Runtime::scheduleWedge", "victim", rank);
  auto& q = *queues_[rank];
  if (after_tasks <= 0) {
    markWedged(rank);
    return;
  }
  q.wedge_countdown.store(after_tasks, std::memory_order_release);
}

bool Runtime::rankWedged(int rank) const {
  checkRank("Runtime::rankWedged", "rank", rank);
  return queues_[rank]->wedged.load(std::memory_order_acquire);
}

void Runtime::scheduleCrash(int rank, int after_tasks) {
  checkRank("Runtime::scheduleCrash", "victim", rank);
  auto& q = *queues_[rank];
  if (after_tasks <= 0) {
    markCrashed(rank);
    std::lock_guard lock(q.mutex);
    q.cv.notify_all();  // park idle workers on the crashed branch now
    return;
  }
  q.crash_countdown.store(after_tasks, std::memory_order_release);
}

bool Runtime::rankCrashed(int rank) const {
  checkRank("Runtime::rankCrashed", "rank", rank);
  return queues_[rank]->crashed.load(std::memory_order_acquire);
}

bool Runtime::rankAlive(int rank) const {
  checkRank("Runtime::rankAlive", "rank", rank);
  auto& q = *queues_[rank];
  return !q.crashed.load(std::memory_order_acquire) &&
         !q.excluded.load(std::memory_order_acquire);
}

std::vector<int> Runtime::crashedRanks() const {
  // Lists un-recovered crashes only: after a shrink recovery the rank is
  // excluded (dead, but already handled) and no longer reported here.
  std::vector<int> out;
  for (int p = 0; p < config_.n_procs; ++p) {
    auto& q = *queues_[p];
    if (q.crashed.load(std::memory_order_acquire) &&
        !q.excluded.load(std::memory_order_acquire)) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<int> Runtime::liveProcs() const {
  std::vector<int> out;
  for (int p = 0; p < config_.n_procs; ++p) {
    if (rankAlive(p)) out.push_back(p);
  }
  return out;
}

void Runtime::purgeRankQueues(int proc) {
  auto& q = *queues_[proc];
  std::size_t purged;
  {
    std::lock_guard lock(q.mutex);
    purged = q.ready.size() + q.delayed.size();
    q.ready.clear();
    q.delayed = {};
  }
  for (std::size_t i = 0; i < purged; ++i) finishTask();
}

void Runtime::recoverCrashedRanks(bool restart) {
  auto* rel = reliable_ptr_.load(std::memory_order_acquire);
  const std::vector<int> dead = crashedRanks();
  for (const int r : dead) {
    if (rel != nullptr) rel->abandonRank(r);
  }
  for (const int r : dead) {
    auto& q = *queues_[r];
    // Exclude first (under the queue mutex), then purge: any enqueue that
    // slipped in before the flag is swept up by the purge, and nothing
    // can land afterwards. Workers stay parked on `crashed` throughout.
    {
      std::lock_guard lock(q.mutex);
      q.crash_countdown.store(-1, std::memory_order_relaxed);
      q.wedge_countdown.store(-1, std::memory_order_relaxed);
      q.excluded.store(true, std::memory_order_release);
    }
    purgeRankQueues(r);
  }
  // Settle the survivors to true quiescence: leftover work from the
  // aborted step runs out or retires here (retransmit timers addressed to
  // the dead ranks see the abandon flag), so the caller restores
  // checkpoints into a quiet system.
  drainImpl(/*allow_watchdog=*/false);
  if (!restart) return;
  // Restart mode: the dead ranks rejoin blank only now, after every
  // message addressed to their dead incarnation has retired — nothing
  // stale can be resurrected into the new incarnation.
  for (const int r : dead) {
    // Bring the wire endpoint back first (a process-backed transport
    // respawns the rank process) so traffic can flow the moment the
    // rank is readmitted.
    transport_->restartRank(r);
    if (rel != nullptr) rel->readmitRank(r);
    auto& q = *queues_[r];
    std::lock_guard lock(q.mutex);
    q.excluded.store(false, std::memory_order_release);
    q.crashed.store(false, std::memory_order_release);
    q.wedged.store(false, std::memory_order_release);
    q.cv.notify_all();
  }
}

void Runtime::workerLoop(int proc, int worker) {
  tls_proc = proc;
  tls_worker = worker;
  const auto slot = static_cast<std::size_t>(
      proc * config_.workers_per_proc + worker);
  auto& q = *queues_[proc];
  std::unique_lock lock(q.mutex);
  while (true) {
    if (q.crashed.load(std::memory_order_acquire) ||
        q.wedged.load(std::memory_order_acquire)) {
      // Dead or wedged rank: park without touching the queues. Anything
      // queued (or maturing in `delayed`) stays pending, so the next
      // drain() trips the watchdog — that is the crash-detection signal.
      // A wedged rank's queues additionally stay *open* (it is not dead),
      // which is exactly why only heartbeats can diagnose it.
      if (shutdown_.load(std::memory_order_acquire)) return;
      q.cv.wait(lock);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    // Promote matured delayed messages to the ready queue.
    while (!q.delayed.empty() && q.delayed.top().ready <= now) {
      q.ready.push_back(std::move(q.delayed.top().task));
      q.delayed.pop();
    }
    if (!q.ready.empty()) {
      Task task = std::move(q.ready.front());
      q.ready.pop_front();
      lock.unlock();
      if (auto* inj = injector_ptr_.load(std::memory_order_acquire)) {
        double stall_us = 0.0;
        if (inj->onDispatch(stall_us)) {
          noteFault(FaultKind::kStall);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::micro>(stall_us));
        }
      }
      auto* m = metrics_.load(std::memory_order_acquire);
      const auto t0 = m != nullptr ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
      task();
      task = nullptr;  // run destructors (captures) before finishTask
      if (m != nullptr) {
        const auto busy = std::chrono::steady_clock::now() - t0;
        m->tasks->add(1);
        m->busy_ns[slot]->add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
                .count()));
      }
      if (track_liveness_.load(std::memory_order_acquire)) {
        last_task_ns_[slot].store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count(),
            std::memory_order_relaxed);
      }
      // Armed crash: the rank dies at a task boundary once the seeded
      // budget is spent. fetch_sub returning 1 picks exactly one worker
      // even when several race past the relaxed pre-check.
      if (q.crash_countdown.load(std::memory_order_relaxed) > 0 &&
          q.crash_countdown.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        markCrashed(proc);
      }
      if (q.wedge_countdown.load(std::memory_order_relaxed) > 0 &&
          q.wedge_countdown.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        markWedged(proc);
      }
      finishTask();
      lock.lock();
      continue;
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    const bool timed = metrics_.load(std::memory_order_acquire) != nullptr;
    const auto w0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    if (!q.delayed.empty()) {
      // By value: wait_until rereads its deadline after each wake, and a
      // push while the lock is released may reallocate the heap under it.
      const auto ready = q.delayed.top().ready;
      q.cv.wait_until(lock, ready);
    } else {
      q.cv.wait(lock);
    }
    // Re-load after the wake, under the lock: the registry seen before
    // the wait may have been detached (and destroyed) meanwhile.
    if (auto* m = metrics_.load(std::memory_order_acquire);
        timed && m != nullptr) {
      const auto idle = std::chrono::steady_clock::now() - w0;
      m->idle_ns[slot]->add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(idle).count()));
    }
  }
}

}  // namespace paratreet::rts
