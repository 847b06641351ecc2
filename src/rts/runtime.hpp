#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "rts/fault.hpp"
#include "rts/transport.hpp"

namespace paratreet::rts {

/// A unit of work executed on one worker thread of one logical process.
using Task = std::function<void()>;

/// Cost model for cross-process messages. The real system runs over
/// MPI/UCX; here every logical process lives in the same address space, so
/// sends are physically free. When enabled, the model delays delivery of a
/// message by `latency_us + bytes * us_per_byte` microseconds, making
/// communication volume visible in wall-clock measurements the way a real
/// interconnect would.
struct CommModel {
  double latency_us = 0.0;
  double us_per_byte = 0.0;

  bool enabled() const { return latency_us > 0.0 || us_per_byte > 0.0; }
  double costUs(std::size_t bytes) const {
    return latency_us + us_per_byte * static_cast<double>(bytes);
  }
};

namespace detail {

/// A task waiting for its modeled delivery time in a per-proc
/// priority_queue.
struct DelayedTask {
  std::chrono::steady_clock::time_point ready;
  // Order-of-insertion tiebreak keeps delivery FIFO per ready-time.
  std::uint64_t seq;
  mutable Task task;  // mutable: priority_queue::top() is const
  bool operator<(const DelayedTask& o) const {
    // std::priority_queue is a max-heap; invert for earliest-first.
    return ready != o.ready ? ready > o.ready : seq > o.seq;
  }
};

}  // namespace detail

class ReliableLayer;

/// The runtime substrate standing in for Charm++: a fixed set of logical
/// processes (ranks), each served by a fixed set of worker threads.
///
/// Tasks enqueued on a process are executed by exactly one of that
/// process's workers (whichever is least busy — idle workers race to pop,
/// which matches the paper's "least busy worker" dispatch of cache-fill
/// messages). Cross-process communication goes through send(), which
/// counts each logical message once in the attached registry's
/// rts.messages / rts.message_bytes (retransmissions and injected
/// duplicates land in rts.retries / rts.faults_injected.* instead) and
/// optionally applies the CommModel delay.
///
/// The orchestrating (main) thread is *not* a worker: it configures a
/// phase, enqueues seed tasks, and calls drain() to wait for quiescence
/// (no task running, no task queued, no message in flight).
///
/// With a FaultConfig supplied (Config::fault or configureFaults()), every
/// cross-process send consults a deterministic FaultInjector and — when
/// transport faults are configured — routes through a ReliableLayer
/// (sequence numbers, receiver-side dedup, ack + backoff retransmit), so
/// payloads still run exactly once. drain() then enforces the watchdog
/// deadline and throws QuiescenceTimeout with a diagnostic instead of
/// hanging.
class Runtime {
 public:
  struct Config {
    int n_procs = 1;
    int workers_per_proc = 1;
    CommModel comm{};
    FaultConfig fault{};
    /// Which backend carries cross-rank messages (inproc by default; tcp
    /// runs each rank as a forked OS process). Built once at construction.
    TransportConfig transport{};
  };

  /// Throws std::invalid_argument when n_procs or workers_per_proc is
  /// below 1, before any queue, transport or thread is created.
  explicit Runtime(Config config);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  int numProcs() const { return config_.n_procs; }
  int workersPerProc() const { return config_.workers_per_proc; }
  int numWorkers() const { return config_.n_procs * config_.workers_per_proc; }
  const Config& config() const { return config_; }

  /// Enqueue a local task on process `proc` (no communication cost).
  /// Throws std::out_of_range when `proc` is not a valid rank.
  void enqueue(int proc, Task task);

  /// Enqueue on `proc` after `delay_us` microseconds (<= 0 enqueues now).
  /// Delayed tasks count toward quiescence: drain() waits them out.
  void enqueueAfterUs(int proc, double delay_us, Task task);

  /// Send one cross-rank message: `msg.on_receive` runs on one of
  /// `msg.to`'s workers after the modeled delay, carried by the active
  /// Transport (and, under transport faults, the ReliableLayer). Throws
  /// std::out_of_range when either rank is invalid.
  void send(Message msg);

  /// Untagged convenience form of send(): a MessageKind::kData message
  /// with no wire payload.
  void send(int from, int to, std::size_t bytes, Task on_receive) {
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.bytes = bytes;
    msg.on_receive = std::move(on_receive);
    send(std::move(msg));
  }

  /// The backend carrying cross-rank messages (InProcTransport unless
  /// Config::transport selected otherwise). Stable for the runtime's
  /// lifetime.
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }

  // --- transport SPI -------------------------------------------------------
  // Called by Transport implementations only.

  /// Count one in-flight wire frame toward quiescence: drain() will not
  /// return while the hold is outstanding.
  void holdQuiescence() {
    pending_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Release a holdQuiescence() hold (after the frame's closure has been
  /// enqueued, or the frame was orphaned by an endpoint death).
  void releaseQuiescence() { finishTask(); }
  /// A transport endpoint died (EOF / broken socket): mark the rank
  /// crashed so its workers park and the drain watchdog fires, feeding
  /// the ordinary crash-recovery protocol. Idempotent.
  void onTransportRankDown(int rank);
  /// A heartbeat ping to `rank` went unanswered (counted toward its miss
  /// threshold): bump rts.heartbeat.missed and trace the event.
  void noteHeartbeatMissed(int rank);
  /// A wire frame to `rank` failed its CRC check and was retired without
  /// running (the reliable layer retransmits): bump rts.frames_corrupt.
  void noteFrameCorrupt(int rank);

  /// Run `fn(proc)` once on every process, then return immediately.
  void broadcast(std::function<void(int)> fn);

  /// Block the calling (non-worker) thread until the system is quiescent.
  /// When the active FaultConfig sets drain_deadline_ms > 0 and the
  /// deadline expires first, throws QuiescenceTimeout carrying the
  /// quiescence diagnostic instead of waiting forever.
  void drain();

  /// (Re)apply a fault schedule. Must be called while quiescent (after
  /// drain(), no tasks queued). Replaces the injector and the reliable
  /// layer; a config with `injecting() == false` tears both down, making
  /// send() the raw fault-free path again. Useful to build a forest
  /// fault-free and then torture only the traversal.
  void configureFaults(const FaultConfig& fault);

  /// Active injector, or nullptr when no faults are configured.
  FaultInjector* faultInjector() const {
    return injector_ptr_.load(std::memory_order_acquire);
  }
  const FaultConfig& faultConfig() const { return config_.fault; }
  /// Reliable-delivery layer, or nullptr when no transport faults.
  const ReliableLayer* reliableLayer() const {
    return reliable_ptr_.load(std::memory_order_acquire);
  }

  /// Mirror an injected fault into the attached metrics registry
  /// (rts.faults_injected.<kind>); no-op when detached. The injector
  /// keeps its own authoritative counts.
  void noteFault(FaultKind kind);

  /// Attach a metrics registry: the runtime registers its scheduler
  /// instruments (task/message counters, per-worker busy/idle time,
  /// ready-queue depth histogram, retry/fault counters) and records into
  /// them until detached with attachMetrics(nullptr). Call only while
  /// quiescent (no tasks running or queued); idle workers are waited out,
  /// so once it returns the previous registry is never touched again and
  /// may be destroyed. The hot-path cost when attached is a relaxed atomic
  /// add per event, and a single atomic load when detached.
  void attachMetrics(obs::MetricsRegistry* registry);

  /// Attach a trace buffer: fault, retransmit and watchdog events are
  /// recorded as zero-length spans (category "fault"). Same quiescence
  /// contract as attachMetrics().
  void attachTrace(obs::TraceBuffer* trace);
  obs::TraceBuffer* traceBuffer() const {
    return trace_.load(std::memory_order_acquire);
  }

  // --- rank-crash fault tolerance ------------------------------------------

  /// Arm a deterministic rank crash: after `after_tasks` more task
  /// completions on `rank` (immediately when <= 0) the rank is marked
  /// crashed and its workers park. Queued work for the rank piles up, so
  /// the next drain() trips the watchdog — that QuiescenceTimeout is the
  /// crash-detection signal. Callable any time; fires at a task boundary.
  void scheduleCrash(int rank, int after_tasks);

  /// Arm a deterministic rank wedge: after `after_tasks` more task
  /// completions on `rank` (immediately when <= 0) the rank hangs
  /// without dying. Over TCP the rank's process is SIGSTOPped (alive,
  /// socket open, no EOF); in-proc the rank's workers park while its
  /// queues stay open. Either way nothing signals the failure except
  /// missed heartbeats — with heartbeats disabled a wedge is only ever
  /// seen as a watchdog timeout with no culprit.
  void scheduleWedge(int rank, int after_tasks);

  bool rankCrashed(int rank) const;
  /// Has `rank` been wedged (scheduling parked / process stopped)?
  /// Becomes false again once heartbeat detection converts the wedge
  /// into a crash, or a recovery restarts the rank.
  bool rankWedged(int rank) const;
  /// Alive = neither crashed nor excluded by a shrink recovery. Fault-free
  /// runs always answer true.
  bool rankAlive(int rank) const;
  std::vector<int> crashedRanks() const;
  /// Ranks currently accepting work, in ascending order.
  std::vector<int> liveProcs() const;
  /// Rank crashes observed since construction.
  std::uint64_t crashCount() const {
    return crashes_.load(std::memory_order_relaxed);
  }

  /// Post-crash cleanup, called off-worker after the watchdog fired:
  /// abandons reliable traffic addressed to dead ranks, discards their
  /// queued tasks, then settles the survivors to true quiescence (no
  /// watchdog). With `restart` the dead ranks rejoin blank — their
  /// workers resume popping — otherwise they stay excluded: enqueue() and
  /// send() to them become silent no-ops until a later restart recovery.
  void recoverCrashedRanks(bool restart);

  /// The quiescence diagnostic the watchdog throws: pending count,
  /// per-proc ready/delayed queue depths, in-flight reliable messages,
  /// injected-fault counts, and per-worker last-task age.
  std::string quiescenceDiagnostic();

  /// Logical process of the calling worker thread, or -1 off-worker.
  static int currentProc();
  /// Worker index within its process, or -1 off-worker.
  static int currentWorker();

 private:
  friend class ReliableLayer;

  struct ProcQueue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Task> ready;
    std::priority_queue<detail::DelayedTask> delayed;
    /// Remaining task completions before this rank dies; < 0 = not armed.
    std::atomic<int> crash_countdown{-1};
    /// Remaining task completions before this rank wedges; < 0 = not armed.
    std::atomic<int> wedge_countdown{-1};
    /// Crashed: workers park, queues pile up until recovery.
    std::atomic<bool> crashed{false};
    /// Wedged: workers park but the rank is not (yet) considered dead —
    /// only heartbeat detection promotes a wedge to a crash.
    std::atomic<bool> wedged{false};
    /// Excluded by a shrink recovery: enqueue/send become no-ops.
    std::atomic<bool> excluded{false};
  };

  void workerLoop(int proc, int worker);
  void finishTask();
  void checkRank(const char* where, const char* which, int rank) const;
  void drainImpl(bool allow_watchdog);
  /// Flag `proc` dead and record the crash (counters + trace event).
  void markCrashed(int proc);
  /// Wedge `proc`: record the fault, then either let the transport hang
  /// the rank at the wire level or park its scheduling locally.
  void markWedged(int proc);
  /// Discard everything queued on `proc` unrun, crediting pending_.
  void purgeRankQueues(int proc);

  /// Pre-registered scheduler instruments (see attachMetrics).
  struct SchedulerMetrics {
    obs::Counter* tasks = nullptr;
    obs::Counter* messages = nullptr;
    obs::Counter* message_bytes = nullptr;
    obs::Histogram* queue_depth = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* undeliverable = nullptr;
    obs::Counter* dup_suppressed = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Counter* heartbeat_missed = nullptr;
    obs::Counter* frames_corrupt = nullptr;
    std::array<obs::Counter*, kNumFaultKinds> faults_injected{};
    /// Indexed by global worker (proc * workers_per_proc + worker).
    std::vector<obs::Counter*> busy_ns;
    std::vector<obs::Counter*> idle_ns;
  };

  Config config_;
  std::vector<std::unique_ptr<ProcQueue>> queues_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::thread> threads_;

  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> pending_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::atomic<std::uint64_t> delay_seq_{0};
  std::atomic<std::uint64_t> crashes_{0};

  std::unique_ptr<SchedulerMetrics> metrics_storage_;
  std::atomic<SchedulerMetrics*> metrics_{nullptr};
  std::atomic<obs::TraceBuffer*> trace_{nullptr};

  // Fault machinery. Storage is swapped only while quiescent
  // (configureFaults); workers read through the atomic mirrors.
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ReliableLayer> reliable_;
  std::atomic<FaultInjector*> injector_ptr_{nullptr};
  std::atomic<ReliableLayer*> reliable_ptr_{nullptr};

  // Per-worker liveness stamps (ns since start_), -1 before the first
  // task; only maintained while the watchdog is armed.
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> track_liveness_{false};
  std::unique_ptr<std::atomic<std::int64_t>[]> last_task_ns_;
};

}  // namespace paratreet::rts
