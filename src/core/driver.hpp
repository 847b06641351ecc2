#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"
#include "core/forest.hpp"
#include "observability/instrumentation.hpp"
#include "rts/checkpoint.hpp"
#include "util/snapshot.hpp"
#include "util/timer.hpp"

namespace paratreet {

/// The application entry point, mirroring the paper's Fig 8: subclass,
/// fill the Configuration in configure(), kick off traversals in
/// traversal() via startDown<Visitor>() / startUpAndDown<Visitor>(), and
/// do per-iteration physics in postTraversal().
///
/// `Data` is the application's tree-node summary (the Data abstraction)
/// and `TreeTypeT` its tree policy (octree by default, overridable for
/// e.g. the longest-dimension disk tree).
template <typename Data, typename TreeTypeT = OctTreeType>
class Driver {
 public:
  virtual ~Driver() = default;

  /// Set run parameters; called once before the first iteration.
  virtual void configure(Configuration& conf) = 0;
  /// Launch this iteration's traversals.
  virtual void traversal(int iter) = 0;
  /// Work after the traversal (integration, collisions, output, ...).
  virtual void postTraversal(int iter) { (void)iter; }

  /// Run the configured number of iterations over `particles`. When
  /// `particles` is empty and the Configuration names an input_file, the
  /// particles are loaded from that snapshot (paper Fig 8's
  /// conf.input_file) and strictly validated — non-finite positions or
  /// non-positive masses reject the run before anything is built.
  ///
  /// `instr` is the caller-owned instrumentation context (profiler,
  /// metrics registry, trace buffer — any subset); default is fully
  /// disabled. The Configuration is validated before anything runs;
  /// nonsensical values throw std::invalid_argument.
  ///
  /// Fault tolerance (Configuration checkpoint_every / fault.crash_*):
  /// with checkpointing on, each rank double-buffers its particle state
  /// into a CheckpointStore (own memory + buddy rank) after every K-th
  /// iteration, plus a step -1 baseline right after the initial
  /// decomposition. A rank crash surfaces as rts::QuiescenceTimeout from
  /// the drain watchdog; run() then abandons the dead rank's traffic,
  /// restores the newest sealed generation, re-decomposes over the
  /// surviving (kShrink) or restarted (kRestart) ranks, and resumes from
  /// the checkpointed iteration. With checkpointing off the timeout
  /// propagates to the caller, carrying the crash diagnostic.
  ///
  /// Recovery is budgeted by conf.recovery (RecoveryPolicy): restarts of
  /// a crash-looping rank back off exponentially and escalate to shrink
  /// once the rank spends its per-rank budget, and run() throws with a
  /// diagnostic once the global recovery budget is exhausted. When the
  /// transport runs heartbeats, a watchdog timeout with no crashed rank
  /// waits one heartbeat window before giving up, so a wedged (hung but
  /// alive) rank can be promoted to a crash and recovered normally.
  ///
  /// Durable checkpoint/restart (conf.checkpoint_dir / conf.resume):
  /// with a checkpoint_dir, every sealed generation is also persisted
  /// crash-consistently on disk (rts::DurableStore: verbatim chunks +
  /// CRC'd MANIFEST, written to a .tmp directory and atomically renamed,
  /// newest conf.checkpoint_keep generations retained). A run that died
  /// whole — OOM-killed, node reboot, kill -9 of the process tree — is
  /// continued by rerunning with conf.resume: run() restores the newest
  /// generation that verifies (falling back past torn/corrupt ones; a
  /// config/dataset-hash mismatch is a hard error) and continues from
  /// the following iteration, bitwise-equal to the uninterrupted run.
  /// Resuming still takes the same `particles` (or input_file): the
  /// initial conditions seed the compatibility hash the manifest is
  /// checked against, even though the restored state replaces them.
  void run(rts::Runtime& rt, std::vector<Particle> particles,
           Instrumentation instr = {}) {
    Configuration conf;
    configure(conf);
    if (auto err = conf.validate(); !err.empty()) {
      throw std::invalid_argument(err);
    }
    if (instr.metrics != nullptr) rt.attachMetrics(instr.metrics);
    if (instr.trace != nullptr) rt.attachTrace(instr.trace);
    // Detach on every exit, exceptions included: the registry and trace
    // buffer belong to the caller, who may destroy them once run() ends.
    struct Detach {
      rts::Runtime& rt;
      const Instrumentation& instr;
      ~Detach() {
        if (instr.metrics != nullptr) rt.attachMetrics(nullptr);
        if (instr.trace != nullptr) rt.attachTrace(nullptr);
      }
    } detach{rt, instr};
    // A scheduled rank crash or wedge is only *detectable* through the
    // drain watchdog, so arm it with a generous default when the app
    // didn't. (Heartbeats turn a wedge into a crash, but the drain still
    // needs a deadline to notice and unwind.)
    if ((conf.fault.crash_step >= 0 || conf.fault.wedge_step >= 0) &&
        conf.fault.drain_deadline_ms <= 0.0) {
      conf.fault.drain_deadline_ms = 30000.0;
    }
    if (conf.fault.enabled || conf.fault.drain_deadline_ms > 0.0 ||
        conf.fault.crash_step >= 0 || conf.fault.wedge_step >= 0) {
      rt.configureFaults(conf.fault);
    }
    if (particles.empty() && !conf.input_file.empty()) {
      InitialConditions ic = loadSnapshot(conf.input_file);
      validateInitialConditions(ic);
      particles = makeParticles(ic);
    }

    const bool ckpt_on = conf.checkpoint_every > 0;
    rts::CheckpointStore store;
    if (ckpt_on) store.init(&rt, instr.metrics);
    obs::Gauge* ckpt_seconds = nullptr;
    obs::Gauge* recovery_seconds = nullptr;
    obs::Counter* rec_restart = nullptr;
    obs::Counter* rec_shrink = nullptr;
    obs::Counter* rec_escalated = nullptr;
    obs::Counter* disk_bytes = nullptr;
    obs::Gauge* disk_seconds = nullptr;
    obs::Counter* cold_restarts = nullptr;
    if (instr.metrics != nullptr) {
      // Registered up front so fault-free reports still show the
      // checkpoint/recovery instruments, pinned at zero.
      instr.metrics->counter("checkpoint.bytes");
      ckpt_seconds = &instr.metrics->gauge("checkpoint.seconds");
      recovery_seconds = &instr.metrics->gauge("recovery.seconds");
      rec_restart = &instr.metrics->counter("rts.recoveries.restart");
      rec_shrink = &instr.metrics->counter("rts.recoveries.shrink");
      rec_escalated = &instr.metrics->counter("rts.recoveries.escalated");
      disk_bytes = &instr.metrics->counter("checkpoint.disk_bytes");
      disk_seconds = &instr.metrics->gauge("checkpoint.disk_seconds");
      cold_restarts = &instr.metrics->counter("recovery.cold_restarts");
    }

    // The durable (on-disk) checkpoint layer: opened before anything is
    // built so startup hygiene runs — the directory is created when
    // missing and stale ckpt_*.tmp leftovers of a previous death are
    // swept — and so a requested resume fails fast on a bad directory.
    rts::DurableStore disk_store;
    rts::DurableStore* disk = nullptr;
    if (!conf.checkpoint_dir.empty()) {
      rts::DurableStore::Options dopts;
      dopts.dir = conf.checkpoint_dir;
      dopts.keep = conf.checkpoint_keep;
      dopts.config_hash =
          conf.compatibilityHash(static_cast<std::uint64_t>(particles.size()));
      dopts.torn_write = conf.fault.torn_write;
      dopts.torn_seed = conf.fault.seed;
      dopts.on_torn = [&rt] { rt.noteFault(rts::FaultKind::kTornWrite); };
      disk_store.open(std::move(dopts));
      disk = &disk_store;
    }
    resumed_from_step_ = rts::CheckpointStore::kNoStep;
    resume_skipped_ = 0;
    resume_diagnostic_.clear();
    std::optional<rts::DurableStore::Recovered> recovered;
    if (conf.resume && disk != nullptr) {
      // nullopt = no generation on disk at all: fall through to a fresh
      // start, so --resume is idempotent on the very first launch too.
      recovered = disk->loadNewestVerified();
    }

    forest_ = std::make_unique<Forest<Data, TreeTypeT>>(rt, conf, instr);
    if (recovered.has_value()) {
      forest_->restoreFromChunks(recovered->chunks);
      resumed_from_step_ = recovered->step;
      resume_skipped_ = recovered->generations_skipped;
      resume_diagnostic_ = recovered->diagnostic;
      if (cold_restarts != nullptr) cold_restarts->add(1);
    } else {
      forest_->load(std::move(particles));
      forest_->decompose();
    }
    if (ckpt_on) {
      // Baseline generation: the freshly decomposed Subtrees hold the
      // only per-rank copy, so a crash in the very first iteration
      // recovers to the starting state instead of failing unrecoverably.
      // Fresh runs baseline at step -1 and persist it; resumed runs
      // re-seed the in-memory store at the restored step but skip the
      // disk write — that generation already exists on disk, and
      // re-persisting it would garbage-collect its older sibling.
      const int base = recovered.has_value() ? recovered->step : -1;
      checkpoint(store, conf, instr, base, /*from_subtrees=*/true,
                 ckpt_seconds, recovered.has_value() ? nullptr : disk,
                 disk_bytes, disk_seconds);
    }

    // A scheduled crash/wedge fires exactly once, even though recovery
    // may rewind `iter` back across the scheduled step.
    bool crash_armed = false;
    bool wedge_armed = false;
    // RecoveryPolicy bookkeeping: total recoveries spent against the
    // global budget, and per-rank restart counts for escalation.
    int recoveries_done = 0;
    std::map<int, int> restarts_per_rank;
    int iter = recovered.has_value() ? recovered->step + 1 : 0;
    while (iter < conf.num_iterations) {
      try {
        if (!crash_armed && conf.fault.crash_step >= 0 &&
            iter == conf.fault.crash_step) {
          crash_armed = true;
          rt.scheduleCrash(conf.fault.crashVictim(rt.numProcs()),
                           conf.fault.crashTaskBudget());
        }
        if (!wedge_armed && conf.fault.wedge_step >= 0 &&
            iter == conf.fault.wedge_step) {
          wedge_armed = true;
          rt.scheduleWedge(conf.fault.wedgeVictim(rt.numProcs()),
                           conf.fault.wedgeTaskBudget());
        }
        {
          obs::TraceSpan span(instr.trace, "iteration", "driver");
          forest_->build();
          traversal(iter);
          postTraversal(iter);
          // Periodic measured-load rebalancing (paper Section II.D.1/2:
          // the "load balancing period" run parameter).
          if (conf.lb_period > 0 && conf.lb_scheme != LbScheme::kNone &&
              (iter + 1) % conf.lb_period == 0) {
            if (conf.lb_scheme == LbScheme::kSfc) {
              SfcLoadBalancer lb;
              forest_->rebalance(lb);
            } else {
              GreedyLoadBalancer lb;
              forest_->rebalance(lb);
            }
          }
        }
        // Checkpoint the completed iteration before flush() perturbs the
        // Partitions: the buckets equal collect() here, so a restore
        // reproduces exactly what flush() would have seen.
        if (ckpt_on && (iter + 1) % conf.checkpoint_every == 0 &&
            iter + 1 < conf.num_iterations) {
          checkpoint(store, conf, instr, iter, /*from_subtrees=*/false,
                     ckpt_seconds, disk, disk_bytes, disk_seconds);
        }
        if (iter + 1 < conf.num_iterations) forest_->flush();
        ++iter;
      } catch (const rts::QuiescenceTimeout&) {
        std::vector<int> dead = rt.crashedRanks();
        if (dead.empty() && conf.transport.heartbeat_interval_ms > 0.0) {
          // A wedged rank looks like a plain hang until the heartbeat
          // monitor's miss threshold trips and promotes it to a crash.
          // Grant one full heartbeat window of grace before concluding
          // nothing died.
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(
                  conf.transport.heartbeatWindowMs()));
          dead = rt.crashedRanks();
        }
        if (dead.empty() || !ckpt_on) {
          // A genuine hang (or a crash with checkpointing disabled):
          // nothing to recover from — surface the diagnostic.
          throw;
        }
        if (conf.recovery.max_recoveries >= 0 &&
            recoveries_done >= conf.recovery.max_recoveries) {
          std::string who;
          for (const int r : dead) {
            if (!who.empty()) who += ",";
            who += std::to_string(r);
          }
          throw std::runtime_error(
              "recovery budget exhausted: " +
              std::to_string(recoveries_done) + " recoveries already " +
              "spent (RecoveryPolicy.max_recoveries = " +
              std::to_string(conf.recovery.max_recoveries) +
              ") and rank(s) " + who +
              " crashed again — giving up instead of looping");
        }
        ++recoveries_done;
        WallTimer timer;
        obs::TraceSpan span(instr.trace, "recovery", "driver");
        bool restart = conf.recovery_mode == RecoveryMode::kRestart;
        if (restart) {
          // Charge each dead rank's restart budget; the worst offender's
          // streak drives backoff and the restart → shrink escalation.
          int worst = 0;
          for (const int r : dead) {
            worst = std::max(worst, ++restarts_per_rank[r]);
          }
          if (worst > conf.recovery.max_restarts_per_rank) {
            // Crash-looping past its budget: stop readmitting the rank
            // and recover by shrinking over the survivors instead.
            restart = false;
            if (rec_escalated != nullptr) rec_escalated->add(1);
            if (instr.trace != nullptr) {
              obs::TraceEvent ev;
              ev.name = "recovery.escalated";
              ev.category = "fault";
              ev.start_us = instr.trace->sinceOriginUs(
                  std::chrono::steady_clock::now());
              instr.trace->record(ev);
            }
          } else if (conf.recovery.restart_backoff_ms > 0.0) {
            // Exponential backoff on the worst streak, capped at 8x.
            const int doublings = std::min(worst - 1, 3);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    conf.recovery.restart_backoff_ms *
                    static_cast<double>(1 << doublings)));
          }
        }
        if (restart) {
          if (rec_restart != nullptr) rec_restart->add(1);
        } else if (rec_shrink != nullptr) {
          rec_shrink->add(1);
        }
        rt.recoverCrashedRanks(restart);
        forest_->abortTraversals();
        for (const int r : dead) store.markLost(r);
        const int step = store.latestRestorableStep();
        if (step == rts::CheckpointStore::kNoStep) {
          throw std::runtime_error(
              "rank crash unrecoverable: no sealed checkpoint generation "
              "covers every rank (adjacent-rank double failure?)");
        }
        forest_->restoreFromChunks(store.assemble(step));
        iter = step + 1;
        if (recovery_seconds != nullptr) recovery_seconds->add(timer.seconds());
      }
    }
  }

  /// The engine; valid during and after run().
  Forest<Data, TreeTypeT>& forest() { return *forest_; }
  const Forest<Data, TreeTypeT>& forest() const { return *forest_; }

  /// Did the last run() restore an on-disk generation (conf.resume)?
  bool resumed() const {
    return resumed_from_step_ != rts::CheckpointStore::kNoStep;
  }
  /// The restored generation's step (then run() continued at step + 1),
  /// or rts::CheckpointStore::kNoStep when the run started fresh.
  int resumedFromStep() const { return resumed_from_step_; }
  /// Newer on-disk generations that failed verification and were fallen
  /// back past during the resume (0 when the newest verified).
  int resumeGenerationsSkipped() const { return resume_skipped_; }
  /// Why those generations were rejected (empty when none were).
  const std::string& resumeDiagnostic() const { return resume_diagnostic_; }

 protected:
  /// Start a top-down traversal over all Partitions (paper:
  /// partitions().startDown<Visitor>()). `kernel` selects inline visitor
  /// callbacks or the two-phase interaction-list path.
  template <typename Visitor>
  void startDown(Visitor v = {},
                 TraversalStyle style = TraversalStyle::kTransposed,
                 EvalKernel kernel = EvalKernel::kVisitor) {
    forest_->template traverse<Visitor>(std::move(v), style, kernel);
  }

  /// Start an up-and-down traversal over all Partitions.
  template <typename Visitor>
  void startUpAndDown(Visitor v = {},
                      EvalKernel kernel = EvalKernel::kVisitor) {
    forest_->template traverseUpAndDown<Visitor>(std::move(v), kernel);
  }

 private:
  /// One checkpoint generation: gather + commit on every live rank,
  /// drain out the buddy copies, seal. A crash mid-checkpoint throws out
  /// of checkpointTo()'s drain before seal() — the half-written
  /// generation is then ignored by recovery. With `disk` set, the sealed
  /// generation is then persisted crash-consistently (verbatim chunks +
  /// manifest, tmp-then-rename) and the legacy lossy .snap export rides
  /// along.
  void checkpoint(rts::CheckpointStore& store, const Configuration& conf,
                  const Instrumentation& instr, int step, bool from_subtrees,
                  obs::Gauge* seconds, rts::DurableStore* disk,
                  obs::Counter* disk_bytes, obs::Gauge* disk_seconds) {
    obs::TraceSpan span(instr.trace, "checkpoint", "driver");
    WallTimer timer;
    forest_->checkpointTo(store, step, from_subtrees);
    store.seal(step);
    if (disk != nullptr) {
      obs::TraceSpan persist_span(instr.trace, "checkpoint.persist",
                                  "driver");
      WallTimer disk_timer;
      const auto chunks = store.assemble(step);
      const std::uint64_t bytes = disk->persist(
          step, chunks,
          static_cast<std::uint64_t>(forest_->particleCount()));
      // Convert on the worker runtime, overlapped with the disk writes
      // (saveSnapshot's chunked double-buffering).
      RuntimeParallelFor par(forest_->runtime(),
                             forest_->runtime().liveProcs());
      writeCheckpointSnapshot(chunks, conf.checkpoint_dir, step, &par);
      if (disk_bytes != nullptr) disk_bytes->add(bytes);
      if (disk_seconds != nullptr) disk_seconds->add(disk_timer.seconds());
    }
    if (seconds != nullptr) seconds->add(timer.seconds());
  }

  /// Legacy on-disk export: write an assembled generation as an ordinary
  /// util/snapshot file (checkpoint_<step>.snap), loadable later through
  /// conf.input_file. Unlike the ckpt_<step>/ generation directories
  /// this form is *lossy* — only position/velocity/mass/radius survive
  /// (keys, per-iteration outputs and identity beyond input order are
  /// dropped) — so `resume` never reads it; it exists for external
  /// tooling that speaks the snapshot format. saveSnapshot itself writes
  /// tmp-then-rename, so a death mid-export can't leave a truncated file
  /// at the loadable name.
  static void writeCheckpointSnapshot(
      const std::vector<std::vector<std::byte>>& chunks,
      const std::string& dir, int step, ParallelFor* par = nullptr) {
    std::vector<Particle> all;
    for (const auto& chunk : chunks) {
      auto decoded = deserializeCheckpointChunk(chunk);
      all.insert(all.end(), decoded.second.begin(), decoded.second.end());
    }
    InitialConditions ic;
    ic.positions.resize(all.size());
    ic.velocities.resize(all.size());
    ic.masses.resize(all.size());
    ic.radii.resize(all.size());
    for (const auto& p : all) {
      const auto i = static_cast<std::size_t>(p.order);
      if (i >= all.size()) continue;  // restore validates; keep the writer lax
      ic.positions[i] = p.position;
      ic.velocities[i] = p.velocity;
      ic.masses[i] = p.mass;
      ic.radii[i] = p.ball_radius;
    }
    saveSnapshot(dir + "/checkpoint_" + std::to_string(step) + ".snap", ic,
                 par);
  }

  std::unique_ptr<Forest<Data, TreeTypeT>> forest_;
  int resumed_from_step_ = rts::CheckpointStore::kNoStep;
  int resume_skipped_ = 0;
  std::string resume_diagnostic_;
};

}  // namespace paratreet
