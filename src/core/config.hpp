#pragma once

#include <cstdint>
#include <string>

#include "core/interaction_list.hpp"
#include "decomp/decomposition.hpp"
#include "rts/fault.hpp"
#include "rts/transport.hpp"

namespace paratreet {

/// Tree types offered by the framework (paper Section II).
enum class TreeType {
  eOct,      ///< octree: 8 equal-volume octants per split
  eKd,       ///< binary median splits, cycling dimensions
  eLongest,  ///< binary median splits along the longest box side
};

std::string toString(TreeType t);
/// Parse the toString() spelling (case-sensitive); false on unknown input.
bool fromString(const std::string& s, TreeType& out);

/// Software-cache models compared in Fig 3. kWaitFree is the paper's
/// contribution; the others are the baselines it is evaluated against.
enum class CacheModel {
  kWaitFree,        ///< single shared tree, atomic parallel reads & writes
  kXWrite,          ///< shared tree, every insertion behind one process lock
  kPerThread,       ///< per-worker private caches (the figure's "Sequential")
  kSingleInserter,  ///< shared tree, insertions funneled through one worker
};

std::string toString(CacheModel m);
bool fromString(const std::string& s, CacheModel& out);

/// Built-in load-balancing schemes selectable from the Configuration.
enum class LbScheme {
  kNone,    ///< keep block placement
  kSfc,     ///< SFC-chunk remapping of measured load (ChaNGa's scheme)
  kGreedy,  ///< greedy list scheduling of measured load
};

std::string toString(LbScheme s);
bool fromString(const std::string& s, LbScheme& out);

/// Spellings for core/interaction_list.hpp's BatchDrain ("overlap" /
/// "barrier").
std::string toString(BatchDrain d);
bool fromString(const std::string& s, BatchDrain& out);

/// What the Driver does with a crashed rank after restoring the last
/// checkpoint (README "Checkpoint / recovery").
enum class RecoveryMode {
  /// The dead rank rejoins blank and chare placement is unchanged — the
  /// stand-in for Charm++ restarting the failed process on a spare node.
  /// With the rank count restored the re-run is bitwise the fault-free run.
  kRestart,
  /// The dead rank stays dead; decomposition re-places all chares over
  /// the surviving ranks (Charm++ restarting with fewer processors).
  /// Physics then matches the fault-free run to accumulation-order
  /// round-off (<= 1e-12 relative), not bitwise.
  kShrink,
};

std::string toString(RecoveryMode m);
bool fromString(const std::string& s, RecoveryMode& out);

/// How much failure the Driver tolerates before changing strategy or
/// giving up (README "Resilience"). Mirrors the restart budgets real
/// schedulers put around crash-looping nodes: restart with backoff while
/// the budget lasts, then stop readmitting the flapping rank (escalate
/// restart → shrink), and fail loudly once recovery itself has been
/// exercised past the global budget.
struct RecoveryPolicy {
  /// Restart recoveries granted to one rank before the Driver stops
  /// readmitting it and escalates to shrink mode for that crash
  /// (0 = never restart, shrink immediately).
  int max_restarts_per_rank = 3;
  /// Pause before a restart recovery, doubled per consecutive restart of
  /// the worst-offending rank (capped at 8x); 0 restarts immediately.
  double restart_backoff_ms = 0.0;
  /// Total recoveries (restart or shrink) across the whole run before
  /// Driver::run() throws with a diagnostic instead of trying again;
  /// -1 = unbounded.
  int max_recoveries = 16;

  /// Empty when valid, else a message naming the offending field.
  std::string validate() const;
};

/// Run and performance parameters of a simulation, mirroring the paper's
/// Configuration object (Section II.D.2). Applications fill this in
/// Driver::configure().
struct Configuration {
  // --- problem setup -------------------------------------------------------
  /// Optional snapshot to load particles from (util/snapshot.hpp format);
  /// Driver::run() uses it when no particles are passed directly.
  std::string input_file;
  int num_iterations = 1;

  // --- structure -----------------------------------------------------------
  TreeType tree_type = TreeType::eOct;
  DecompType decomp_type = DecompType::eSfc;
  /// Minimum numbers of chares; actual counts may exceed (eOct rounding).
  int min_partitions = 8;
  int min_subtrees = 8;
  /// Maximum particles per leaf bucket.
  int bucket_size = 12;

  // --- performance hyperparameters (Section II.D.2) ------------------------
  /// Levels of tree shipped per cache-fill response ("number of nodes
  /// fetched per request").
  int fetch_depth = 3;
  /// Extra top levels of each Subtree proactively broadcast to every
  /// process along with the branch nodes.
  int share_levels = 0;
  CacheModel cache_model = CacheModel::kWaitFree;
  /// How EvalKernel::kBatched drains sealed interaction lists: kOverlap
  /// (dataflow — buckets drain as their walks retire, overlapping kernel
  /// work with the remaining walk) or kBarrier (the bulk-synchronous
  /// record-everything-then-drain reference). Per-bucket evaluation is
  /// identical in both modes.
  BatchDrain batch_drain = BatchDrain::kOverlap;
  /// Iterations between load-rebalance steps (0 = never); the Driver
  /// rebalances with `lb_scheme` after every lb_period-th traversal.
  int lb_period = 0;
  LbScheme lb_scheme = LbScheme::kSfc;

  // --- resilience (README "Resilience") ------------------------------------
  /// Seeded fault schedule + reliable-delivery / watchdog knobs. Disabled
  /// by default; Driver::run() applies it to the Runtime via
  /// configureFaults() when enabled (or when a drain deadline is set).
  rts::FaultConfig fault{};

  // --- transport (README "Running ranks as processes") ----------------------
  /// Which backend carries cross-rank messages: "inproc" (default,
  /// per-proc queues in one address space) or "tcp" (each rank a forked
  /// OS process speaking length-prefixed frames over sockets). The
  /// Runtime is constructed before the Driver sees the Configuration, so
  /// applications plumb this into Runtime::Config::transport themselves
  /// (the bundled binaries parse it with bench::ArgParser::transport()
  /// and set both); carrying it here keeps selection declarative and
  /// validated alongside every other run parameter.
  rts::TransportConfig transport{};

  // --- checkpoint / recovery (README "Checkpoint / recovery") ---------------
  /// Double in-memory checkpoint cadence: after every checkpoint_every-th
  /// completed iteration each rank commits its Partitions' particle state
  /// to the CheckpointStore (own copy + buddy copy). 0 disables
  /// checkpointing — a rank crash then surfaces as QuiescenceTimeout.
  int checkpoint_every = 0;
  /// How a crashed rank is treated after recovery.
  RecoveryMode recovery_mode = RecoveryMode::kRestart;
  /// Budgets around the recovery loop: per-rank restart limits with
  /// backoff, restart → shrink escalation, and a global recovery budget.
  RecoveryPolicy recovery{};
  /// When non-empty, every sealed checkpoint generation is also persisted
  /// to this directory (created if missing) as `ckpt_<step>/`: the
  /// verbatim chunk stream + MANIFEST written crash-consistently
  /// (rts::DurableStore), lossless, CRC-verified, and what `resume`
  /// restores from after whole-job death. The write overlaps the next
  /// step, so until run() returns the newest generation on disk may lag
  /// the newest sealed one by one checkpoint.
  std::string checkpoint_dir;
  /// On-disk generations retained under checkpoint_dir (>= 1): older
  /// `ckpt_<step>/` directories are garbage-collected as new ones land,
  /// so at most checkpoint_keep + 1 ever exist (the extra being the one
  /// mid-rename). Two generations mirror the in-memory double buffer: a
  /// job killed mid-persist of the newest still resumes from the older.
  int checkpoint_keep = 2;
  /// Resume from checkpoint_dir instead of starting over: Driver::run()
  /// scans for the newest on-disk generation whose manifest and chunk
  /// CRCs verify (falling back past damaged ones), restores it, and
  /// continues from the following iteration. Physics is bitwise the
  /// uninterrupted run's. An empty checkpoint_dir with resume set is
  /// rejected by validate(); an existing-but-empty directory starts
  /// fresh (so `--resume` is safe to pass unconditionally).
  bool resume = false;

  /// Bits per tree level implied by tree_type (3 for octrees, 1 for the
  /// binary trees).
  int bitsPerLevel() const { return tree_type == TreeType::eOct ? 3 : 1; }

  /// Check the run parameters for values that would silently misbehave
  /// (non-positive bucket sizes, zero fetch depth, negative periods, ...).
  /// Returns an empty string when valid, else a descriptive error naming
  /// the offending field and value. Driver::run() calls this and throws.
  std::string validate() const;

  /// Compatibility stamp written into every durable generation's MANIFEST
  /// and checked on resume: a hash of every parameter that shapes the
  /// restored state or its deterministic evolution (tree/decomp shape,
  /// chare minimums, bucket/fetch/cache choices, load balancing)
  /// plus the particle count. Deliberately *excluded*: num_iterations
  /// (extending a run is the point of resuming), transport (inproc and
  /// tcp are bitwise-equivalent), checkpoint cadence/retention, and the
  /// fault schedule (resilience must not change physics). Application-
  /// level parameters (e.g. gravity's theta) are outside Configuration
  /// and therefore outside the stamp — keep them stable across resumes.
  std::uint64_t compatibilityHash(std::uint64_t particle_count) const;

  /// The tree-consistent decomposition used for Subtrees.
  DecompType subtreeDecomp() const {
    switch (tree_type) {
      case TreeType::eOct: return DecompType::eOct;
      case TreeType::eKd: return DecompType::eKd;
      case TreeType::eLongest: return DecompType::eLongest;
    }
    return DecompType::eOct;
  }
};

}  // namespace paratreet
