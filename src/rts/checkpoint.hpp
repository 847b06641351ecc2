#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "observability/metrics.hpp"

namespace paratreet::rts {

class Runtime;

/// Charm++-style double in-memory checkpointing (Zheng, Shi & Kalé):
/// after every K-th step each rank serializes its application state into
/// an opaque byte chunk and commits it here — one copy stays in the
/// owner's memory, a second is shipped to a *buddy* rank (the next live
/// rank, ring order). When a rank dies its own copies die with it
/// (markLost() models the memory loss), but the buddy still holds the
/// chunk, so the full system state of the last sealed generation remains
/// reconstructible as long as no two adjacent ranks fail together.
///
/// The store is byte-generic: it never looks inside a chunk. Particle
/// encoding/decoding lives with the forest (core/serialization.hpp).
///
/// Generation protocol: commits for step S may land in any order from
/// any rank's worker; the orchestrator calls seal(S) only after a
/// successful drain, i.e. every local slot and every buddy copy of S is
/// in place. A crash mid-checkpoint simply never seals S, and recovery
/// falls back to the previous sealed generation (the last two are kept).
class CheckpointStore {
 public:
  /// Step label for "no restorable generation".
  static constexpr int kNoStep = std::numeric_limits<int>::min();

  CheckpointStore() = default;
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Bind to a runtime (for buddy placement + the copy send) and
  /// optionally a metrics registry: checkpoint.bytes is registered
  /// immediately so fault-free reports still show it, pinned at zero.
  void init(Runtime* rt, obs::MetricsRegistry* metrics);

  /// The next live rank after `rank` in ring order (self when it is the
  /// only live rank — then no second copy exists and a crash of that
  /// rank is unrecoverable, as in the real protocol).
  int buddyOf(int rank) const;

  /// Commit one rank's chunk for step `step`. Called on that rank's
  /// worker: the local slot is written synchronously and a copy is sent
  /// to the buddy (counted by the runtime as ordinary message traffic).
  /// The caller's drain() covers the buddy copy's delivery.
  void commit(int rank, int step, std::vector<std::byte> bytes);

  /// Declare generation `step` complete. Call only after a successful
  /// drain following the commits. Keeps the last two sealed generations.
  void seal(int step);

  /// Model the memory loss of a dead rank: wipes everything stored in
  /// its memory — its own chunks and the buddy copies it held for others.
  void markLost(int rank);

  /// Newest sealed step restorable given the lost ranks: every rank must
  /// have either its own chunk (surviving ranks) or a buddy copy held by
  /// a surviving rank. kNoStep when no generation qualifies.
  int latestRestorableStep() const;

  /// Gather the per-rank chunks of sealed generation `step`, preferring
  /// each rank's own copy and falling back to a buddy copy. Throws
  /// std::runtime_error when a rank's chunk is unrecoverable.
  std::vector<std::vector<std::byte>> assemble(int step) const;

  bool sealed(int step) const;

  /// Chaos/test hook: flip one byte of a stored copy of (owner, step) —
  /// the owner's own copy when `rank == owner`, else the buddy copy rank
  /// `rank` holds for `owner`. Models memory corruption of checkpoint
  /// state (bit rot, DMA scribbles). Returns false when no such copy is
  /// stored. Recovery detects the damage via the stored checksum and
  /// falls back — to the other copy, or to an older sealed generation.
  bool corruptStoredChunk(int rank, int owner, int step);

 private:
  struct Chunk {
    int step = kNoStep;
    std::vector<std::byte> bytes;
    /// CRC32C of `bytes` stamped when the copy entered this memory;
    /// re-verified at restore so bit rot in a stored copy is detected.
    std::uint32_t crc = 0;
  };
  /// Does the stored copy still match its stamp?
  static bool intact(const Chunk& c);
  /// Everything resident in one rank's memory. `own` holds the rank's
  /// last two chunks; `held` the buddy copies it keeps for other ranks
  /// (keyed by owner), also two generations deep.
  struct RankMemory {
    mutable std::mutex mutex;
    std::vector<Chunk> own;
    std::map<int, std::vector<Chunk>> held;
    bool lost = false;
  };

  /// Runs on the buddy's worker when the copy message arrives.
  void storeHeld(int holder, int owner, int step, std::vector<std::byte> b);
  static void keepLastTwo(std::vector<Chunk>& gens, Chunk chunk);
  static const Chunk* find(const std::vector<Chunk>& gens, int step);

  Runtime* rt_ = nullptr;
  std::vector<std::unique_ptr<RankMemory>> memory_;
  mutable std::mutex seal_mutex_;
  std::vector<int> sealed_;  // ascending, at most the last two

  obs::Counter* bytes_metric_ = nullptr;
};

/// Disk-based complement of the in-memory double checkpoint (the other
/// half of the Charm++ lineage: Zheng/Kalé's on-disk checkpoint/restart).
/// In-memory buddy copies survive *rank* deaths; this survives *job*
/// death — OOM-killed parent, node reboot, container preemption — by
/// persisting each sealed generation verbatim to a generation directory:
///
///   <dir>/ckpt_<step>/chunks.bin   the per-rank serialized chunks, byte
///                                  for byte what CheckpointStore holds
///                                  (CheckpointChunkHeader + CRC intact)
///   <dir>/ckpt_<step>/MANIFEST     step, chunk count/offsets/CRCs, a
///                                  whole-file CRC, particle count, and a
///                                  config/dataset compatibility hash,
///                                  ending in a self-CRC
///
/// Crash consistency: everything is written into `ckpt_<step>.tmp/`,
/// fsync'd (each file, then the directory), and atomically rename()d to
/// `ckpt_<step>/`, then the parent directory is fsync'd — so a generation
/// is either fully present or invisible, never half-written at its final
/// name. The newest `keep` generations are retained; older ones and stale
/// `.tmp` leftovers from a previous death are garbage-collected, so at
/// most keep+1 generation directories ever exist (keep finals plus the
/// one being renamed in).
///
/// Like CheckpointStore the store is byte-generic: chunks are opaque.
/// Verification at load time is purely structural (CRCs + manifest
/// cross-checks); decoding stays with core/serialization.hpp.
class DurableStore {
 public:
  struct Options {
    /// Root directory for generation directories; created (with parents)
    /// by open() when missing.
    std::string dir;
    /// Sealed generations retained on disk (>= 1).
    int keep = 2;
    /// Config/dataset compatibility stamp (Configuration hash + particle
    /// count). A mismatch at load time is a *hard* error — resuming a
    /// checkpoint into a differently-shaped run would silently compute
    /// garbage — unlike CRC damage, which falls back a generation.
    std::uint64_t config_hash = 0;
    /// FaultKind::kTornWrite: keep the newest generation deterministically
    /// torn (see FaultConfig::torn_write), repairing it when a newer one
    /// lands. Tear choice derives from (torn_seed, step).
    bool torn_write = false;
    std::uint64_t torn_seed = 0;
    /// Called once per injected tear so the runtime's fault counters stay
    /// authoritative (rts.faults_injected.torn_write).
    std::function<void()> on_torn;
  };

  /// A verified on-disk generation, ready for Forest::restoreFromChunks.
  struct Recovered {
    int step = CheckpointStore::kNoStep;
    std::vector<std::vector<std::byte>> chunks;
    std::uint64_t particle_count = 0;
    /// Newer generations that existed but failed verification (each one
    /// fell back past); their failure reasons are in `diagnostic`.
    int generations_skipped = 0;
    std::string diagnostic;
  };

  /// Bind the options, create `dir` (and parents) when missing, and
  /// remove stale `ckpt_*.tmp` directories left by a previous death.
  void open(Options opts);

  /// Persist one sealed generation crash-consistently (write tmp → fsync
  /// files → fsync tmp dir → rename → fsync parent), then GC down to the
  /// newest `keep` generations. An existing `ckpt_<step>/` is replaced
  /// (recovery can rewind and re-persist a step). chunks.bin is written
  /// from `chunks` in order, never concatenated in memory. Returns the
  /// bytes written (chunks + manifest). Throws std::runtime_error on IO
  /// errors. May run on any thread (Driver runs it on a background
  /// writer), but only one persist at a time; on_torn runs on that thread.
  std::uint64_t persist(int step,
                        const std::vector<std::vector<std::byte>>& chunks,
                        std::uint64_t particle_count);

  /// Scan for generations, newest first, and return the newest whose
  /// manifest and chunk CRCs all verify — falling back generation by
  /// generation past damaged ones (each recorded in the result's
  /// diagnostic). Returns nullopt when no generation directory exists at
  /// all (fresh start). Throws std::runtime_error when generations exist
  /// but none verifies (the diagnostic names every one and why), and on
  /// a config-hash mismatch (wrong dataset/config — never restorable).
  std::optional<Recovered> loadNewestVerified() const;

  /// Steps of the complete (renamed-in) generations on disk, ascending.
  std::vector<int> generationSteps() const;

  const Options& options() const { return opts_; }

 private:
  std::string genDir(int step) const;
  void gcOldGenerations();
  /// FaultKind::kTornWrite: tear the just-persisted generation after
  /// repairing the previously torn one (intact bytes kept in memory).
  void tearNewestRepairOlder(int step);

  Options opts_;
  bool opened_ = false;
  /// Torn-write bookkeeping: the currently-torn step and the intact file
  /// bytes to restore once a newer generation supersedes it.
  int torn_step_ = CheckpointStore::kNoStep;
  std::vector<std::byte> torn_chunks_backup_;
  std::vector<std::byte> torn_manifest_backup_;
};

}  // namespace paratreet::rts
