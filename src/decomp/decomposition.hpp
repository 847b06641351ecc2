#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tree/particle.hpp"
#include "util/box.hpp"
#include "util/key.hpp"

namespace paratreet {

/// Decomposition strategies offered by the framework (paper Section II.C).
/// Partitions (load) and Subtrees (memory) are decomposed independently;
/// a Subtree decomposition must be consistent with the chosen tree type.
enum class DecompType {
  eSfc,      ///< equal-count slices of the space-filling curve
  eOct,      ///< octree regions (BFS split of heaviest nodes)
  eKd,       ///< k-d median splits, cycling dimensions
  eLongest,  ///< median splits along the longest box dimension
};

std::string toString(DecompType t);
/// Parse the toString() spelling (case-sensitive); false on unknown input.
bool fromString(const std::string& s, DecompType& out);

/// Executor handed to the parallel-histogram decomposition path: run a
/// batch of independent closures to completion, possibly concurrently.
/// ways() is the preferred fan-out — counting passes split their input
/// into that many chunks.
class ParallelFor {
 public:
  virtual ~ParallelFor() = default;
  virtual int ways() const { return 1; }
  /// Run fn(0) .. fn(n_tasks-1) and return once every call completed.
  /// Distinct tasks must touch disjoint state; the executor gives no
  /// ordering guarantee between them.
  virtual void run(int n_tasks, const std::function<void(int)>& fn) = 0;
};

/// Inline executor: runs every task on the calling thread (tests and
/// runtime-less callers).
class SerialFor final : public ParallelFor {
 public:
  void run(int n_tasks, const std::function<void(int)>& fn) override {
    for (int i = 0; i < n_tasks; ++i) fn(i);
  }
};

namespace decomp {

/// Half-open element range of chunk `i` when `n` elements are split
/// `chunks` ways (same proportional split everywhere in the pipeline, so
/// counting and writing passes see identical chunks).
struct ChunkRange {
  std::size_t begin{0}, end{0};
};

inline ChunkRange chunkOf(std::size_t n, int chunks, int i) {
  const auto c = static_cast<std::size_t>(chunks);
  const auto k = static_cast<std::size_t>(i);
  return {n * k / c, n * (k + 1) / c};
}

/// Compact per-chunk-sorted key scratch — the histogramming data layout.
/// Each chunk gathers its particles' 8-byte keys and sorts them locally
/// (the only O(n log n) work, and it parallelizes perfectly); afterwards
/// pricing a candidate splitter costs one binary search per chunk
/// instead of a pass over all n particles, so the bisection rounds run
/// on the caller with no per-round fan-out at all. The scratch depends
/// only on particle keys, so one instance can be shared by several
/// findSplittersHistogram() calls over the same (keyed) particle set.
class SortedKeyScratch {
 public:
  SortedKeyScratch(std::span<const Particle> particles, ParallelFor& par,
                   int chunks);

  /// Number of keys strictly below `s` (the histogram reduction: each
  /// chunk contributes its local count).
  std::size_t cntBelow(std::uint64_t s) const;

 private:
  std::vector<std::uint64_t> keys_;
  std::size_t n_;
  int chunks_;
};

}  // namespace decomp

/// A tree-consistent region produced by a decomposition: the root of one
/// Subtree. `key` is the tree-node key of the region (octree keys for
/// eOct, binary-path keys for eKd/eLongest, SFC-slice index keys for
/// eSfc which is not tree-consistent).
struct SubtreeRegion {
  Key key{keys::kRoot};
  int depth{0};
  OrientedBox box{};
  /// Number of particles assigned at decomposition time (load estimate).
  std::size_t count{0};
};

/// Base interface for decompositions, mirroring the paper's user-facing
/// `findSplitters()` customization point. A Decomposition is used in two
/// steps: a splitter call computes splitters from the full particle set
/// and writes each particle's piece id via `assign`; afterwards pieceOf()
/// maps any (possibly new) particle to its piece, used when particles
/// drift across boundaries between flushes.
///
/// There are two splitter calls with bit-identical results.
/// findSplittersHistogram() is the parallel pipeline Forest::decompose()
/// runs. findSplitters() is the serial sort-based reference: production
/// never calls it, and the tests and bench_decomp use it as the oracle
/// the parallel pipeline must match.
class Decomposition {
 public:
  virtual ~Decomposition() = default;

  /// Which field of Particle the assignment is written to.
  enum class Target { kPartition, kSubtree };

  /// Reference path: serially compute splitters over `particles` for (at
  /// least) `n_pieces` pieces and store each particle's piece id in the
  /// field selected by `target`. May reorder `particles`. Returns the
  /// number of pieces actually created (eOct can exceed the request).
  virtual int findSplitters(std::span<Particle> particles,
                            const OrientedBox& universe, int n_pieces,
                            Target target) = 0;

  /// Compute the same splitters as findSplitters() — piece assignments
  /// are bit-identical — without a global sort of `particles`, which is
  /// never reordered; work fans out through `par`. Key-based
  /// decompositions (eSfc, eOct) histogram candidate splitters over a
  /// SortedKeyScratch (the paper's ChaNGa-inherited scheme); a prebuilt
  /// `scratch` can be shared across calls on the same keyed particle set
  /// (built internally when null). Binary splits (eKd, eLongest) select
  /// each plane exactly over a compact coordinate copy and ignore
  /// `scratch`.
  virtual int findSplittersHistogram(
      std::span<Particle> particles, const OrientedBox& universe, int n_pieces,
      Target target, ParallelFor& par,
      const decomp::SortedKeyScratch* scratch = nullptr) = 0;

  /// Whether findSplittersHistogram() counts over a SortedKeyScratch;
  /// binary splits ignore it, so a caller builds none for them.
  virtual bool usesKeyScratch() const { return true; }

  /// Piece of a particle, valid after a splitter call.
  virtual int pieceOf(const Particle& p) const = 0;

  /// Regions of the pieces (valid after a splitter call); tree-consistent
  /// decompositions return one region per piece, eSfc returns {}.
  virtual std::vector<SubtreeRegion> regions() const { return {}; }

  virtual DecompType type() const = 0;

 protected:
  static void assign(Particle& p, Target target, int piece) {
    if (target == Target::kPartition) p.partition = piece;
    else p.subtree = piece;
  }
};

/// Space-filling-curve decomposition: particles are mapped to the Morton
/// curve (keys must be assigned) and the curve is cut into `n_pieces`
/// equal-count slices. Balances load well but is not consistent with any
/// tree type — exactly the combination the Partitions-Subtrees model
/// exists to support.
///
/// Splitter `p` is the smallest key `s` with at least n(p+1)/k particle
/// keys strictly below `s`: slice boundaries snap to the end of a run of
/// equal keys, so a run of coincident particles is never cut and
/// findSplitters()'s assignment always agrees with pieceOf().
class SfcDecomposition final : public Decomposition {
 public:
  int findSplitters(std::span<Particle> particles, const OrientedBox& universe,
                    int n_pieces, Target target) override;
  int findSplittersHistogram(
      std::span<Particle> particles, const OrientedBox& universe, int n_pieces,
      Target target, ParallelFor& par,
      const decomp::SortedKeyScratch* scratch = nullptr) override;
  int pieceOf(const Particle& p) const override;
  DecompType type() const override { return DecompType::eSfc; }

  /// Exclusive upper key bounds of each slice.
  const std::vector<std::uint64_t>& splitters() const { return splitters_; }

 private:
  std::vector<std::uint64_t> splitters_;
};

/// Octree decomposition: BFS-split the octree node with the most
/// particles until there are >= n_pieces nonempty regions. Regions are
/// octree nodes, so this is the tree-consistent decomposition for
/// OctTreeType. Inherits the octree's imbalance on irregular
/// distributions (the Fig 13 effect).
class OctDecomposition final : public Decomposition {
 public:
  int findSplitters(std::span<Particle> particles, const OrientedBox& universe,
                    int n_pieces, Target target) override;
  int findSplittersHistogram(
      std::span<Particle> particles, const OrientedBox& universe, int n_pieces,
      Target target, ParallelFor& par,
      const decomp::SortedKeyScratch* scratch = nullptr) override;
  int pieceOf(const Particle& p) const override;
  std::vector<SubtreeRegion> regions() const override { return regions_; }
  DecompType type() const override { return DecompType::eOct; }

 private:
  /// Finish either path: `leaves` are the final (key, depth, count)
  /// regions in Morton order; fills regions_/range_starts_.
  void commitRegions(const std::vector<std::tuple<Key, int, std::size_t>>& leaves,
                     const OrientedBox& universe);

  std::vector<SubtreeRegion> regions_;  ///< sorted by key's Morton range
  std::vector<std::uint64_t> range_starts_;  ///< Morton range start per region
};

/// Binary median-split decomposition. With `kCycleDims` the split
/// dimension cycles with depth (k-d); otherwise it follows the longest
/// box side (longest-dimension, the Section IV case-study decomposition).
/// Produces exactly n_pieces pieces with near-equal counts by splitting
/// particle counts proportionally for non-power-of-two piece counts.
///
/// A split plane is the cut-th order statistic of the region's particle
/// coordinates along the split dimension, and particles partition by the
/// pieceOf() rule (`coordinate < plane` goes left) — under ties at the
/// plane both findSplitters() paths and pieceOf() agree.
/// findSplittersHistogram() builds the same plane tree level by level:
/// it gathers `{x, y, z, index}` records once, then per region selects
/// the plane with nth_element (in an order that ranks -0.0 below +0.0,
/// so the plane is fixed bit for bit) and partitions the region's record
/// range, which gives the exact left count; the regions of a level run
/// as independent tasks.
class BinarySplitDecomposition : public Decomposition {
 public:
  enum class Mode { kCycleDims, kLongestDim };

  explicit BinarySplitDecomposition(Mode mode) : mode_(mode) {}

  int findSplitters(std::span<Particle> particles, const OrientedBox& universe,
                    int n_pieces, Target target) override;
  int findSplittersHistogram(
      std::span<Particle> particles, const OrientedBox& universe, int n_pieces,
      Target target, ParallelFor& par,
      const decomp::SortedKeyScratch* scratch = nullptr) override;
  bool usesKeyScratch() const override { return false; }
  int pieceOf(const Particle& p) const override;
  std::vector<SubtreeRegion> regions() const override { return regions_; }
  DecompType type() const override {
    return mode_ == Mode::kCycleDims ? DecompType::eKd : DecompType::eLongest;
  }

 private:
  struct PlaneNode {
    std::size_t dim{0};
    double plane{0.0};
    int left{-1};   ///< index into nodes_, or ~piece when negative
    int right{-1};  ///< encoded as -(piece+1) at leaves
  };

  int splitRecursive(std::span<Particle> particles, const OrientedBox& box,
                     Key key, int depth, int n_pieces, int first_piece,
                     Target target);

  std::size_t splitDimension(const OrientedBox& box, int depth) const {
    return mode_ == Mode::kCycleDims ? static_cast<std::size_t>(depth) % 3
                                     : box.longestDimension();
  }

  Mode mode_;
  std::vector<PlaneNode> nodes_;
  std::vector<SubtreeRegion> regions_;
  int root_{-1};
};

/// Factory for the built-in decompositions.
std::unique_ptr<Decomposition> makeDecomposition(DecompType type);

}  // namespace paratreet
