#include "decomp/decomposition.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>
#include <queue>
#include <tuple>

namespace paratreet {

std::string toString(DecompType t) {
  switch (t) {
    case DecompType::eSfc: return "sfc";
    case DecompType::eOct: return "oct";
    case DecompType::eKd: return "kd";
    case DecompType::eLongest: return "longest";
  }
  return "?";
}

bool fromString(const std::string& s, DecompType& out) {
  if (s == "sfc") out = DecompType::eSfc;
  else if (s == "oct") out = DecompType::eOct;
  else if (s == "kd") out = DecompType::eKd;
  else if (s == "longest") out = DecompType::eLongest;
  else return false;
  return true;
}

std::string toString(DecompImpl i) {
  switch (i) {
    case DecompImpl::kSort: return "sort";
    case DecompImpl::kHistogram: return "histogram";
  }
  return "?";
}

bool fromString(const std::string& s, DecompImpl& out) {
  if (s == "sort") out = DecompImpl::kSort;
  else if (s == "histogram") out = DecompImpl::kHistogram;
  else return false;
  return true;
}

namespace decomp {

// Sorting the 8-byte scratch instead of the wide Particle structs is
// ~24x less memory traffic than the sort path's two full sorts, which is
// what lets the histogram pipeline win even on a single worker.
SortedKeyScratch::SortedKeyScratch(std::span<const Particle> particles,
                                   ParallelFor& par, int chunks)
    : keys_(particles.size()), n_(particles.size()), chunks_(chunks) {
  par.run(chunks, [&](int c) {
    const auto r = chunkOf(n_, chunks_, c);
    for (std::size_t i = r.begin; i < r.end; ++i) {
      keys_[i] = particles[i].key;
    }
    std::sort(keys_.begin() + static_cast<std::ptrdiff_t>(r.begin),
              keys_.begin() + static_cast<std::ptrdiff_t>(r.end));
  });
}

std::size_t SortedKeyScratch::cntBelow(std::uint64_t s) const {
  std::size_t cnt = 0;
  for (int c = 0; c < chunks_; ++c) {
    const auto r = chunkOf(n_, chunks_, c);
    const auto first = keys_.begin() + static_cast<std::ptrdiff_t>(r.begin);
    const auto last = keys_.begin() + static_cast<std::ptrdiff_t>(r.end);
    cnt += static_cast<std::size_t>(std::lower_bound(first, last, s) - first);
  }
  return cnt;
}

}  // namespace decomp

namespace {

/// Probe values for one refinement round of a bracket [lo, hi): up to
/// `probes` values strictly inside, evenly spaced; when few candidates
/// remain every interior value is probed, so the bracket resolves. The
/// values are exactly lo + floor(span*q/(m+1)) computed overflow-free.
void appendProbes(std::uint64_t lo, std::uint64_t hi, int probes,
                  std::vector<std::uint64_t>& out) {
  const std::uint64_t span = hi - lo;
  const auto m = std::min<std::uint64_t>(static_cast<std::uint64_t>(probes),
                                         span - 1);
  const std::uint64_t step = span / (m + 1), rem = span % (m + 1);
  for (std::uint64_t q = 1; q <= m; ++q) {
    out.push_back(lo + step * q + rem * q / (m + 1));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SFC

int SfcDecomposition::findSplitters(std::span<Particle> particles,
                                    const OrientedBox& /*universe*/,
                                    int n_pieces, Target target) {
  assert(n_pieces > 0);
  std::sort(particles.begin(), particles.end(),
            [](const Particle& a, const Particle& b) { return a.key < b.key; });
  splitters_.clear();
  const std::size_t n = particles.size();
  for (int piece = 0; piece < n_pieces; ++piece) {
    // Splitter p: the smallest key with at least t = n(p+1)/k keys
    // strictly below it. On sorted data that is key[t-1] + 1 — one past
    // the *end* of the run of equal keys straddling index t, so a run of
    // coincident particles is never cut and pieceOf() (upper_bound over
    // splitters) agrees with the assignment below for every particle.
    const std::size_t t = n * (static_cast<std::size_t>(piece) + 1) /
                          static_cast<std::size_t>(n_pieces);
    splitters_.push_back(t == 0 ? 0 : particles[t - 1].key + 1);
  }
  for (auto& p : particles) assign(p, target, pieceOf(p));
  return n_pieces;
}

int SfcDecomposition::findSplittersHistogram(
    std::span<Particle> particles, const OrientedBox& /*universe*/,
    int n_pieces, Target target, ParallelFor& par, int probes,
    const decomp::SortedKeyScratch* scratch) {
  assert(n_pieces > 0 && probes >= 1);
  const std::size_t n = particles.size();
  const int chunks = std::max(1, par.ways());
  std::optional<decomp::SortedKeyScratch> own;
  if (scratch == nullptr) scratch = &own.emplace(particles, par, chunks);
  const decomp::SortedKeyScratch& keys = *scratch;

  // One bracket per splitter with a nonzero target: cntBelow(lo) < t and
  // cntBelow(hi) >= t, where cntBelow(s) = #(key < s). Keys are 63-bit,
  // so hi = 2^63 satisfies the invariant initially; the answer — the
  // smallest s with cntBelow(s) >= t, identical to the sort path's
  // key[t-1] + 1 — is hi once the bracket narrows to one candidate.
  // Counting over the chunk-sorted scratch is O(chunks log n) per probe,
  // so the bisection runs entirely on the caller.
  splitters_.assign(static_cast<std::size_t>(n_pieces), 0);
  std::vector<std::uint64_t> probe_buf;
  for (int piece = 0; piece < n_pieces; ++piece) {
    const std::size_t t = n * (static_cast<std::size_t>(piece) + 1) /
                          static_cast<std::size_t>(n_pieces);
    if (t == 0) continue;
    std::uint64_t lo = 0, hi = std::uint64_t{1} << keys::kMortonBits;
    while (hi - lo > 1) {
      probe_buf.clear();
      appendProbes(lo, hi, probes, probe_buf);
      // Probes ascend, so lo ratchets up to the last undershooting value
      // and hi snaps to the first value meeting the target.
      for (const std::uint64_t v : probe_buf) {
        if (keys.cntBelow(v) < t) lo = v;
        else { hi = v; break; }
      }
    }
    splitters_[static_cast<std::size_t>(piece)] = hi;
  }

  par.run(chunks, [&](int c) {
    const auto r = decomp::chunkOf(n, chunks, c);
    for (std::size_t i = r.begin; i < r.end; ++i) {
      assign(particles[i], target, pieceOf(particles[i]));
    }
  });
  return n_pieces;
}

int SfcDecomposition::pieceOf(const Particle& p) const {
  auto it = std::upper_bound(splitters_.begin(), splitters_.end(), p.key);
  if (it == splitters_.end()) --it;
  return static_cast<int>(it - splitters_.begin());
}

// ---------------------------------------------------------------------------
// Oct

namespace {

/// Morton-range start of an octree node key: the key's path bits shifted
/// up to the full Morton width.
std::uint64_t mortonRangeStart(Key k) {
  const int lvl = keys::level(k, 3);
  const Key path = k ^ (Key{1} << (3 * lvl));  // strip the level marker
  return path << (keys::kMortonBits - 3 * lvl);
}

}  // namespace

int OctDecomposition::findSplitters(std::span<Particle> particles,
                                    const OrientedBox& universe, int n_pieces,
                                    Target target) {
  assert(n_pieces > 0);
  std::sort(particles.begin(), particles.end(),
            [](const Particle& a, const Particle& b) { return a.key < b.key; });

  // A candidate region: an octree node covering particles [begin, end).
  struct Region {
    Key key;
    int depth;
    std::size_t begin, end;
    std::size_t count() const { return end - begin; }
  };
  auto heavier = [](const Region& a, const Region& b) {
    return a.count() < b.count();
  };
  std::priority_queue<Region, std::vector<Region>, decltype(heavier)> queue(
      heavier);
  queue.push({keys::kRoot, 0, 0, particles.size()});
  std::vector<Region> leaves;

  // Split the heaviest region into its octants until enough pieces exist.
  // Empty octants are dropped; regions at max depth become final.
  while (!queue.empty() &&
         static_cast<int>(queue.size() + leaves.size()) < n_pieces) {
    Region r = queue.top();
    queue.pop();
    if (r.depth >= keys::kMortonBitsPerDim || r.count() <= 1) {
      leaves.push_back(r);
      continue;
    }
    const int shift = keys::kMortonBits - 3 * (r.depth + 1);
    std::size_t begin = r.begin;
    for (unsigned c = 0; c < 8; ++c) {
      auto it = std::upper_bound(
          particles.begin() + static_cast<std::ptrdiff_t>(begin),
          particles.begin() + static_cast<std::ptrdiff_t>(r.end), c,
          [shift](unsigned octant, const Particle& p) {
            return octant < ((p.key >> shift) & 0x7u);
          });
      const auto end = static_cast<std::size_t>(it - particles.begin());
      if (end > begin) {
        queue.push({keys::child(r.key, c, 3), r.depth + 1, begin, end});
      }
      begin = end;
    }
  }
  while (!queue.empty()) {
    leaves.push_back(queue.top());
    queue.pop();
  }

  std::sort(leaves.begin(), leaves.end(),
            [](const Region& a, const Region& b) { return a.begin < b.begin; });

  std::vector<std::tuple<Key, int, std::size_t>> final_leaves;
  final_leaves.reserve(leaves.size());
  for (const Region& r : leaves) {
    final_leaves.emplace_back(r.key, r.depth, r.count());
  }
  commitRegions(final_leaves, universe);
  for (std::size_t piece = 0; piece < leaves.size(); ++piece) {
    const Region& r = leaves[piece];
    for (std::size_t i = r.begin; i < r.end; ++i) {
      assign(particles[i], target, static_cast<int>(piece));
    }
  }
  return static_cast<int>(regions_.size());
}

int OctDecomposition::findSplittersHistogram(
    std::span<Particle> particles, const OrientedBox& universe, int n_pieces,
    Target target, ParallelFor& par, int /*probes*/,
    const decomp::SortedKeyScratch* scratch) {
  assert(n_pieces > 0);
  const std::size_t n = particles.size();
  const int chunks = std::max(1, par.ways());
  std::optional<decomp::SortedKeyScratch> own;
  if (scratch == nullptr) scratch = &own.emplace(particles, par, chunks);
  const decomp::SortedKeyScratch& keys = *scratch;

  // Mirror the sort path's heaviest-first split loop exactly — identical
  // push sequence (nonempty children in octant order, identical counts)
  // with the same comparator means the heap evolves identically, so both
  // paths pop the same regions and produce the same leaves. A region at
  // depth d covers exactly the Morton range [start, start + 8^(21-d)),
  // so each child's count is a range count on the chunk-sorted scratch —
  // no per-split pass over the particles at all.
  struct Region {
    Key key;
    int depth;
    std::size_t count;
  };
  auto heavier = [](const Region& a, const Region& b) {
    return a.count < b.count;
  };
  std::priority_queue<Region, std::vector<Region>, decltype(heavier)> queue(
      heavier);
  queue.push({keys::kRoot, 0, n});
  std::vector<Region> leaves;

  while (!queue.empty() &&
         static_cast<int>(queue.size() + leaves.size()) < n_pieces) {
    Region r = queue.top();
    queue.pop();
    if (r.depth >= keys::kMortonBitsPerDim || r.count <= 1) {
      leaves.push_back(r);
      continue;
    }
    const int shift = keys::kMortonBits - 3 * (r.depth + 1);
    std::uint64_t boundary = mortonRangeStart(r.key);
    std::size_t below = keys.cntBelow(boundary);
    for (unsigned c8 = 0; c8 < 8; ++c8) {
      boundary += std::uint64_t{1} << shift;
      const std::size_t next = keys.cntBelow(boundary);
      const std::size_t cnt = next - below;
      below = next;
      if (cnt > 0) queue.push({keys::child(r.key, c8, 3), r.depth + 1, cnt});
    }
  }
  while (!queue.empty()) {
    leaves.push_back(queue.top());
    queue.pop();
  }

  // Regions are disjoint key ranges, so Morton-range order reproduces the
  // sort path's sort-by-begin order.
  std::sort(leaves.begin(), leaves.end(), [](const Region& a, const Region& b) {
    return mortonRangeStart(a.key) < mortonRangeStart(b.key);
  });
  std::vector<std::tuple<Key, int, std::size_t>> final_leaves;
  final_leaves.reserve(leaves.size());
  for (const Region& r : leaves) {
    final_leaves.emplace_back(r.key, r.depth, r.count);
  }
  commitRegions(final_leaves, universe);

  par.run(chunks, [&](int c) {
    const auto cr = decomp::chunkOf(n, chunks, c);
    for (std::size_t i = cr.begin; i < cr.end; ++i) {
      assign(particles[i], target, pieceOf(particles[i]));
    }
  });
  return static_cast<int>(regions_.size());
}

void OctDecomposition::commitRegions(
    const std::vector<std::tuple<Key, int, std::size_t>>& leaves,
    const OrientedBox& universe) {
  regions_.clear();
  range_starts_.clear();
  for (const auto& [key, depth, count] : leaves) {
    regions_.push_back({key, depth, keys::boxForOctKey(key, universe), count});
    range_starts_.push_back(mortonRangeStart(key));
  }
}

int OctDecomposition::pieceOf(const Particle& p) const {
  assert(!range_starts_.empty());
  auto it = std::upper_bound(range_starts_.begin(), range_starts_.end(), p.key);
  assert(it != range_starts_.begin());
  return static_cast<int>(it - range_starts_.begin()) - 1;
}

// ---------------------------------------------------------------------------
// Binary splits (k-d / longest-dimension)

namespace {

/// Order-preserving (w.r.t. double <) mapping from double to uint64, so
/// split planes are selected in a total order. -0.0 maps just below +0.0
/// — a tie-break refinement of the double order, which leaves every order
/// statistic double-equal to the nth_element result.
std::uint64_t mapDouble(double x) {
  const auto u = std::bit_cast<std::uint64_t>(x);
  return (u >> 63) ? ~u : (u | (std::uint64_t{1} << 63));
}

}  // namespace

int BinarySplitDecomposition::findSplitters(std::span<Particle> particles,
                                            const OrientedBox& universe,
                                            int n_pieces, Target target) {
  assert(n_pieces > 0);
  nodes_.clear();
  regions_.clear();
  regions_.resize(static_cast<std::size_t>(n_pieces));
  root_ = splitRecursive(particles, universe, keys::kRoot, 0, n_pieces, 0,
                         target);
  return n_pieces;
}

int BinarySplitDecomposition::splitRecursive(std::span<Particle> particles,
                                             const OrientedBox& box, Key key,
                                             int depth, int n_pieces,
                                             int first_piece, Target target) {
  if (n_pieces == 1) {
    for (auto& p : particles) assign(p, target, first_piece);
    regions_[static_cast<std::size_t>(first_piece)] =
        SubtreeRegion{key, depth, box, particles.size()};
    return -(first_piece + 1);
  }
  const int left_pieces = n_pieces / 2;
  // Proportional cut keeps counts even for non-power-of-two piece counts.
  const std::size_t cut = particles.size() *
                          static_cast<std::size_t>(left_pieces) /
                          static_cast<std::size_t>(n_pieces);
  const std::size_t dim = splitDimension(box, depth);
  double plane;
  if (particles.empty()) {
    plane = box.greater_corner[dim];
  } else {
    std::nth_element(particles.begin(),
                     particles.begin() + static_cast<std::ptrdiff_t>(cut),
                     particles.end(),
                     [dim](const Particle& a, const Particle& b) {
                       return a.position[dim] < b.position[dim];
                     });
    plane = particles[cut].position[dim];
  }
  // Re-partition by pieceOf()'s rule (strictly-less goes left):
  // nth_element may leave plane-valued particles on either side of the
  // cut, which would make the assignment disagree with pieceOf() under
  // coordinate ties at the plane.
  const auto mid = std::partition(particles.begin(), particles.end(),
                                  [dim, plane](const Particle& p) {
                                    return p.position[dim] < plane;
                                  });
  const auto m = static_cast<std::size_t>(mid - particles.begin());

  OrientedBox left_box = box, right_box = box;
  left_box.greater_corner[dim] = plane;
  right_box.lesser_corner[dim] = plane;

  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back({dim, plane, -1, -1});
  const int left =
      splitRecursive(particles.first(m), left_box, keys::child(key, 0, 1),
                     depth + 1, left_pieces, first_piece, target);
  const int right = splitRecursive(
      particles.subspan(m), right_box, keys::child(key, 1, 1), depth + 1,
      n_pieces - left_pieces, first_piece + left_pieces, target);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

int BinarySplitDecomposition::findSplittersHistogram(
    std::span<Particle> particles, const OrientedBox& universe, int n_pieces,
    Target target, ParallelFor& par, int /*probes*/,
    const decomp::SortedKeyScratch* /*scratch*/) {
  assert(n_pieces > 0);
  const std::size_t n = particles.size();
  const int chunks = std::max(1, par.ways());
  nodes_.clear();
  regions_.clear();
  regions_.resize(static_cast<std::size_t>(n_pieces));

  // Gather coordinates once into compact records; every region below
  // owns a contiguous record range, so selection and partitioning touch
  // 32-byte records instead of the wide Particle structs.
  struct Record {
    double x[3];
    std::size_t index;
  };
  std::vector<Record> recs(n);
  par.run(chunks, [&](int c) {
    const auto cr = decomp::chunkOf(n, chunks, c);
    for (std::size_t i = cr.begin; i < cr.end; ++i) {
      const Vec3& pos = particles[i].position;
      recs[i] = {{pos.x, pos.y, pos.z}, i};
    }
  });

  // Level-synchronous construction of the same plane tree the recursive
  // sort path builds (nodes_ in breadth-first order).
  struct Pending {
    Key key;
    int depth;
    OrientedBox box;
    std::size_t begin, count;  ///< record range
    int np, first_piece;
    int parent;  ///< node whose link to overwrite; -1 = root_
    bool is_left;
  };
  auto writeSlot = [&](const Pending& pd, int code) {
    if (pd.parent < 0) root_ = code;
    else if (pd.is_left) nodes_[static_cast<std::size_t>(pd.parent)].left = code;
    else nodes_[static_cast<std::size_t>(pd.parent)].right = code;
  };

  std::vector<std::size_t> leaf_begin(static_cast<std::size_t>(n_pieces));
  std::vector<Pending> pending{
      {keys::kRoot, 0, universe, 0, n, n_pieces, 0, -1, false}};
  while (!pending.empty()) {
    std::vector<Pending> active;
    for (const auto& pd : pending) {
      if (pd.np == 1) {
        writeSlot(pd, -(pd.first_piece + 1));
        regions_[static_cast<std::size_t>(pd.first_piece)] =
            SubtreeRegion{pd.key, pd.depth, pd.box, pd.count};
        leaf_begin[static_cast<std::size_t>(pd.first_piece)] = pd.begin;
      } else {
        active.push_back(pd);
      }
    }
    if (active.empty()) break;

    // Each region's plane is the cut-th order statistic in mapDouble
    // space — the mapped order refines double order, so the plane is
    // double-equal to the sort path's nth_element result. Re-partitioning
    // by pieceOf()'s rule (strictly-less goes left) yields the exact left
    // count. Regions own disjoint record ranges, so they run as
    // independent tasks.
    struct Split {
      std::size_t dim{0}, left{0};
      double plane{0.0};
    };
    std::vector<Split> splits(active.size());
    par.run(static_cast<int>(active.size()), [&](int a) {
      const Pending& pd = active[static_cast<std::size_t>(a)];
      Split& s = splits[static_cast<std::size_t>(a)];
      s.dim = splitDimension(pd.box, pd.depth);
      if (pd.count == 0) {
        s.plane = pd.box.greater_corner[s.dim];  // the sort path's choice
        return;
      }
      const std::size_t dim = s.dim;
      const auto first = recs.begin() + static_cast<std::ptrdiff_t>(pd.begin);
      const auto last = first + static_cast<std::ptrdiff_t>(pd.count);
      const std::size_t cut = pd.count * static_cast<std::size_t>(pd.np / 2) /
                              static_cast<std::size_t>(pd.np);
      const auto nth = first + static_cast<std::ptrdiff_t>(cut);
      std::nth_element(first, nth, last,
                       [dim](const Record& l, const Record& r) {
                         return mapDouble(l.x[dim]) < mapDouble(r.x[dim]);
                       });
      const double plane = nth->x[dim];
      s.plane = plane;
      s.left = static_cast<std::size_t>(
          std::partition(first, last,
                         [dim, plane](const Record& r) {
                           return r.x[dim] < plane;
                         }) -
          first);
    });

    std::vector<Pending> next;
    next.reserve(active.size() * 2);
    for (std::size_t a = 0; a < active.size(); ++a) {
      const Pending& pd = active[a];
      const Split& s = splits[a];
      OrientedBox left_box = pd.box, right_box = pd.box;
      left_box.greater_corner[s.dim] = s.plane;
      right_box.lesser_corner[s.dim] = s.plane;
      const int self = static_cast<int>(nodes_.size());
      nodes_.push_back({s.dim, s.plane, -1, -1});
      writeSlot(pd, self);
      const int left_pieces = pd.np / 2;
      next.push_back({keys::child(pd.key, 0, 1), pd.depth + 1, left_box,
                      pd.begin, s.left, left_pieces, pd.first_piece, self,
                      true});
      next.push_back({keys::child(pd.key, 1, 1), pd.depth + 1, right_box,
                      pd.begin + s.left, pd.count - s.left,
                      pd.np - left_pieces, pd.first_piece + left_pieces, self,
                      false});
    }
    pending = std::move(next);
  }

  par.run(n_pieces, [&](int piece) {
    const auto pc = static_cast<std::size_t>(piece);
    const std::size_t begin = leaf_begin[pc];
    for (std::size_t r = begin; r < begin + regions_[pc].count; ++r) {
      assign(particles[recs[r].index], target, piece);
    }
  });
  return n_pieces;
}

int BinarySplitDecomposition::pieceOf(const Particle& p) const {
  assert(root_ != -1);
  int cur = root_;
  while (cur >= 0) {
    const PlaneNode& n = nodes_[static_cast<std::size_t>(cur)];
    cur = p.position[n.dim] < n.plane ? n.left : n.right;
  }
  return -cur - 1;
}

// ---------------------------------------------------------------------------

std::unique_ptr<Decomposition> makeDecomposition(DecompType type) {
  switch (type) {
    case DecompType::eSfc: return std::make_unique<SfcDecomposition>();
    case DecompType::eOct: return std::make_unique<OctDecomposition>();
    case DecompType::eKd:
      return std::make_unique<BinarySplitDecomposition>(
          BinarySplitDecomposition::Mode::kCycleDims);
    case DecompType::eLongest:
      return std::make_unique<BinarySplitDecomposition>(
          BinarySplitDecomposition::Mode::kLongestDim);
  }
  return nullptr;
}

}  // namespace paratreet
