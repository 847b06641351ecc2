#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "decomp/decomposition.hpp"
#include "util/distributions.hpp"

namespace paratreet {
namespace {

std::vector<Particle> makeTestParticles(const InitialConditions& ic,
                                        OrientedBox& universe) {
  std::vector<Particle> ps(ic.size());
  for (std::size_t i = 0; i < ic.size(); ++i) {
    ps[i].position = ic.positions[i];
    ps[i].mass = ic.masses.empty() ? 1.0 : ic.masses[i];
    ps[i].order = static_cast<std::int32_t>(i);
  }
  universe = OrientedBox{};
  for (const auto& p : ps) universe.grow(p.position);
  universe.grow(universe.greater_corner + Vec3(1e-9));
  universe.grow(universe.lesser_corner - Vec3(1e-9));
  assignKeys(ps, universe);
  return ps;
}

/// The two splitter calls every property below must hold for: the serial
/// findSplitters() reference, and the histogram pipeline Forest runs in
/// production (here on the inline executor).
enum class Path { kSort, kHistogram };
constexpr Path kPaths[] = {Path::kSort, Path::kHistogram};

const char* pathName(Path path) {
  return path == Path::kSort ? "sort" : "histogram";
}

int findSplitters(Path path, Decomposition& decomp, std::vector<Particle>& ps,
                  const OrientedBox& universe, int pieces,
                  Decomposition::Target target) {
  if (path == Path::kSort) {
    return decomp.findSplitters(std::span<Particle>(ps), universe, pieces,
                                target);
  }
  SerialFor serial;
  return decomp.findSplittersHistogram(std::span<Particle>(ps), universe,
                                       pieces, target, serial);
}

class DecompTest
    : public ::testing::TestWithParam<std::tuple<DecompType, int, Path>> {};

TEST_P(DecompTest, EveryParticleAssignedToValidPiece) {
  const auto [type, pieces, path] = GetParam();
  OrientedBox universe;
  auto ps = makeTestParticles(uniformCube(1000, 5), universe);
  auto decomp = makeDecomposition(type);
  const int n = findSplitters(path, *decomp, ps, universe, pieces,
                              Decomposition::Target::kPartition);
  EXPECT_GE(n, pieces);
  for (const auto& p : ps) {
    EXPECT_GE(p.partition, 0);
    EXPECT_LT(p.partition, n);
  }
}

TEST_P(DecompTest, PieceOfAgreesWithAssignment) {
  const auto [type, pieces, path] = GetParam();
  OrientedBox universe;
  auto ps = makeTestParticles(uniformCube(800, 6), universe);
  auto decomp = makeDecomposition(type);
  findSplitters(path, *decomp, ps, universe, pieces,
                Decomposition::Target::kPartition);
  std::size_t mismatches = 0;
  for (const auto& p : ps) {
    if (decomp->pieceOf(p) != p.partition) ++mismatches;
  }
  // Particles exactly on a splitting plane may tip either way; the bulk
  // must agree.
  EXPECT_LE(mismatches, ps.size() / 100);
}

TEST_P(DecompTest, AllPiecesNonEmptyOnUniformInput) {
  const auto [type, pieces, path] = GetParam();
  OrientedBox universe;
  auto ps = makeTestParticles(uniformCube(2000, 7), universe);
  auto decomp = makeDecomposition(type);
  const int n = findSplitters(path, *decomp, ps, universe, pieces,
                              Decomposition::Target::kPartition);
  std::map<int, std::size_t> counts;
  for (const auto& p : ps) counts[p.partition]++;
  EXPECT_EQ(static_cast<int>(counts.size()), n);
}

INSTANTIATE_TEST_SUITE_P(
    AllDecomps, DecompTest,
    ::testing::Combine(::testing::Values(DecompType::eSfc, DecompType::eOct,
                                         DecompType::eKd, DecompType::eLongest),
                       ::testing::Values(1, 3, 8, 17),
                       ::testing::ValuesIn(kPaths)),
    [](const auto& info) {
      // The reference path keeps the suite's original case names.
      return toString(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == Path::kSort ? "" : "_histogram");
    });

TEST(SfcDecomposition, SlicesAreEqualCount) {
  OrientedBox universe;
  auto ps = makeTestParticles(uniformCube(1000, 8), universe);
  SfcDecomposition decomp;
  decomp.findSplitters(std::span<Particle>(ps), universe, 8,
                       Decomposition::Target::kPartition);
  std::map<int, std::size_t> counts;
  for (const auto& p : ps) counts[p.partition]++;
  for (const auto& [piece, count] : counts) EXPECT_EQ(count, 125u);
}

TEST(SfcDecomposition, SlicesAreContiguousInKey) {
  OrientedBox universe;
  auto ps = makeTestParticles(uniformCube(500, 9), universe);
  SfcDecomposition decomp;
  decomp.findSplitters(std::span<Particle>(ps), universe, 5,
                       Decomposition::Target::kPartition);
  std::sort(ps.begin(), ps.end(),
            [](const Particle& a, const Particle& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < ps.size(); ++i) {
    EXPECT_LE(ps[i - 1].partition, ps[i].partition);
  }
}

TEST(SfcDecomposition, DuplicateKeysNeverStraddleASlice) {
  // Regression: 50 coincident particles (one shared key) sitting across
  // the k=4 slice boundaries at indices 50 and 75. The old findSplitters
  // cut slices by index mid-run-of-equal-keys while pieceOf mapped by
  // upper_bound over splitter keys, so boundary particles were assigned
  // piece p at decomposition but piece p+1 on re-homing. Boundaries must
  // snap to key runs: assignment and pieceOf agree exactly, and the
  // coincident run lands in a single piece.
  auto ic = uniformCube(100, 21);
  const Vec3 shared = ic.positions[40];
  for (std::size_t i = 41; i < 90; ++i) ic.positions[i] = shared;
  OrientedBox universe;
  const auto base = makeTestParticles(ic, universe);
  for (const Path path : kPaths) {
    SCOPED_TRACE(pathName(path));
    auto ps = base;
    SfcDecomposition decomp;
    findSplitters(path, decomp, ps, universe, 4,
                  Decomposition::Target::kPartition);
    int coincident_piece = -1;
    for (const auto& p : ps) {
      ASSERT_EQ(decomp.pieceOf(p), p.partition) << "order " << p.order;
      if (p.position == shared) {
        if (coincident_piece == -1) coincident_piece = p.partition;
        EXPECT_EQ(p.partition, coincident_piece);
      }
    }
  }
}

TEST(BinarySplitDecomposition, CoincidentCoordinatesNeverStraddleAPlane) {
  // Same bug class as the SFC regression: nth_element may leave
  // plane-valued particles on either side of the cut, while pieceOf
  // routes strictly-less left. With a large run of duplicated
  // coordinates at the median, assignment must still agree with pieceOf
  // for every particle.
  auto ic = uniformCube(120, 22);
  for (std::size_t i = 40; i < 80; ++i) ic.positions[i].x = 0.5;
  OrientedBox universe;
  auto ps = makeTestParticles(ic, universe);
  for (const Path path : kPaths) {
    SCOPED_TRACE(pathName(path));
    for (auto mode : {BinarySplitDecomposition::Mode::kCycleDims,
                      BinarySplitDecomposition::Mode::kLongestDim}) {
      auto copy = ps;
      BinarySplitDecomposition decomp(mode);
      findSplitters(path, decomp, copy, universe, 4,
                    Decomposition::Target::kPartition);
      for (const auto& p : copy) {
        ASSERT_EQ(decomp.pieceOf(p), p.partition) << "order " << p.order;
      }
    }
  }
}

TEST(OctDecomposition, RegionsAreOctreeNodesCoveringParticles) {
  OrientedBox universe;
  const auto base = makeTestParticles(clustered(1500, 10, 5, 0.02), universe);
  for (const Path path : kPaths) {
    SCOPED_TRACE(pathName(path));
    auto ps = base;
    OctDecomposition decomp;
    const int n = findSplitters(path, decomp, ps, universe, 12,
                                Decomposition::Target::kSubtree);
    auto regions = decomp.regions();
    ASSERT_EQ(static_cast<int>(regions.size()), n);
    // Region boxes contain their particles.
    for (const auto& p : ps) {
      const auto& region = regions[static_cast<std::size_t>(p.subtree)];
      EXPECT_TRUE(region.box.contains(p.position));
    }
    // Regions are prefix-free (no region is an ancestor of another).
    for (std::size_t a = 0; a < regions.size(); ++a) {
      for (std::size_t b = 0; b < regions.size(); ++b) {
        if (a == b) continue;
        EXPECT_FALSE(keys::isAncestorOf(regions[a].key, regions[b].key, 3));
      }
    }
  }
}

TEST(OctDecomposition, RegionCountsSumToTotal) {
  OrientedBox universe;
  const auto base = makeTestParticles(uniformCube(900, 11), universe);
  for (const Path path : kPaths) {
    SCOPED_TRACE(pathName(path));
    auto ps = base;
    OctDecomposition decomp;
    findSplitters(path, decomp, ps, universe, 9,
                  Decomposition::Target::kSubtree);
    std::size_t total = 0;
    for (const auto& r : decomp.regions()) total += r.count;
    EXPECT_EQ(total, ps.size());
  }
}

TEST(OctDecomposition, ImbalancedOnDisk) {
  // The paper's Fig 13 premise: octree decomposition of a thin disk is
  // load-imbalanced, unlike the longest-dimension decomposition.
  OrientedBox universe;
  auto ps = makeTestParticles(planetesimalDisk(4000, 12), universe);
  auto imbalance = [&](DecompType type) {
    auto copy = ps;
    auto decomp = makeDecomposition(type);
    const int n = decomp->findSplitters(std::span<Particle>(copy), universe, 16,
                                        Decomposition::Target::kPartition);
    std::vector<std::size_t> counts(static_cast<std::size_t>(n), 0);
    for (const auto& p : copy) counts[static_cast<std::size_t>(p.partition)]++;
    const auto max = *std::max_element(counts.begin(), counts.end());
    const double mean = static_cast<double>(copy.size()) / n;
    return static_cast<double>(max) / mean;
  };
  EXPECT_GT(imbalance(DecompType::eOct), 1.5 * imbalance(DecompType::eLongest));
}

TEST(BinarySplitDecomposition, BalancedCountsForNonPowerOfTwo) {
  OrientedBox universe;
  auto ps = makeTestParticles(uniformCube(1000, 13), universe);
  BinarySplitDecomposition decomp(BinarySplitDecomposition::Mode::kCycleDims);
  const int n = decomp.findSplitters(std::span<Particle>(ps), universe, 7,
                                     Decomposition::Target::kPartition);
  EXPECT_EQ(n, 7);
  std::vector<std::size_t> counts(7, 0);
  for (const auto& p : ps) counts[static_cast<std::size_t>(p.partition)]++;
  for (auto c : counts) {
    EXPECT_GE(c, 1000u / 7 - 2);
    EXPECT_LE(c, 1000u / 7 + 3);
  }
}

TEST(BinarySplitDecomposition, RegionsBoxesAreDisjointCover) {
  OrientedBox universe;
  auto ps = makeTestParticles(uniformCube(600, 14), universe);
  BinarySplitDecomposition decomp(BinarySplitDecomposition::Mode::kLongestDim);
  decomp.findSplitters(std::span<Particle>(ps), universe, 8,
                       Decomposition::Target::kSubtree);
  auto regions = decomp.regions();
  ASSERT_EQ(regions.size(), 8u);
  double volume = 0;
  for (const auto& r : regions) volume += r.box.volume();
  EXPECT_NEAR(volume, universe.volume(), universe.volume() * 1e-9);
  // Particles live inside their region box.
  for (const auto& p : ps) {
    EXPECT_TRUE(
        regions[static_cast<std::size_t>(p.subtree)].box.contains(p.position));
  }
}

TEST(BinarySplitDecomposition, RegionKeysAreBinaryTreeConsistent) {
  OrientedBox universe;
  auto ps = makeTestParticles(uniformCube(400, 15), universe);
  BinarySplitDecomposition decomp(BinarySplitDecomposition::Mode::kCycleDims);
  decomp.findSplitters(std::span<Particle>(ps), universe, 4,
                       Decomposition::Target::kSubtree);
  const auto regions = decomp.regions();
  // 4 pieces = the 4 depth-2 binary nodes.
  for (const auto& r : regions) {
    EXPECT_EQ(r.depth, 2);
    EXPECT_EQ(keys::level(r.key, 1), 2);
  }
}

TEST(Decomposition, FactoryCoversAllTypes) {
  for (auto t : {DecompType::eSfc, DecompType::eOct, DecompType::eKd,
                 DecompType::eLongest}) {
    auto d = makeDecomposition(t);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->type(), t);
  }
}

TEST(Decomposition, ToStringNames) {
  EXPECT_EQ(toString(DecompType::eSfc), "sfc");
  EXPECT_EQ(toString(DecompType::eOct), "oct");
  EXPECT_EQ(toString(DecompType::eKd), "kd");
  EXPECT_EQ(toString(DecompType::eLongest), "longest");
}

}  // namespace
}  // namespace paratreet
