#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "decomp/decomposition.hpp"
#include "decomp/runtime_parallel.hpp"
#include "rts/runtime.hpp"
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

enum class Input { kUniform, kPlummer, kDuplicateKeys };

const char* inputName(Input in) {
  switch (in) {
    case Input::kUniform: return "uniform";
    case Input::kPlummer: return "plummer";
    case Input::kDuplicateKeys: return "dupkeys";
  }
  return "?";
}

InitialConditions makeInput(Input in) {
  switch (in) {
    case Input::kUniform: return uniformCube(1200, 31);
    case Input::kPlummer: return plummer(1200, 32);
    case Input::kDuplicateKeys: {
      // Several runs of coincident particles, sized to straddle slice
      // boundaries for typical piece counts.
      auto ic = uniformCube(1200, 33);
      for (std::size_t run = 0; run < 6; ++run) {
        const std::size_t base = run * 190;
        for (std::size_t i = 1; i < 120; ++i) {
          ic.positions[base + i] = ic.positions[base];
        }
      }
      return ic;
    }
  }
  return {};
}

/// Piece assignment keyed by particle order — the sort path reorders its
/// input, the histogram path does not, so `order` is the common index.
std::vector<int> assignmentByOrder(const std::vector<Particle>& ps) {
  std::vector<int> out(ps.size(), -1);
  for (const auto& p : ps) out[static_cast<std::size_t>(p.order)] = p.partition;
  return out;
}

void expectSameRegions(const Decomposition& a, const Decomposition& b) {
  const auto ra = a.regions(), rb = b.regions();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].key, rb[i].key) << "region " << i;
    EXPECT_EQ(ra[i].depth, rb[i].depth) << "region " << i;
    EXPECT_EQ(ra[i].count, rb[i].count) << "region " << i;
    EXPECT_EQ(ra[i].box, rb[i].box) << "region " << i;
  }
}

/// Run the sort path and the histogram path (through `par`) on copies of
/// `base`: the histogram path must give the identical piece assignment and
/// regions, never reorder its input, and both decompositions' pieceOf()
/// must agree with the assignment.
void expectHistogramMatchesSort(const std::vector<Particle>& base,
                                const OrientedBox& universe, DecompType type,
                                int n_pieces, ParallelFor& par) {
  SCOPED_TRACE(toString(type) + " pieces=" + std::to_string(n_pieces) +
               " ways=" + std::to_string(par.ways()));
  auto sorted = base;
  auto sort_decomp = makeDecomposition(type);
  const int n_sort = sort_decomp->findSplitters(
      std::span<Particle>(sorted), universe, n_pieces,
      Decomposition::Target::kPartition);

  auto hist = base;
  auto hist_decomp = makeDecomposition(type);
  const int n_hist = hist_decomp->findSplittersHistogram(
      std::span<Particle>(hist), universe, n_pieces,
      Decomposition::Target::kPartition, par);

  ASSERT_EQ(n_sort, n_hist);
  const auto want = assignmentByOrder(sorted);
  // The histogram path never reorders its input.
  for (std::size_t i = 0; i < hist.size(); ++i) {
    ASSERT_EQ(hist[i].order, static_cast<std::int32_t>(i));
    ASSERT_EQ(hist[i].partition, want[i]) << "order " << i;
    // And re-homing agrees with the assignment on both decompositions.
    EXPECT_EQ(hist_decomp->pieceOf(hist[i]), hist[i].partition);
    EXPECT_EQ(sort_decomp->pieceOf(hist[i]), hist[i].partition);
  }
  expectSameRegions(*sort_decomp, *hist_decomp);
}

class DecompEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<DecompType, int, Input>> {};

// The acceptance bar of the parallel pipeline: for every decomposition
// type, worker count, and input shape, the histogram path must produce
// the *identical* piece assignment as the full-sort reference path.
TEST_P(DecompEquivalenceTest, HistogramMatchesSortPath) {
  const auto [type, procs, input] = GetParam();
  OrientedBox universe;
  const auto base = makeTestParticles(makeInput(input), universe);
  rts::Runtime rt({procs, 2});
  RuntimeParallelFor par(rt, rt.liveProcs());
  expectHistogramMatchesSort(base, universe, type, 8, par);
}

INSTANTIATE_TEST_SUITE_P(
    AllDecomps, DecompEquivalenceTest,
    ::testing::Combine(::testing::Values(DecompType::eSfc, DecompType::eOct,
                                         DecompType::eKd, DecompType::eLongest),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(Input::kUniform, Input::kPlummer,
                                         Input::kDuplicateKeys)),
    [](const auto& info) {
      return toString(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             inputName(std::get<2>(info.param));
    });

// SerialFor (the runtime-less executor) and the runtime-backed executor
// must agree — chunking is by executor width, so this also crosses
// different chunk counts.
TEST(DecompParallel, SerialForMatchesRuntimeExecutor) {
  OrientedBox universe;
  const auto base = makeTestParticles(makeInput(Input::kPlummer), universe);
  for (auto type : {DecompType::eSfc, DecompType::eOct, DecompType::eKd,
                    DecompType::eLongest}) {
    SerialFor serial;
    auto a = base;
    auto da = makeDecomposition(type);
    da->findSplittersHistogram(std::span<Particle>(a), universe, 5,
                               Decomposition::Target::kPartition, serial);

    rts::Runtime rt({3, 2});
    RuntimeParallelFor par(rt, rt.liveProcs());
    auto b = base;
    auto db = makeDecomposition(type);
    db->findSplittersHistogram(std::span<Particle>(b), universe, 5,
                               Decomposition::Target::kPartition, par);
    EXPECT_EQ(assignmentByOrder(a), assignmentByOrder(b))
        << toString(type);
  }
}

// Empty and tiny inputs (fewer particles than pieces) go through the
// degenerate-target edges of both paths.
TEST(DecompParallel, DegenerateInputs) {
  for (auto type : {DecompType::eSfc, DecompType::eOct, DecompType::eKd,
                    DecompType::eLongest}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{3}}) {
      OrientedBox universe;
      auto ic = uniformCube(n == 0 ? 1 : n, 34);
      if (n == 0) ic.positions.clear(), ic.masses.clear();
      auto base = makeTestParticles(ic, universe);

      auto sorted = base;
      auto ds = makeDecomposition(type);
      const int n_sort = ds->findSplitters(std::span<Particle>(sorted),
                                           universe, 8,
                                           Decomposition::Target::kPartition);
      SerialFor par;
      auto hist = base;
      auto dh = makeDecomposition(type);
      const int n_hist = dh->findSplittersHistogram(
          std::span<Particle>(hist), universe, 8,
          Decomposition::Target::kPartition, par);
      EXPECT_EQ(n_sort, n_hist) << toString(type) << " n=" << n;
      EXPECT_EQ(assignmentByOrder(sorted), assignmentByOrder(hist))
          << toString(type) << " n=" << n;
    }
  }
}

// Binary splits (eKd, eLongest) select every plane exactly. The shapes
// below each run on the inline executor and on a 3x2 runtime.
void forBinarySplitsAndExecutors(
    const std::function<void(DecompType, ParallelFor&)>& check) {
  SerialFor serial;
  rts::Runtime rt({3, 2});
  RuntimeParallelFor runtime_par(rt, rt.liveProcs());
  for (auto type : {DecompType::eKd, DecompType::eLongest}) {
    check(type, serial);
    check(type, runtime_par);
  }
}

TEST(DecompParallel, BinarySplitPieceCounts) {
  for (const Input input : {Input::kPlummer, Input::kDuplicateKeys}) {
    OrientedBox universe;
    const auto base = makeTestParticles(makeInput(input), universe);
    forBinarySplitsAndExecutors([&](DecompType type, ParallelFor& par) {
      for (const int pieces : {2, 3, 13, 16}) {
        SCOPED_TRACE(inputName(input));
        expectHistogramMatchesSort(base, universe, type, pieces, par);
      }
    });
  }
}

// -0.0 and +0.0 compare equal but order differently in mapped space; a
// run of both straddles the root cut on x, the split axis of either type.
TEST(DecompParallel, BinarySplitSignedZerosAtThePlane) {
  auto ic = uniformCube(64, 35);
  for (std::size_t i = 0; i < ic.size(); ++i) {
    ic.positions[i].x = (static_cast<double>(i) - 32.0) * 0.1;
    ic.positions[i].y *= 0.1;
    ic.positions[i].z *= 0.1;
    if (i >= 24 && i < 40) ic.positions[i].x = i % 2 == 0 ? -0.0 : 0.0;
  }
  OrientedBox universe;
  const auto base = makeTestParticles(ic, universe);
  forBinarySplitsAndExecutors([&](DecompType type, ParallelFor& par) {
    for (const int pieces : {2, 3, 5, 8}) {
      expectHistogramMatchesSort(base, universe, type, pieces, par);
    }
    auto ps = base;
    auto d = makeDecomposition(type);
    d->findSplittersHistogram(std::span<Particle>(ps), universe, 2,
                              Decomposition::Target::kPartition, par);
    EXPECT_EQ(d->regions()[0].box.greater_corner.x, 0.0);  // plane is +-0
  });
}

// Every particle shares x and the universe is longest along x, so every
// plane on that axis is a tie and all particles fall to its right.
TEST(DecompParallel, BinarySplitAllTiesOnTheSplitAxis) {
  auto ic = uniformCube(400, 36);
  for (auto& pos : ic.positions) pos.x = 0.5;
  OrientedBox universe;
  auto base = makeTestParticles(ic, universe);
  universe.grow(Vec3(4.0, 0.0, 0.0));
  assignKeys(base, universe);
  forBinarySplitsAndExecutors([&](DecompType type, ParallelFor& par) {
    for (const int pieces : {2, 3, 13}) {
      expectHistogramMatchesSort(base, universe, type, pieces, par);
    }
    auto ps = base;
    auto d = makeDecomposition(type);
    d->findSplittersHistogram(std::span<Particle>(ps), universe, 2,
                              Decomposition::Target::kPartition, par);
    EXPECT_EQ(d->regions()[0].count, 0u);
    EXPECT_EQ(d->regions()[0].box.greater_corner.x, 0.5);
  });
}

// More pieces than particles leaves some regions empty; their planes
// come from the box, not from a selection.
TEST(DecompParallel, BinarySplitMorePiecesThanParticles) {
  OrientedBox universe;
  const auto base = makeTestParticles(uniformCube(5, 37), universe);
  forBinarySplitsAndExecutors([&](DecompType type, ParallelFor& par) {
    for (const int pieces : {13, 16}) {
      expectHistogramMatchesSort(base, universe, type, pieces, par);
    }
  });
}

TEST(DecompParallel, ChunkRangesPartitionTheInput) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{97},
                              std::size_t{1000}}) {
    for (const int chunks : {1, 2, 7, 16}) {
      std::size_t expected_begin = 0;
      for (int c = 0; c < chunks; ++c) {
        const auto r = decomp::chunkOf(n, chunks, c);
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_LE(r.begin, r.end);
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

}  // namespace
}  // namespace paratreet
