#include <gtest/gtest.h>

#include "apps/statistics/two_point.hpp"
#include "core/forest.hpp"

namespace paratreet {
namespace {

Configuration testConfig() {
  Configuration conf;
  conf.min_partitions = 5;
  conf.min_subtrees = 4;
  conf.bucket_size = 10;
  return conf;
}

TEST(PairHistogram, LogBinning) {
  PairHistogram h(0.1, 10.0, 4);
  // Bin edges at 0.1, ~0.316, 1, ~3.16, 10.
  h.add(0.2 * 0.2);
  h.add(0.5 * 0.5);
  h.add(2.0 * 2.0);
  h.add(5.0 * 5.0);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 1);
  EXPECT_EQ(h.count(2), 1);
  EXPECT_EQ(h.count(3), 1);
  EXPECT_EQ(h.total(), 4);
}

TEST(PairHistogram, RangeClippingAndSelfPairs) {
  PairHistogram h(0.1, 1.0, 4);
  h.add(0.0);          // self pair: dropped
  h.add(0.05 * 0.05);  // below r_min: dropped
  h.add(1.0);          // r = 1 = r_max: dropped (half-open range)
  h.add(4.0);          // beyond: dropped
  EXPECT_EQ(h.total(), 0);
  h.add(0.25 * 0.25, 7);  // weighted add
  EXPECT_EQ(h.total(), 7);
}

TEST(PairHistogram, BinCentersAreGeometric) {
  PairHistogram h(0.01, 1.0, 2);
  // Bins [0.01, 0.1), [0.1, 1): geometric centers ~0.0316, ~0.316.
  EXPECT_NEAR(h.binCenter(0), 0.0316, 0.001);
  EXPECT_NEAR(h.binCenter(1), 0.316, 0.01);
}

TEST(TwoPointVisitor, DisjointFromRange) {
  OrientedBox a{Vec3(0), Vec3(1)};
  OrientedBox far{Vec3(100), Vec3(101)};
  OrientedBox near{Vec3(1.5, 0, 0), Vec3(2, 1, 1)};
  EXPECT_TRUE(TwoPointVisitor::disjointFromRange(a, far, 0.1, 5.0));
  EXPECT_FALSE(TwoPointVisitor::disjointFromRange(a, near, 0.1, 5.0));
  // Overlapping tiny boxes are entirely below a large r_min.
  OrientedBox b1{Vec3(0), Vec3(0.01)};
  OrientedBox b2{Vec3(0.005), Vec3(0.012)};
  EXPECT_TRUE(TwoPointVisitor::disjointFromRange(b1, b2, 1.0, 5.0));
}

class DualTreeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DualTreeTest, PairCountsMatchBruteForce) {
  const auto [procs, workers] = GetParam();
  rts::Runtime rt({procs, workers});
  Forest<PairCountData, OctTreeType> forest(rt, testConfig());
  auto particles = makeParticles(clustered(400, 77, 4, 0.05));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();

  PairHistogram dd(0.02, 1.0, 8);
  forest.traverseDualTree<TwoPointVisitor>(TwoPointVisitor{&dd});

  PairHistogram expected(0.02, 1.0, 8);
  bruteForcePairCounts(reference, expected);

  for (std::size_t b = 0; b < dd.bins(); ++b) {
    EXPECT_EQ(dd.count(b), expected.count(b)) << "bin " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(ProcGrid, DualTreeTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2)),
                         [](const auto& info) {
                           // Appended, not "p" + ...: GCC 12 -O3 misreports
                           // that form under -Wrestrict.
                           std::string name = "p";
                           name += std::to_string(std::get<0>(info.param));
                           name += "_w";
                           name += std::to_string(std::get<1>(info.param));
                           return name;
                         });

// Every cache model on a multi-process runtime with one level per fill,
// so single-target walks pause and, under kPerThread, also continue
// synchronously on regions the worker's private cache already holds.
class DualTreeCacheModelTest : public ::testing::TestWithParam<CacheModel> {};

TEST_P(DualTreeCacheModelTest, PairCountsMatchBruteForce) {
  rts::Runtime rt({3, 2});
  Configuration conf = testConfig();
  conf.min_partitions = 12;
  conf.fetch_depth = 1;
  conf.cache_model = GetParam();
  obs::MetricsRegistry counts;
  Forest<PairCountData, OctTreeType> forest(
      rt, conf, Instrumentation{nullptr, &counts, nullptr});
  auto particles = makeParticles(clustered(400, 77, 4, 0.05));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();

  PairHistogram dd(0.02, 1.0, 8);
  forest.traverseDualTree<TwoPointVisitor>(TwoPointVisitor{&dd});
  EXPECT_GT(counts.counter("cache.pauses").value(), 0u);

  PairHistogram expected(0.02, 1.0, 8);
  bruteForcePairCounts(reference, expected);
  for (std::size_t b = 0; b < dd.bins(); ++b) {
    EXPECT_EQ(dd.count(b), expected.count(b)) << "bin " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, DualTreeCacheModelTest,
                         ::testing::Values(CacheModel::kWaitFree,
                                           CacheModel::kXWrite,
                                           CacheModel::kPerThread,
                                           CacheModel::kSingleInserter),
                         [](const auto& info) { return toString(info.param); });

TEST(DualTreeTest, UniformInputMatchesBruteForce) {
  rts::Runtime rt({2, 2});
  Forest<PairCountData, OctTreeType> forest(rt, testConfig());
  auto particles = makeParticles(uniformCube(300, 79));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  PairHistogram dd(0.05, 2.0, 6);
  forest.traverseDualTree<TwoPointVisitor>(TwoPointVisitor{&dd});
  PairHistogram expected(0.05, 2.0, 6);
  bruteForcePairCounts(reference, expected);
  for (std::size_t b = 0; b < dd.bins(); ++b) {
    EXPECT_EQ(dd.count(b), expected.count(b)) << "bin " << b;
  }
}

TEST(DualTreeTest, ClusteredExcessOverUniform) {
  rts::Runtime rt({2, 1});
  auto counts = [&](InitialConditions ic) {
    Forest<PairCountData, OctTreeType> forest(rt, testConfig());
    forest.load(makeParticles(ic));
    forest.decompose();
    forest.build();
    auto h = std::make_unique<PairHistogram>(0.01, 0.1, 1);
    forest.traverseDualTree<TwoPointVisitor>(TwoPointVisitor{h.get()});
    return h->total();
  };
  const auto clumped = counts(clustered(800, 3, 6, 0.02));
  const auto uniform = counts(uniformCube(800, 3));
  EXPECT_GT(clumped, 5 * uniform);
}

TEST(TargetTree, StructureCoversBuckets) {
  rts::Runtime rt({1, 1});
  Forest<PairCountData, OctTreeType> forest(rt, testConfig());
  forest.load(makeParticles(uniformCube(300, 81)));
  forest.decompose();
  forest.build();
  auto& part = forest.partition(0);
  TargetTree<PairCountData> tree(part);
  ASSERT_FALSE(tree.empty());
  const auto& root = tree.node(tree.root());
  EXPECT_EQ(root.n_buckets, static_cast<std::int32_t>(part.buckets.size()));
  // Root aggregates all bucket particles and boxes.
  std::size_t total = 0;
  OrientedBox all;
  for (const auto& b : part.buckets) {
    total += b.particles.size();
    all.grow(b.box);
  }
  EXPECT_EQ(root.n_particles, static_cast<int>(total));
  EXPECT_TRUE(root.box.contains(all));
}

TEST(TargetTree, LeavesPartitionBucketList) {
  rts::Runtime rt({1, 1});
  Configuration conf = testConfig();
  conf.min_partitions = 2;
  Forest<PairCountData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(400, 83)));
  forest.decompose();
  forest.build();
  auto& part = forest.partition(0);
  TargetTree<PairCountData> tree(part);
  // Collect leaves; their bucket ranges must tile [0, n_buckets).
  std::vector<bool> seen(part.buckets.size(), false);
  std::function<void(std::int32_t)> walk = [&](std::int32_t idx) {
    const auto& n = tree.node(idx);
    if (n.leaf()) {
      for (std::int32_t i = 0; i < n.n_buckets; ++i) {
        const auto b = tree.bucketAt(n.first_bucket + i);
        EXPECT_FALSE(seen[b]);
        seen[b] = true;
      }
      return;
    }
    walk(n.left);
    walk(n.right);
  };
  walk(tree.root());
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace paratreet
