#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/gravity/gravity.hpp"
#include "core/driver.hpp"
#include "core/forest.hpp"

namespace paratreet {
namespace {

Configuration baseConfig() {
  Configuration conf;
  conf.min_partitions = 7;
  conf.min_subtrees = 5;
  conf.bucket_size = 9;
  conf.decomp_type = DecompType::eSfc;
  conf.tree_type = TreeType::eOct;
  return conf;
}

class ForestConfigTest
    : public ::testing::TestWithParam<std::tuple<TreeType, DecompType, int>> {};

TEST_P(ForestConfigTest, BuildPreservesEveryParticle) {
  const auto [tree, decomp, procs] = GetParam();
  rts::Runtime rt({procs, 2});
  Configuration conf = baseConfig();
  conf.tree_type = tree;
  conf.decomp_type = decomp;
  const std::size_t n = 500;

  dispatchTreeType(tree, [&](auto tree_type) {
    using TreeT = decltype(tree_type);
    Forest<CentroidData, TreeT> forest(rt, conf);
    forest.load(makeParticles(uniformCube(n, 71)));
    forest.decompose();
    forest.build();
    EXPECT_EQ(forest.validate(), "");
    // Every input particle appears in exactly one partition bucket.
    std::map<std::int32_t, int> seen;
    for (int i = 0; i < forest.numPartitions(); ++i) {
      for (const auto& b : forest.partition(i).buckets) {
        for (const auto& p : b.particles) seen[p.order]++;
      }
    }
    EXPECT_EQ(seen.size(), n);
    for (const auto& [order, count] : seen) {
      EXPECT_EQ(count, 1) << "order " << order;
    }
    // Subtrees hold every particle exactly once too.
    std::size_t subtree_total = 0;
    for (int s = 0; s < forest.numSubtrees(); ++s) {
      subtree_total += forest.subtree(s).particles.size();
    }
    EXPECT_EQ(subtree_total, n);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ForestConfigTest,
    ::testing::Combine(::testing::Values(TreeType::eOct, TreeType::eKd,
                                         TreeType::eLongest),
                       ::testing::Values(DecompType::eSfc, DecompType::eOct,
                                         DecompType::eKd, DecompType::eLongest),
                       ::testing::Values(1, 3)),
    [](const auto& info) {
      return toString(std::get<0>(info.param)) + "_" +
             toString(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Forest, BucketsMatchPartitionAssignment) {
  rts::Runtime rt({2, 2});
  Forest<CentroidData, OctTreeType> forest(rt, baseConfig());
  forest.load(makeParticles(uniformCube(400, 73)));
  forest.decompose();
  forest.build();
  for (int i = 0; i < forest.numPartitions(); ++i) {
    for (const auto& b : forest.partition(i).buckets) {
      for (const auto& p : b.particles) {
        EXPECT_EQ(p.partition, i);
      }
    }
  }
}

TEST(Forest, SplitBucketsOnlyAtPartitionBoundaries) {
  rts::Runtime rt({2, 1});
  Configuration conf = baseConfig();
  conf.decomp_type = DecompType::eSfc;  // SFC partitions + octree subtrees
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(600, 79)));
  forest.decompose();
  forest.build();
  // Buckets sharing a leaf key must belong to different partitions
  // (the Fig 5 split case), and their union is the original leaf.
  std::map<Key, std::set<int>> leaf_partitions;
  std::size_t total_buckets = 0;
  for (int i = 0; i < forest.numPartitions(); ++i) {
    for (const auto& b : forest.partition(i).buckets) {
      auto [it, inserted] = leaf_partitions.try_emplace(b.leaf_key);
      EXPECT_TRUE(it->second.insert(i).second)
          << "partition " << i << " received leaf " << b.leaf_key << " twice";
      ++total_buckets;
    }
  }
  // Extra buckets beyond one-per-leaf are exactly the reported splits.
  EXPECT_EQ(total_buckets - leaf_partitions.size(), forest.splitBucketCount());
  // Because partitions are spatial, only a few buckets split (paper:
  // "only a few buckets will need to be split this way").
  EXPECT_LT(forest.splitBucketCount(), leaf_partitions.size() / 2);
}

TEST(Forest, MatchingSplittersProduceNoSplits) {
  // When Partition and Subtree decompositions coincide (oct/oct with the
  // same piece count), no bucket ever spans two Partitions.
  rts::Runtime rt({2, 1});
  Configuration conf = baseConfig();
  conf.decomp_type = DecompType::eOct;
  conf.min_partitions = 8;
  conf.min_subtrees = 8;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(500, 83)));
  forest.decompose();
  forest.build();
  EXPECT_EQ(forest.splitBucketCount(), 0u);
}

TEST(Forest, CollectReturnsOrderLayout) {
  rts::Runtime rt({2, 2});
  Forest<CentroidData, OctTreeType> forest(rt, baseConfig());
  forest.load(makeParticles(uniformCube(300, 89)));
  forest.decompose();
  forest.build();
  const auto out = forest.collect();
  ASSERT_EQ(out.size(), 300u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].order, static_cast<std::int32_t>(i));
  }
}

TEST(Forest, ForEachParticleTouchesAll) {
  rts::Runtime rt({3, 1});
  Forest<CentroidData, OctTreeType> forest(rt, baseConfig());
  forest.load(makeParticles(uniformCube(250, 97)));
  forest.decompose();
  forest.build();
  forest.forEachParticle([](Particle& p) { p.density = 7.0; });
  for (const auto& p : forest.collect()) {
    EXPECT_DOUBLE_EQ(p.density, 7.0);
  }
}

TEST(Forest, FlushPreservesParticlesAndClearsOutputs) {
  rts::Runtime rt({2, 2});
  Forest<CentroidData, OctTreeType> forest(rt, baseConfig());
  forest.load(makeParticles(uniformCube(300, 101)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  forest.forEachParticle([](Particle& p) { p.position += Vec3(0.01, 0, 0); });
  forest.flush();
  forest.build();
  EXPECT_EQ(forest.particleCount(), 300u);
  // Outputs were cleared by the flush.
  for (const auto& p : forest.collect()) {
    EXPECT_EQ(p.acceleration, Vec3{});
    EXPECT_DOUBLE_EQ(p.potential, 0.0);
  }
}

TEST(Forest, IterationLoopIsStable) {
  // Multiple build/traverse/flush rounds with motionless particles give
  // identical forces each round.
  rts::Runtime rt({2, 2});
  Forest<CentroidData, OctTreeType> forest(rt, baseConfig());
  forest.load(makeParticles(uniformCube(250, 103)));
  forest.decompose();
  std::vector<Vec3> first;
  for (int iter = 0; iter < 3; ++iter) {
    forest.build();
    forest.traverse<GravityVisitor>(GravityVisitor{});
    const auto out = forest.collect();
    if (iter == 0) {
      for (const auto& p : out) first.push_back(p.acceleration);
    } else {
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_LT((out[i].acceleration - first[i]).length(),
                  1e-9 * (first[i].length() + 1e-12));
      }
    }
    forest.flush();
  }
}

TEST(Forest, PhaseTimersAccumulate) {
  rts::Runtime rt({1, 1});
  obs::TraceBuffer trace;
  Forest<CentroidData, OctTreeType> forest(
      rt, baseConfig(), Instrumentation{nullptr, nullptr, &trace});
  forest.load(makeParticles(uniformCube(200, 107)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  EXPECT_GT(trace.totalSeconds("decompose"), 0.0);
  EXPECT_GT(trace.totalSeconds("build"), 0.0);
  EXPECT_GT(trace.totalSeconds("traverse.top_down"), 0.0);
  EXPECT_GE(trace.totalSeconds("build"),
            trace.totalSeconds("build.leaf_share"));
  // Each sub-phase span opens once per phase call.
  for (const char* name : {"decompose", "decompose.keys", "decompose.splitters",
                           "decompose.scatter", "build", "build.local",
                           "build.upper_tree", "build.leaf_share",
                           "traverse.top_down"}) {
    EXPECT_EQ(trace.totalCount(name), 1u) << name;
  }
  trace.reset();
  EXPECT_DOUBLE_EQ(trace.totalSeconds("build"), 0.0);
}

TEST(Forest, LeafShareCostIsSmallFraction) {
  // Paper: "this leaf sharing step takes only 0.1-0.4% of the total
  // iteration time". Allow a loose bound here (small problem sizes).
  rts::Runtime rt({2, 2});
  obs::TraceBuffer trace;
  Forest<CentroidData, OctTreeType> forest(
      rt, baseConfig(), Instrumentation{nullptr, nullptr, &trace});
  forest.load(makeParticles(uniformCube(2000, 109)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  EXPECT_LT(trace.totalSeconds("build.leaf_share"),
            0.5 * (trace.totalSeconds("build") +
                   trace.totalSeconds("traverse.top_down")));
}

TEST(Forest, SubtreeRegionsMatchTreeType) {
  rts::Runtime rt({2, 1});
  Configuration conf = baseConfig();
  conf.tree_type = TreeType::eKd;
  conf.decomp_type = DecompType::eSfc;
  Forest<CentroidData, KdTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(400, 113)));
  forest.decompose();
  forest.build();
  // Subtree roots carry binary keys at their decomposition depth.
  for (int s = 0; s < forest.numSubtrees(); ++s) {
    const auto& st = forest.subtree(s);
    EXPECT_EQ(keys::level(st.root->key, 1), st.region.depth);
  }
}

TEST(Forest, CommunicationHappensOnlyAcrossProcs) {
  Configuration conf = baseConfig();
  // Single proc: leaf sharing and traversal need no messages beyond the
  // root-record broadcast to itself.
  rts::Runtime rt({1, 2});
  rt.resetStats();
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(300, 127)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  EXPECT_LE(rt.stats().messages, 2u);  // the self-broadcast only
}

}  // namespace
}  // namespace paratreet
