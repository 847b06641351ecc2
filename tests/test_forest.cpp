#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

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

TEST(ForestLoad, RejectsDuplicateOrder) {
  rts::Runtime rt({1, 1});
  Forest<CentroidData, OctTreeType> forest(rt, baseConfig());
  auto ps = makeParticles(uniformCube(50, 131));
  ps[17].order = 4;  // particle 4 already holds order 4
  try {
    forest.load(ps);
    FAIL() << "duplicate order accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("particle 17 repeats order 4"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(forest.particleCount(), 0u);
}

TEST(ForestLoad, RejectsOutOfRangeOrder) {
  rts::Runtime rt({1, 1});
  Forest<CentroidData, OctTreeType> forest(rt, baseConfig());
  for (const std::int32_t bad : {-1, 50, 1000}) {
    auto ps = makeParticles(uniformCube(50, 137));
    ps[9].order = bad;
    try {
      forest.load(ps);
      FAIL() << "order " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("particle 9 has order " +
                                           std::to_string(bad)),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(forest.particleCount(), 0u);
  // Any permutation of [0, n) is accepted.
  auto ps = makeParticles(uniformCube(50, 139));
  std::reverse(ps.begin(), ps.end());
  EXPECT_NO_THROW(forest.load(ps));
  EXPECT_EQ(forest.particleCount(), 50u);
}

template <typename T>
bool sameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Field-by-field bitwise equality (struct padding is not compared).
bool sameParticle(const Particle& a, const Particle& b) {
  return sameBits(a.position, b.position) &&
         sameBits(a.velocity, b.velocity) && sameBits(a.mass, b.mass) &&
         sameBits(a.ball_radius, b.ball_radius) && a.key == b.key &&
         a.order == b.order && a.partition == b.partition &&
         a.subtree == b.subtree &&
         sameBits(a.acceleration, b.acceleration) &&
         sameBits(a.potential, b.potential) &&
         sameBits(a.density, b.density) &&
         sameBits(a.pressure, b.pressure) &&
         a.collision_partner == b.collision_partner &&
         sameBits(a.collision_time, b.collision_time) &&
         a.neighbor_count == b.neighbor_count && sameBits(a.ball2, b.ball2);
}

void expectSameParticles(const std::vector<Particle>& a,
                         const std::vector<Particle>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(sameParticle(a[i], b[i]))
        << what << ": particle " << i << " (order " << a[i].order << " vs "
        << b[i].order << ")";
  }
}

/// One Partition's buckets in a canonical order (leaf key, then first
/// particle order): concurrent leaf sharing appends them in any order.
template <typename Data>
std::vector<const Bucket<Data>*> sortedBuckets(const Partition<Data>& part) {
  std::vector<const Bucket<Data>*> out;
  for (const auto& b : part.buckets) out.push_back(&b);
  std::sort(out.begin(), out.end(), [](const auto* x, const auto* y) {
    if (x->leaf_key != y->leaf_key) return x->leaf_key < y->leaf_key;
    return x->particles.front().order < y->particles.front().order;
  });
  return out;
}

class ResidentStorageTest : public ::testing::TestWithParam<DecompType> {};

// flush() gathers into the resident particle array and decompose() refills
// the resident Subtrees; every round must leave exactly the state a fresh
// Forest loaded from the same particles reaches.
TEST_P(ResidentStorageTest, EveryRoundMatchesAFreshForest) {
  const DecompType decomp = GetParam();
  // Each decomposition over the tree it is consistent with (SFC over
  // octrees).
  const TreeType tree = decomp == DecompType::eKd        ? TreeType::eKd
                        : decomp == DecompType::eLongest ? TreeType::eLongest
                                                         : TreeType::eOct;
  rts::Runtime rt({2, 2});
  Configuration conf = baseConfig();
  conf.decomp_type = decomp;
  conf.tree_type = tree;

  // Shuffled, so a particle's `order` differs from its index.
  auto input = makeParticles(uniformCube(700, 149));
  std::shuffle(input.begin(), input.end(), std::mt19937(151));

  dispatchTreeType(tree, [&](auto tree_type) {
    using TreeT = decltype(tree_type);
    Forest<CentroidData, TreeT> resident(rt, conf);
    resident.load(input);
    resident.decompose();
    for (int round = 0; round <= 3; ++round) {
      SCOPED_TRACE("after " + std::to_string(round) + " flush(es)");
      Forest<CentroidData, TreeT> fresh(rt, conf);
      fresh.load(input);
      fresh.decompose();

      ASSERT_EQ(resident.numSubtrees(), fresh.numSubtrees());
      for (int s = 0; s < fresh.numSubtrees(); ++s) {
        const auto& a = resident.subtree(s);
        const auto& b = fresh.subtree(s);
        EXPECT_EQ(a.home_proc, b.home_proc);
        EXPECT_EQ(a.region.key, b.region.key);
        expectSameParticles(a.particles, b.particles,
                            "subtree " + std::to_string(s));
      }

      resident.build();
      fresh.build();
      ASSERT_EQ(resident.numPartitions(), fresh.numPartitions());
      for (int i = 0; i < fresh.numPartitions(); ++i) {
        const auto a = sortedBuckets(resident.partition(i));
        const auto b = sortedBuckets(fresh.partition(i));
        ASSERT_EQ(a.size(), b.size()) << "partition " << i;
        for (std::size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(a[k]->leaf_key, b[k]->leaf_key);
          expectSameParticles(a[k]->particles, b[k]->particles,
                              "partition " + std::to_string(i) + " bucket " +
                                  std::to_string(k));
        }
      }
      expectSameParticles(resident.collect(), fresh.collect(), "collect()");
      if (round == 3) break;

      // Drift far enough to cross piece boundaries, and leave outputs for
      // the flush to clear.
      resident.forEachParticle([](Particle& p) {
        p.position.x += 0.03 * std::sin(1.7 * p.order);
        p.position.y += 0.03 * std::cos(0.9 * p.order);
        p.potential = 1.0;
        p.collision_partner = 3;
      });
      input = resident.collect();
      for (auto& p : input) {
        p.potential = 0.0;
        p.collision_partner = -1;
      }
      resident.flush();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllDecomps, ResidentStorageTest,
    ::testing::Values(DecompType::eSfc, DecompType::eOct, DecompType::eKd,
                      DecompType::eLongest),
    [](const auto& info) { return toString(info.param); });

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
  obs::MetricsRegistry counts;  // declared first: outlives the runtime
  rts::Runtime rt({1, 2});
  rt.attachMetrics(&counts);
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(300, 127)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  // The self-broadcast only.
  EXPECT_LE(counts.counter("rts.messages").value(), 2u);
}

}  // namespace
}  // namespace paratreet
