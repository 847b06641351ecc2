#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "apps/gravity/gravity.hpp"
#include "core/forest.hpp"

namespace paratreet {
namespace {

Configuration smallConfig() {
  Configuration conf;
  conf.min_partitions = 6;
  conf.min_subtrees = 6;
  conf.bucket_size = 8;
  conf.decomp_type = DecompType::eSfc;
  conf.tree_type = TreeType::eOct;
  return conf;
}

std::vector<Particle> runGravity(rts::Runtime& rt, CacheModel model,
                                 int fetch_depth = 3,
                                 std::size_t n = 600) {
  Configuration conf = smallConfig();
  conf.cache_model = model;
  conf.fetch_depth = fetch_depth;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(n, 99)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  return forest.collect();
}

class CacheModelTest : public ::testing::TestWithParam<CacheModel> {};

TEST_P(CacheModelTest, MatchesWaitFreeResults) {
  rts::Runtime rt({3, 2});
  const auto reference = runGravity(rt, CacheModel::kWaitFree);
  const auto result = runGravity(rt, GetParam());
  ASSERT_EQ(reference.size(), result.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // All models do identical physics; only FP summation order may vary
    // through pause/resume scheduling.
    const double scale = reference[i].acceleration.length() + 1e-12;
    EXPECT_LT((reference[i].acceleration - result[i].acceleration).length(),
              1e-9 * scale)
        << "particle " << i;
  }
}

TEST_P(CacheModelTest, WorksAcrossFetchDepths) {
  rts::Runtime rt({2, 2});
  const auto reference = runGravity(rt, GetParam(), 1, 300);
  const auto deep = runGravity(rt, GetParam(), 6, 300);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double scale = reference[i].acceleration.length() + 1e-12;
    EXPECT_LT((reference[i].acceleration - deep[i].acceleration).length(),
              1e-9 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, CacheModelTest,
                         ::testing::Values(CacheModel::kWaitFree,
                                           CacheModel::kXWrite,
                                           CacheModel::kPerThread,
                                           CacheModel::kSingleInserter),
                         [](const auto& info) { return toString(info.param); });

TEST(CacheManager, SingleProcNeedsNoFetches) {
  rts::Runtime rt({1, 2});
  Configuration conf = smallConfig();
  obs::MetricsRegistry counts;
  Forest<CentroidData, OctTreeType> forest(
      rt, conf, Instrumentation{nullptr, &counts, nullptr});
  forest.load(makeParticles(uniformCube(500, 3)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  EXPECT_EQ(counts.counter("cache.misses").value(), 0u);
  EXPECT_EQ(counts.counter("cache.fills").value(), 0u);
}

TEST(CacheManager, MultiProcFetchesRemoteData) {
  rts::Runtime rt({4, 1});
  Configuration conf = smallConfig();
  obs::MetricsRegistry counts;
  Forest<CentroidData, OctTreeType> forest(
      rt, conf, Instrumentation{nullptr, &counts, nullptr});
  forest.load(makeParticles(uniformCube(800, 4)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  const std::uint64_t misses = counts.counter("cache.misses").value();
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(counts.counter("cache.fills").value(), misses);
  EXPECT_GT(counts.counter("cache.bytes_received").value(), 0u);
  EXPECT_GT(counts.counter("cache.pauses").value(), 0u);
}

TEST(CacheManager, FillRoundTripHistogramObservesEveryFill) {
  // A modeled link delays the request and the response by its latency
  // each, so every fill's round trip is at least twice that.
  constexpr double kLatencyUs = 50.0;
  for (const int procs : {1, 2}) {
    rts::Runtime::Config rc;
    rc.n_procs = procs;
    rc.workers_per_proc = 2;
    rc.comm.latency_us = kLatencyUs;
    rts::Runtime rt(rc);
    obs::MetricsRegistry counts;
    Forest<CentroidData, OctTreeType> forest(
        rt, smallConfig(), Instrumentation{nullptr, &counts, nullptr});
    forest.load(makeParticles(uniformCube(600, 5)));
    forest.decompose();
    forest.build();
    forest.traverse<GravityVisitor>(GravityVisitor{});
    const obs::Histogram* rtt = counts.findHistogram("cache.fill_rtt_us");
    ASSERT_NE(rtt, nullptr) << procs << " procs";
    const auto snap = rtt->snapshot();
    EXPECT_EQ(snap.count, counts.counter("cache.fills").value())
        << procs << " procs";
    if (procs == 1) {
      EXPECT_EQ(snap.count, 0u);
    } else {
      EXPECT_GT(snap.count, 0u);
      EXPECT_GE(snap.min, 2 * kLatencyUs);
    }
  }
}

TEST(CacheManager, PerThreadModelFetchesMore) {
  // The per-thread ("Sequential") cache duplicates fetches across workers
  // on the same process: strictly more communication volume.
  rts::Runtime rt({2, 3});
  Configuration conf = smallConfig();
  conf.min_partitions = 12;  // several partitions per proc to occupy workers

  auto requests = [&](CacheModel model) {
    conf.cache_model = model;
    obs::MetricsRegistry counts;
    Forest<CentroidData, OctTreeType> forest(
        rt, conf, Instrumentation{nullptr, &counts, nullptr});
    forest.load(makeParticles(clustered(1500, 5, 6, 0.05)));
    forest.decompose();
    forest.build();
    forest.traverse<GravityVisitor>(GravityVisitor{});
    return counts.counter("cache.misses").value();
  };
  const auto shared = requests(CacheModel::kWaitFree);
  const auto per_thread = requests(CacheModel::kPerThread);
  EXPECT_GT(per_thread, shared);
}

TEST(CacheManager, PerThreadModelUsesMoreMemory) {
  rts::Runtime rt({2, 3});
  Configuration conf = smallConfig();
  conf.min_partitions = 12;

  auto nodes = [&](CacheModel model) {
    conf.cache_model = model;
    Forest<CentroidData, OctTreeType> forest(rt, conf);
    forest.load(makeParticles(clustered(1500, 5, 6, 0.05)));
    forest.decompose();
    forest.build();
    forest.traverse<GravityVisitor>(GravityVisitor{});
    return forest.cachedNodeCount();
  };
  EXPECT_GT(nodes(CacheModel::kPerThread), nodes(CacheModel::kWaitFree));
}

// Regression (TSan-exercised): cachedNodeCount() iterates blocks_ that
// concurrent cache fills push into under blocks_mutex_; the read used to
// skip the lock, a data race that could walk a reallocating vector. Poll
// the footprint from a separate thread throughout a multi-proc traversal
// (remote fills guaranteed) — under -DPARATREET_SANITIZE=thread the old
// code reports the race, the guarded read is clean.
TEST(CacheManager, CachedNodeCountIsSafeToPollDuringTraversal) {
  rts::Runtime rt({4, 2});
  Configuration conf = smallConfig();
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(1200, 77)));
  forest.decompose();
  forest.build();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> polls{0};
  std::size_t last = 0;
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      last = forest.cachedNodeCount();
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 3; ++i) {
    forest.traverse<GravityVisitor>(GravityVisitor{});
  }
  stop.store(true, std::memory_order_release);
  poller.join();

  EXPECT_GT(polls.load(), 0u);
  // After quiescence the poll matches a fresh read.
  EXPECT_EQ(forest.cachedNodeCount(), forest.cachedNodeCount());
  EXPECT_GT(forest.cachedNodeCount(), 0u);
  (void)last;
}

TEST(CacheManager, UpperTreeAggregatesAllSubtrees) {
  rts::Runtime rt({3, 1});
  Configuration conf = smallConfig();
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(700, 6)));
  forest.decompose();
  forest.build();
  for (int p = 0; p < rt.numProcs(); ++p) {
    Node<CentroidData>* root = forest.cache(p).root();
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->n_particles, 700);
    EXPECT_NEAR(root->data.sum_mass, 1.0, 1e-9);
  }
}

TEST(CacheManager, LocalNodeResolvesOwnKeys) {
  rts::Runtime rt({2, 1});
  Configuration conf = smallConfig();
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(500, 7)));
  forest.decompose();
  forest.build();
  // Every subtree root resolves on its home proc and not elsewhere.
  for (int s = 0; s < forest.numSubtrees(); ++s) {
    auto& st = forest.subtree(s);
    Node<CentroidData>* found = forest.cache(st.home_proc).localNode(st.root->key);
    EXPECT_EQ(found, st.root);
    const int other = (st.home_proc + 1) % rt.numProcs();
    if (other != st.home_proc) {
      EXPECT_EQ(forest.cache(other).localNode(st.root->key), nullptr);
    }
  }
}

int firstLiveChild(Node<CentroidData>* n) {
  for (int c = 0; c < n->n_children; ++c) {
    if (n->child(c) != nullptr && n->child(c)->n_particles > 0) return c;
  }
  return 0;
}

TEST(CacheManager, LocalNodeResolvesDeepKeys) {
  rts::Runtime rt({2, 1});
  Configuration conf = smallConfig();
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(600, 8)));
  forest.decompose();
  forest.build();
  // Pick a deep node of subtree 0 and resolve it by key.
  auto& st = forest.subtree(0);
  Node<CentroidData>* deep = st.root;
  while (!deep->leaf()) deep = deep->child(firstLiveChild(deep));
  Node<CentroidData>* found = forest.cache(st.home_proc).localNode(deep->key);
  EXPECT_EQ(found, deep);
}

TEST(Serialization, RegionRoundTrip) {
  // Build a small local tree, serialize a region, and check the records.
  const OrientedBox universe{Vec3(0), Vec3(1)};
  auto ps = makeParticles(uniformCube(200, 9));
  assignKeys(ps, universe);
  NodeArena<CentroidData> arena;
  BuildOptions opts;
  opts.bucket_size = 8;
  Node<CentroidData>* root = buildTree<CentroidData>(
      OctTreeType{}, arena, std::span<Particle>(ps), universe, opts);

  const auto block = serializeRegion(root, 2);
  ASSERT_FALSE(block.records.empty());
  EXPECT_EQ(block.requested, root->key);
  EXPECT_EQ(block.records[0].key, root->key);
  EXPECT_EQ(block.records[0].parent_index, -1);
  // Every shipped leaf's particles are present.
  std::size_t leaf_particles = 0;
  for (const auto& rec : block.records) {
    if (rec.type == NodeType::kLeaf) {
      EXPECT_GE(rec.particles_offset, 0);
      leaf_particles += static_cast<std::size_t>(rec.particles_count);
    }
    if (rec.parent_index >= 0) {
      EXPECT_LT(rec.parent_index, static_cast<std::int32_t>(block.records.size()));
    }
  }
  EXPECT_EQ(leaf_particles, block.particles.size());
  EXPECT_GT(block.byteSize(), sizeof(Key));
}

TEST(Serialization, FetchDepthBoundsRecords) {
  const OrientedBox universe{Vec3(0), Vec3(1)};
  auto ps = makeParticles(uniformCube(500, 10));
  assignKeys(ps, universe);
  NodeArena<CentroidData> arena;
  BuildOptions opts;
  opts.bucket_size = 4;
  Node<CentroidData>* root = buildTree<CentroidData>(
      OctTreeType{}, arena, std::span<Particle>(ps), universe, opts);
  const auto shallow = serializeRegion(root, 1);
  const auto deep = serializeRegion(root, 4);
  EXPECT_LT(shallow.records.size(), deep.records.size());
  // Shallow frontier nodes are marked unshipped.
  bool has_frontier = false;
  for (const auto& rec : shallow.records) {
    if (rec.type == NodeType::kInternal && !rec.children_shipped) {
      has_frontier = true;
    }
  }
  EXPECT_TRUE(has_frontier);
}

TEST(Configuration, DerivedValues) {
  Configuration conf;
  conf.tree_type = TreeType::eOct;
  EXPECT_EQ(conf.bitsPerLevel(), 3);
  EXPECT_EQ(conf.subtreeDecomp(), DecompType::eOct);
  conf.tree_type = TreeType::eKd;
  EXPECT_EQ(conf.bitsPerLevel(), 1);
  EXPECT_EQ(conf.subtreeDecomp(), DecompType::eKd);
  conf.tree_type = TreeType::eLongest;
  EXPECT_EQ(conf.subtreeDecomp(), DecompType::eLongest);
}

TEST(Configuration, ToStringNames) {
  EXPECT_EQ(toString(TreeType::eOct), "oct");
  EXPECT_EQ(toString(CacheModel::kWaitFree), "WaitFree");
  EXPECT_EQ(toString(CacheModel::kXWrite), "XWrite");
  EXPECT_EQ(toString(CacheModel::kPerThread), "Sequential");
  EXPECT_EQ(toString(CacheModel::kSingleInserter), "SingleInserter");
}

}  // namespace
}  // namespace paratreet
