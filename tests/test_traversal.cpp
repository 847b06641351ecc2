#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>

#include "apps/sph/knn.hpp"
#include "core/forest.hpp"

namespace paratreet {
namespace {

/// Data that counts particles (needed to verify coverage invariants).
struct CountData {
  int count{0};
  CountData() = default;
  CountData(const Particle*, int n) : count(n) {}
  CountData& operator+=(const CountData& o) {
    count += o.count;
    return *this;
  }
};

/// Opens everything; counts leaf-level source particles seen per target.
/// After a full traversal every target particle must have seen every
/// particle in the universe exactly once.
struct CoverageVisitor {
  bool open(const SpatialNode<CountData>&, SpatialNode<CountData>&) const {
    return true;
  }
  void node(const SpatialNode<CountData>&, SpatialNode<CountData>&) const {}
  void leaf(const SpatialNode<CountData>& source,
            SpatialNode<CountData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      // Abuse the density field as a per-particle interaction counter.
      target.particle(i).density += source.n_particles;
    }
  }
};

/// Prunes at internal nodes, consuming summaries; checks that
/// node()+leaf() interactions cover each (target, source-particle) pair
/// exactly once regardless of where pruning cuts the tree.
struct PruningVisitor {
  bool open(const SpatialNode<CountData>& source,
            SpatialNode<CountData>& target) const {
    // Geometric, deterministic pruning: open near nodes only.
    return source.box.distanceSquared(target.box.center()) < 0.05;
  }
  void node(const SpatialNode<CountData>& source,
            SpatialNode<CountData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      target.particle(i).density += source.data.count;
    }
  }
  void leaf(const SpatialNode<CountData>& source,
            SpatialNode<CountData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      target.particle(i).density += source.n_particles;
    }
  }
};

Configuration testConfig() {
  Configuration conf;
  conf.min_partitions = 5;
  conf.min_subtrees = 4;
  conf.bucket_size = 10;
  return conf;
}

class TraversalCoverageTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, TraversalStyle, EvalKernel>> {};

TEST_P(TraversalCoverageTest, EveryPairCountedOnce) {
  const auto [procs, workers, style, kernel] = GetParam();
  rts::Runtime rt({procs, workers});
  Forest<CountData, OctTreeType> forest(rt, testConfig());
  const std::size_t n = 400;
  forest.load(makeParticles(uniformCube(n, 31)));
  forest.decompose();
  forest.build();
  forest.traverse<CoverageVisitor>({}, style, kernel);
  for (const auto& p : forest.collect()) {
    EXPECT_DOUBLE_EQ(p.density, static_cast<double>(n)) << "order " << p.order;
  }
}

TEST_P(TraversalCoverageTest, PruningStillCoversEveryPair) {
  const auto [procs, workers, style, kernel] = GetParam();
  rts::Runtime rt({procs, workers});
  Forest<CountData, OctTreeType> forest(rt, testConfig());
  const std::size_t n = 400;
  forest.load(makeParticles(uniformCube(n, 37)));
  forest.decompose();
  forest.build();
  forest.traverse<PruningVisitor>({}, style, kernel);
  for (const auto& p : forest.collect()) {
    EXPECT_DOUBLE_EQ(p.density, static_cast<double>(n)) << "order " << p.order;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProcGrid, TraversalCoverageTest,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 2),
                       ::testing::Values(TraversalStyle::kTransposed,
                                         TraversalStyle::kPerBucket),
                       ::testing::Values(EvalKernel::kVisitor,
                                         EvalKernel::kBatched)),
    [](const auto& info) {
      const TraversalStyle s = std::get<2>(info.param);
      const EvalKernel k = std::get<3>(info.param);
      return std::string(s == TraversalStyle::kTransposed ? "Transposed"
                                                          : "PerBucket") +
             std::string(k == EvalKernel::kBatched ? "Batched" : "Visitor") +
             "_p" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Traversal, TransposedAndPerBucketAgree) {
  rts::Runtime rt({2, 2});
  auto run = [&](TraversalStyle style) {
    Forest<CountData, OctTreeType> forest(rt, testConfig());
    forest.load(makeParticles(uniformCube(500, 41)));
    forest.decompose();
    forest.build();
    forest.traverse<PruningVisitor>({}, style);
    return forest.collect();
  };
  const auto a = run(TraversalStyle::kTransposed);
  const auto b = run(TraversalStyle::kPerBucket);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].density, b[i].density);
  }
}

// --- k-nearest-neighbour (up-and-down) correctness ---------------------------

/// The k nearest particles to `pos`, as (d2, order) pairs sorted by d2;
/// nth_element keeps each query linear at thousands of points.
std::vector<std::pair<double, int>> bruteForceKnn(
    const std::vector<Particle>& ps, const Vec3& pos, int k) {
  std::vector<std::pair<double, int>> d;
  d.reserve(ps.size());
  for (const auto& p : ps) {
    d.push_back({distanceSquared(p.position, pos), p.order});
  }
  std::nth_element(d.begin(), d.begin() + (k - 1), d.end());
  d.resize(static_cast<std::size_t>(k));
  std::sort(d.begin(), d.end());
  return d;
}

class KnnTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnnTest, MatchesBruteForce) {
  const auto [k, procs] = GetParam();
  rts::Runtime rt({procs, 2});
  Configuration conf = testConfig();
  Forest<CountData, OctTreeType> forest(rt, conf);
  auto particles = makeParticles(uniformCube(350, 53));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();

  NeighborStore store(reference.size(), k);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
  forest.traverseUpAndDown(KNearestVisitor<CountData>{&store});

  // Spot-check a sample of particles against brute force.
  for (int order : {0, 17, 99, 250, 349}) {
    const auto expected =
        bruteForceKnn(reference, reference[static_cast<std::size_t>(order)].position, k);
    auto heap = store.neighbors(order);
    ASSERT_EQ(heap.size(), static_cast<std::size_t>(k)) << "order " << order;
    std::sort(heap.begin(), heap.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.d2 < b.d2; });
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(heap[static_cast<std::size_t>(i)].d2, expected[static_cast<std::size_t>(i)].first,
                  1e-12)
          << "order " << order << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnTest,
                         ::testing::Combine(::testing::Values(1, 4, 16),
                                            ::testing::Values(1, 3)),
                         [](const auto& info) {
                           // Appended, not "k" + ...: GCC 12 -O3 misreports
                           // that form under -Wrestrict.
                           std::string name = "k";
                           name += std::to_string(std::get<0>(info.param));
                           name += "_p";
                           name += std::to_string(std::get<1>(info.param));
                           return name;
                         });

TEST(KnnTest, SelfIsNearestNeighbor) {
  rts::Runtime rt({2, 1});
  Forest<CountData, OctTreeType> forest(rt, testConfig());
  auto particles = makeParticles(uniformCube(200, 59));
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  NeighborStore store(200, 4);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
  forest.traverseUpAndDown(KNearestVisitor<CountData>{&store});
  for (int order = 0; order < 200; ++order) {
    const auto& nbrs = store.neighbors(order);
    bool has_self = false;
    for (const auto& nb : nbrs) {
      if (nb.order == order) {
        has_self = true;
        EXPECT_DOUBLE_EQ(nb.d2, 0.0);
      }
    }
    EXPECT_TRUE(has_self) << "order " << order;
  }
}

TEST(NeighborStore, HeapSemantics) {
  NeighborStore store(1, 3);
  Particle target;
  target.order = 0;
  target.position = Vec3(0, 0, 0);
  target.ball2 = kInfiniteBall;
  auto src = [](double x, int order) {
    Particle p;
    p.position = Vec3(x, 0, 0);
    p.order = order;
    p.mass = 1.0;
    return p;
  };
  store.consider(target, src(5.0, 1));
  EXPECT_TRUE(std::isinf(target.ball2));  // not full yet
  store.consider(target, src(1.0, 2));
  store.consider(target, src(3.0, 3));
  EXPECT_DOUBLE_EQ(target.ball2, 25.0);  // full: farthest is x=5
  store.consider(target, src(2.0, 4));   // evicts x=5
  EXPECT_DOUBLE_EQ(target.ball2, 9.0);
  store.consider(target, src(10.0, 5));  // too far: ignored
  EXPECT_DOUBLE_EQ(target.ball2, 9.0);
  std::set<int> orders;
  for (const auto& nb : store.neighbors(0)) orders.insert(nb.order);
  EXPECT_EQ(orders, (std::set<int>{2, 3, 4}));
}

TEST(Traversal, UpAndDownVisitsOwnLeafFirst) {
  // The kNN ball after up-and-down must match pure top-down results;
  // this exercises the descend/ascend machinery across processes.
  rts::Runtime rt({3, 2});
  Configuration conf = testConfig();
  conf.min_partitions = 8;
  Forest<CountData, OctTreeType> forest(rt, conf);
  auto particles = makeParticles(clustered(400, 61, 4, 0.05));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  NeighborStore store(reference.size(), 8);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
  forest.traverseUpAndDown(KNearestVisitor<CountData>{&store});
  for (int order : {5, 100, 333}) {
    const auto expected =
        bruteForceKnn(reference, reference[static_cast<std::size_t>(order)].position, 8);
    auto heap = store.neighbors(order);
    std::sort(heap.begin(), heap.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.d2 < b.d2; });
    ASSERT_EQ(heap.size(), 8u);
    EXPECT_NEAR(heap.back().d2, expected.back().first, 1e-12);
  }
}

// --- every pausing traverser under every cache model --------------------------

/// Several Partitions per process and one level per fill, so walks pause
/// on nearly every remote region and, under kPerThread, a worker meets
/// regions its private cache already holds (the synchronous branch of the
/// shared pause path).
Configuration pausingConfig(CacheModel model) {
  Configuration conf = testConfig();
  conf.min_partitions = 12;
  conf.min_subtrees = 6;
  conf.fetch_depth = 1;
  conf.cache_model = model;
  return conf;
}

class CacheModelTraversalTest
    : public ::testing::TestWithParam<std::tuple<CacheModel, EvalKernel>> {};

TEST_P(CacheModelTraversalTest, TopDownCoversEveryPair) {
  const auto [model, kernel] = GetParam();
  rts::Runtime rt({3, 2});
  for (const auto style :
       {TraversalStyle::kTransposed, TraversalStyle::kPerBucket}) {
    obs::MetricsRegistry counts;
    Forest<CountData, OctTreeType> forest(
        rt, pausingConfig(model), Instrumentation{nullptr, &counts, nullptr});
    const std::size_t n = 400;
    forest.load(makeParticles(uniformCube(n, 37)));
    forest.decompose();
    forest.build();
    forest.traverse<PruningVisitor>({}, style, kernel);
    EXPECT_GT(counts.counter("cache.pauses").value(), 0u);
    for (const auto& p : forest.collect()) {
      EXPECT_DOUBLE_EQ(p.density, static_cast<double>(n))
          << "order " << p.order << " style " << static_cast<int>(style);
    }
  }
}

TEST_P(CacheModelTraversalTest, UpAndDownKnnMatchesBruteForce) {
  const auto [model, kernel] = GetParam();
  rts::Runtime rt({3, 2});
  obs::MetricsRegistry counts;
  Forest<CountData, OctTreeType> forest(
      rt, pausingConfig(model), Instrumentation{nullptr, &counts, nullptr});
  auto particles = makeParticles(clustered(400, 61, 4, 0.05));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  const int k = 6;
  NeighborStore store(reference.size(), k);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
  forest.traverseUpAndDown(KNearestVisitor<CountData>{&store}, kernel);
  EXPECT_GT(counts.counter("cache.pauses").value(), 0u);
  for (std::size_t order = 0; order < reference.size(); ++order) {
    const auto expected = bruteForceKnn(reference, reference[order].position, k);
    auto heap = store.neighbors(static_cast<int>(order));
    ASSERT_EQ(heap.size(), static_cast<std::size_t>(k)) << "order " << order;
    std::sort(heap.begin(), heap.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.d2 < b.d2; });
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(heap[static_cast<std::size_t>(i)].d2,
                  expected[static_cast<std::size_t>(i)].first, 1e-12)
          << "order " << order << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CacheModelTraversalTest,
    ::testing::Combine(::testing::Values(CacheModel::kWaitFree,
                                         CacheModel::kXWrite,
                                         CacheModel::kPerThread,
                                         CacheModel::kSingleInserter),
                       ::testing::Values(EvalKernel::kVisitor,
                                         EvalKernel::kBatched)),
    [](const auto& info) {
      return toString(std::get<0>(info.param)) +
             (std::get<1>(info.param) == EvalKernel::kBatched ? "Batched"
                                                              : "Visitor");
    });

// --- a seed walk of many slices ----------------------------------------------

/// Enough buckets that every Partition's up-and-down seed walk spans
/// several slices, so later slices run after fills and resumes queued
/// behind earlier ones; a modeled link keeps those fills in flight.
class SlicedSeedTest
    : public ::testing::TestWithParam<std::tuple<CacheModel, EvalKernel>> {};

TEST_P(SlicedSeedTest, MatchesBruteForce) {
  const auto [model, kernel] = GetParam();
  rts::Runtime::Config rc;
  rc.n_procs = 3;
  rc.workers_per_proc = 2;
  rc.comm.latency_us = 20.0;
  rc.comm.us_per_byte = 0.001;
  rts::Runtime rt(rc);
  Configuration conf = pausingConfig(model);
  conf.bucket_size = 8;
  obs::MetricsRegistry counts;
  Forest<CountData, OctTreeType> forest(
      rt, conf, Instrumentation{nullptr, &counts, nullptr});
  const auto reference = makeParticles(clustered(8000, 67, 4, 0.1));
  forest.load(std::vector<Particle>(reference));
  forest.decompose();
  forest.build();
  using Trav = UpAndDownTraverser<CountData, KNearestVisitor<CountData>>;
  std::uint64_t buckets = 0;
  for (int i = 0; i < forest.numPartitions(); ++i) {
    const std::size_t nb = forest.partition(i).buckets.size();
    EXPECT_GE(nb, 4 * std::size_t{Trav::kSeedSlice}) << "partition " << i;
    buckets += nb;
  }

  if (kernel == EvalKernel::kVisitor) {
    // kNN: every particle's neighbour set equals brute force exactly.
    const int k = 8;
    NeighborStore store(reference.size(), k);
    forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
    forest.traverseUpAndDown(KNearestVisitor<CountData>{&store}, kernel);
    for (std::size_t order = 0; order < reference.size(); ++order) {
      std::vector<std::pair<double, int>> got;
      for (const auto& nb : store.neighbors(static_cast<int>(order))) {
        got.push_back({nb.d2, nb.order});
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, bruteForceKnn(reference, reference[order].position, k))
          << "order " << order;
    }
  } else {
    // Fixed ball on the batched kernel: every particle's in-ball
    // neighbour count equals brute force exactly, and every bucket seals
    // exactly once.
    const double ball2 = 0.004;
    forest.forEachParticle([ball2](Particle& p) { p.ball2 = ball2; });
    forest.traverseUpAndDown(FixedBallDensityVisitor<CountData>{}, kernel);
    EXPECT_EQ(counts.counter("kernel.sealed_total").value(), buckets);
    for (const auto& p : forest.collect()) {
      std::int32_t want = 0;
      for (const auto& q : reference) {
        if (distanceSquared(p.position, q.position) < ball2) ++want;
      }
      EXPECT_EQ(p.neighbor_count, want) << "order " << p.order;
    }
  }
  EXPECT_GT(counts.counter("cache.pauses").value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, SlicedSeedTest,
    ::testing::Combine(::testing::Values(CacheModel::kWaitFree,
                                         CacheModel::kXWrite,
                                         CacheModel::kPerThread,
                                         CacheModel::kSingleInserter),
                       ::testing::Values(EvalKernel::kVisitor,
                                         EvalKernel::kBatched)),
    [](const auto& info) {
      return toString(std::get<0>(info.param)) +
             (std::get<1>(info.param) == EvalKernel::kBatched ? "BatchedBall"
                                                              : "VisitorKnn");
    });

}  // namespace
}  // namespace paratreet
