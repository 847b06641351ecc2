#include <gtest/gtest.h>

#include <atomic>
#include <limits>

#include "apps/sph/sph.hpp"
#include "core/forest.hpp"

namespace paratreet {
namespace {

/// Nearest-source search as a best-first traversal: for every target
/// particle, find the distance to its nearest other particle. The
/// priority expands the closest node first, so the pruning ball collapses
/// after the first few leaves — the ray-tracing-style usage the paper
/// sketches for user-defined traversers.
struct NearestVisitor {
  std::atomic<std::uint64_t>* opens{nullptr};

  double priority(const SpatialNode<SphData>& source,
                  SpatialNode<SphData>& target) const {
    // Larger = sooner: negate the distance to the bucket's box.
    return -Space::distanceSquared(source.box, target.box);
  }

  bool open(const SpatialNode<SphData>& source,
            SpatialNode<SphData>& target) const {
    if (opens) opens->fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < target.n_particles; ++i) {
      if (source.box.distanceSquared(target.particle(i).position) <
          target.particle(i).ball2) {
        return true;
      }
    }
    return false;
  }

  void node(const SpatialNode<SphData>&, SpatialNode<SphData>&) const {}

  void leaf(const SpatialNode<SphData>& source,
            SpatialNode<SphData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      Particle& p = target.particle(i);
      for (int j = 0; j < source.n_particles; ++j) {
        const Particle& q = source.particle(j);
        if (q.order == p.order) continue;
        const double d2 = distanceSquared(p.position, q.position);
        if (d2 < p.ball2) p.ball2 = d2;
      }
    }
  }
};

Configuration testConfig() {
  Configuration conf;
  conf.min_partitions = 6;
  conf.min_subtrees = 4;
  conf.bucket_size = 8;
  return conf;
}

class PriorityTest : public ::testing::TestWithParam<int> {};

TEST_P(PriorityTest, NearestNeighborMatchesBruteForce) {
  const int procs = GetParam();
  rts::Runtime rt({procs, 2});
  Forest<SphData, OctTreeType> forest(rt, testConfig());
  auto particles = makeParticles(clustered(400, 91, 4, 0.04));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  forest.forEachParticle(
      [](Particle& p) { p.ball2 = std::numeric_limits<double>::infinity(); });
  forest.traversePriority<NearestVisitor>(NearestVisitor{});
  const auto out = forest.collect();
  for (std::size_t i = 0; i < out.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < reference.size(); ++j) {
      if (i == j) continue;
      best = std::min(best,
                      distanceSquared(reference[i].position,
                                      reference[j].position));
    }
    EXPECT_NEAR(out[i].ball2, best, 1e-12) << "order " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, PriorityTest, ::testing::Values(1, 2, 3),
                         [](const auto& info) {
                           // Appended, not "p" + ...: GCC 12 -O3 misreports
                           // that form under -Wrestrict.
                           std::string name = "p";
                           name += std::to_string(info.param);
                           return name;
                         });

// Every cache model on a multi-process runtime with one level per fill,
// so the best-first walk pauses and, under kPerThread, also continues
// synchronously on regions the worker's private cache already holds.
class PriorityCacheModelTest : public ::testing::TestWithParam<CacheModel> {};

TEST_P(PriorityCacheModelTest, NearestNeighborMatchesBruteForce) {
  rts::Runtime rt({3, 2});
  Configuration conf = testConfig();
  conf.min_partitions = 12;
  conf.fetch_depth = 1;
  conf.cache_model = GetParam();
  obs::MetricsRegistry counts;
  Forest<SphData, OctTreeType> forest(
      rt, conf, Instrumentation{nullptr, &counts, nullptr});
  auto particles = makeParticles(clustered(400, 91, 4, 0.04));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  forest.forEachParticle(
      [](Particle& p) { p.ball2 = std::numeric_limits<double>::infinity(); });
  forest.traversePriority<NearestVisitor>(NearestVisitor{});
  EXPECT_GT(counts.counter("cache.pauses").value(), 0u);
  const auto out = forest.collect();
  for (std::size_t i = 0; i < out.size(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < reference.size(); ++j) {
      if (i == j) continue;
      best = std::min(best, distanceSquared(reference[i].position,
                                            reference[j].position));
    }
    EXPECT_NEAR(out[i].ball2, best, 1e-12) << "order " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, PriorityCacheModelTest,
                         ::testing::Values(CacheModel::kWaitFree,
                                           CacheModel::kXWrite,
                                           CacheModel::kPerThread,
                                           CacheModel::kSingleInserter),
                         [](const auto& info) { return toString(info.param); });

TEST(PriorityTest, BestFirstOpensFewerNodesThanDepthFirst) {
  // The point of the priority order: with a tightening pruning ball,
  // expanding near nodes first prunes more of the far tree.
  rts::Runtime rt({1, 1});
  Forest<SphData, OctTreeType> forest(rt, testConfig());
  forest.load(makeParticles(uniformCube(600, 93)));
  forest.decompose();
  forest.build();

  std::atomic<std::uint64_t> priority_opens{0};
  forest.forEachParticle(
      [](Particle& p) { p.ball2 = std::numeric_limits<double>::infinity(); });
  forest.traversePriority<NearestVisitor>(NearestVisitor{&priority_opens});

  std::atomic<std::uint64_t> dfs_opens{0};
  forest.forEachParticle(
      [](Particle& p) { p.ball2 = std::numeric_limits<double>::infinity(); });
  forest.traverse<NearestVisitor>(NearestVisitor{&dfs_opens},
                                  TraversalStyle::kPerBucket);

  EXPECT_LT(priority_opens.load(), dfs_opens.load());
}

}  // namespace
}  // namespace paratreet
