#include <gtest/gtest.h>

#include "apps/gravity/gravity.hpp"
#include "core/driver.hpp"
#include "core/forest.hpp"

namespace paratreet {
namespace {

Configuration baseConfig(int share_levels) {
  Configuration conf;
  conf.min_partitions = 8;
  conf.min_subtrees = 6;
  conf.bucket_size = 8;
  conf.share_levels = share_levels;
  return conf;
}

/// One build + traversal; `counts` (when given) must be a fresh registry
/// and receives that iteration's cache.* counters.
std::vector<Particle> runWithShare(rts::Runtime& rt, int share_levels,
                                   obs::MetricsRegistry* counts) {
  Forest<CentroidData, OctTreeType> forest(
      rt, baseConfig(share_levels), Instrumentation{nullptr, counts, nullptr});
  forest.load(makeParticles(uniformCube(700, 19)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  return forest.collect();
}

TEST(ShareLevels, ResultsIdenticalWithAndWithoutSharing) {
  rts::Runtime rt({3, 2});
  const auto without = runWithShare(rt, 0, nullptr);
  const auto with = runWithShare(rt, 3, nullptr);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_LT((without[i].acceleration - with[i].acceleration).length(),
              1e-9 * (without[i].acceleration.length() + 1e-12));
  }
}

TEST(ShareLevels, SharingReducesTraversalFetches) {
  rts::Runtime rt({4, 1});
  obs::MetricsRegistry none, shared;
  runWithShare(rt, 0, &none);
  runWithShare(rt, 4, &shared);
  EXPECT_GT(none.counter("cache.misses").value(),
            shared.counter("cache.misses").value());
  EXPECT_GT(shared.counter("cache.preloaded_nodes").value(), 0u);
  EXPECT_EQ(none.counter("cache.preloaded_nodes").value(), 0u);
}

TEST(ShareLevels, DeepSharingEliminatesMostFetches) {
  rts::Runtime rt({3, 1});
  obs::MetricsRegistry deep;
  runWithShare(rt, 30, &deep);  // deeper than any subtree: everything shared
  EXPECT_EQ(deep.counter("cache.misses").value(), 0u);
}

TEST(ShareLevels, SingleProcIsNoop) {
  rts::Runtime rt({1, 2});
  obs::MetricsRegistry counts;
  runWithShare(rt, 3, &counts);
  // Nothing is remote.
  EXPECT_EQ(counts.counter("cache.preloaded_nodes").value(), 0u);
}

/// Driver with periodic load balancing (Configuration::lb_period).
class LbDriver : public Driver<CentroidData, OctTreeType> {
 public:
  LbScheme scheme = LbScheme::kSfc;
  void configure(Configuration& conf) override {
    conf.num_iterations = 3;
    conf.min_partitions = 12;
    conf.min_subtrees = 4;
    conf.bucket_size = 8;
    conf.lb_period = 1;
    conf.lb_scheme = scheme;
  }
  void traversal(int) override { startDown<GravityVisitor>(); }
};

TEST(DriverLb, PeriodicRebalanceKeepsResultsCorrect) {
  rts::Runtime rt({3, 2});
  LbDriver app;
  auto particles = makeParticles(clustered(600, 23, 3, 0.02));
  app.run(rt, particles);
  EXPECT_EQ(app.forest().particleCount(), 600u);
  // Forces from the final (rebalanced) iteration match a fresh
  // non-balanced run on the same static particles.
  Configuration conf;
  conf.min_partitions = 12;
  conf.min_subtrees = 4;
  conf.bucket_size = 8;
  Forest<CentroidData, OctTreeType> reference(rt, conf);
  reference.load(std::move(particles));
  reference.decompose();
  reference.build();
  reference.traverse<GravityVisitor>(GravityVisitor{});
  const auto expect = reference.collect();
  const auto got = app.forest().collect();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_LT((got[i].acceleration - expect[i].acceleration).length(),
              1e-9 * (expect[i].acceleration.length() + 1e-12));
  }
}

TEST(DriverLb, GreedySchemeAlsoRuns) {
  rts::Runtime rt({2, 2});
  LbDriver app;
  app.scheme = LbScheme::kGreedy;
  app.run(rt, makeParticles(uniformCube(400, 29)));
  EXPECT_EQ(app.forest().particleCount(), 400u);
}

}  // namespace
}  // namespace paratreet
