// Randomized property tests across distributions, seeds and runtime
// schedules: the invariants in DESIGN.md section 6, checked on inputs the
// targeted unit tests don't enumerate.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "apps/collision/collision.hpp"
#include "apps/gravity/gravity.hpp"
#include "apps/sph/knn.hpp"
#include "apps/sph/sph.hpp"
#include "core/forest.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace paratreet {
namespace {

enum class Dist { kUniform, kPlummer, kClustered, kDisk };

InitialConditions make(Dist d, std::size_t n, std::uint64_t seed) {
  switch (d) {
    case Dist::kUniform: return uniformCube(n, seed);
    case Dist::kPlummer: return plummer(n, seed, 0.15);
    case Dist::kClustered: return clustered(n, seed, 5, 0.02);
    case Dist::kDisk: return planetesimalDisk(n, seed);
  }
  return {};
}

std::string distName(Dist d) {
  switch (d) {
    case Dist::kUniform: return "uniform";
    case Dist::kPlummer: return "plummer";
    case Dist::kClustered: return "clustered";
    case Dist::kDisk: return "disk";
  }
  return "?";
}

class ForestPropertyTest
    : public ::testing::TestWithParam<std::tuple<Dist, int>> {};

TEST_P(ForestPropertyTest, StructureAndConservation) {
  const auto [dist, seed] = GetParam();
  rts::Runtime rt({3, 2});
  Configuration conf;
  conf.min_partitions = 7;
  conf.min_subtrees = 5;
  conf.bucket_size = 11;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  const auto ic = make(dist, 600, static_cast<std::uint64_t>(seed));
  const std::size_t n = ic.size();
  forest.load(makeParticles(ic));
  forest.decompose();
  forest.build();
  // Structural invariants hold for every distribution & seed.
  EXPECT_EQ(forest.validate(), "");
  // Conservation: every particle exactly once in partitions & subtrees.
  std::map<std::int32_t, int> seen;
  for (int i = 0; i < forest.numPartitions(); ++i) {
    for (const auto& b : forest.partition(i).buckets) {
      for (const auto& p : b.particles) seen[p.order]++;
    }
  }
  EXPECT_EQ(seen.size(), n);
  for (const auto& [o, c] : seen) EXPECT_EQ(c, 1);
  // Mass conservation through Data accumulation.
  double subtree_mass = 0;
  for (int s = 0; s < forest.numSubtrees(); ++s) {
    subtree_mass += forest.subtree(s).root->data.sum_mass;
  }
  double direct = 0;
  for (double m : ic.masses) direct += m;
  EXPECT_NEAR(subtree_mass, direct, 1e-9 * (std::abs(direct) + 1));
  // Gravity produces finite results everywhere.
  GravityVisitor v;
  v.params.softening = 1e-4;
  forest.traverse<GravityVisitor>(v);
  for (const auto& p : forest.collect()) {
    EXPECT_TRUE(std::isfinite(p.acceleration.x));
    EXPECT_TRUE(std::isfinite(p.acceleration.y));
    EXPECT_TRUE(std::isfinite(p.acceleration.z));
    EXPECT_TRUE(std::isfinite(p.potential));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestPropertyTest,
    ::testing::Combine(::testing::Values(Dist::kUniform, Dist::kPlummer,
                                         Dist::kClustered, Dist::kDisk),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return distName(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

class DelayedCommTest : public ::testing::TestWithParam<int> {};

TEST_P(DelayedCommTest, CacheModelsAgreeUnderMessageDelay) {
  // Delayed delivery reorders pause/resume schedules aggressively; every
  // cache model must still produce the same physics.
  const int seed = GetParam();
  rts::Runtime::Config rc;
  rc.n_procs = 3;
  rc.workers_per_proc = 2;
  rc.comm.latency_us = 300.0;  // big enough to force real pausing
  rts::Runtime rt(rc);

  auto run = [&](CacheModel model) {
    Configuration conf;
    conf.min_partitions = 8;
    conf.min_subtrees = 6;
    conf.bucket_size = 8;
    conf.cache_model = model;
    Forest<CentroidData, OctTreeType> forest(rt, conf);
    forest.load(makeParticles(clustered(500, static_cast<std::uint64_t>(seed),
                                        4, 0.03)));
    forest.decompose();
    forest.build();
    GravityVisitor v;
    v.params.softening = 1e-3;
    forest.traverse<GravityVisitor>(v);
    return forest.collect();
  };
  const auto reference = run(CacheModel::kWaitFree);
  for (auto model : {CacheModel::kXWrite, CacheModel::kPerThread,
                     CacheModel::kSingleInserter}) {
    const auto result = run(model);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_LT(
          (reference[i].acceleration - result[i].acceleration).length(),
          1e-9 * (reference[i].acceleration.length() + 1e-12))
          << toString(model) << " particle " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelayedCommTest, ::testing::Values(11, 12),
                         [](const auto& info) {
                           // Appended, not "s" + ...: GCC 12 -O3 misreports
                           // that form under -Wrestrict.
                           std::string name = "s";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(KnnProperty, RandomQueriesAcrossDistributions) {
  rts::Runtime rt({2, 2});
  for (Dist dist : {Dist::kUniform, Dist::kClustered}) {
    Configuration conf;
    conf.min_partitions = 6;
    conf.min_subtrees = 4;
    conf.bucket_size = 12;
    Forest<SphData, OctTreeType> forest(rt, conf);
    auto particles = makeParticles(make(dist, 300, 101));
    const auto reference = particles;
    forest.load(std::move(particles));
    forest.decompose();
    forest.build();
    const int k = 6;
    NeighborStore store(reference.size(), k);
    forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
    forest.traverseUpAndDown(KNearestVisitor<SphData>{&store});

    Rng rng(55);
    for (int q = 0; q < 12; ++q) {
      const auto order =
          static_cast<std::int32_t>(rng.below(reference.size()));
      // Brute-force kth distance.
      std::vector<double> d2;
      d2.reserve(reference.size());
      for (const auto& p : reference) {
        d2.push_back(distanceSquared(
            p.position, reference[static_cast<std::size_t>(order)].position));
      }
      std::nth_element(d2.begin(), d2.begin() + k - 1, d2.end());
      auto heap = store.neighbors(order);
      ASSERT_EQ(heap.size(), static_cast<std::size_t>(k));
      double max_d2 = 0;
      for (const auto& nb : heap) max_d2 = std::max(max_d2, nb.d2);
      EXPECT_NEAR(max_d2, d2[static_cast<std::size_t>(k - 1)], 1e-12)
          << distName(dist) << " order " << order;
    }
  }
}

TEST(CollisionProperty, TraversalFindsExactlyBruteForcePairs) {
  // The set of (earliest-partner) collision records from the traversal
  // must match a brute-force sweep over all pairs.
  rts::Runtime rt({2, 2});
  Configuration conf;
  conf.min_partitions = 6;
  conf.min_subtrees = 4;
  conf.bucket_size = 8;
  Forest<CentroidData, OctTreeType> forest(rt, conf);

  // A swarm with significant velocities and fat radii: many candidates.
  InitialConditions ic;
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    ic.positions.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    ic.velocities.push_back(
        {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
    ic.masses.push_back(1e-6);
    ic.radii.push_back(0.004);
  }
  const double dt = 0.05;
  auto reference = makeParticles(ic);
  forest.load(makeParticles(ic));
  forest.decompose();
  forest.build();
  forest.traverse<CollisionVisitor>(CollisionVisitor{dt});
  const auto out = forest.collect();

  // Brute force: earliest partner per particle.
  std::vector<std::int32_t> partner(reference.size(), -1);
  std::vector<double> when(reference.size(), 0.0);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    for (std::size_t j = 0; j < reference.size(); ++j) {
      if (i == j) continue;
      double t;
      if (CollisionVisitor::sweptContact(reference[i], reference[j], dt, t)) {
        if (partner[i] < 0 || t < when[i]) {
          partner[i] = reference[j].order;
          when[i] = t;
        }
      }
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto idx = static_cast<std::size_t>(out[i].order);
    EXPECT_EQ(out[i].collision_partner, partner[idx]) << "order " << idx;
    if (partner[idx] >= 0) {
      EXPECT_NEAR(out[i].collision_time, when[idx], 1e-12);
    }
  }
}

TEST(GravityProperty, EnergyErrorShrinksWithTheta) {
  // Property over the θ knob: smaller θ → smaller force error, strictly
  // ordered over a decade of θ values.
  rts::Runtime rt({2, 1});
  Configuration conf;
  conf.min_partitions = 4;
  conf.min_subtrees = 4;
  conf.bucket_size = 12;
  auto particles = makeParticles(clustered(400, 31, 3, 0.05));
  auto reference = particles;
  GravityParams direct_params;
  direct_params.softening = 1e-3;
  directForces(std::span<Particle>(reference), direct_params);

  double prev_err = 1e300;
  for (double theta : {1.2, 0.7, 0.35, 0.15}) {
    Forest<CentroidData, OctTreeType> forest(rt, conf);
    forest.load(particles);
    forest.decompose();
    forest.build();
    GravityVisitor v;
    v.params.theta = theta;
    v.params.softening = 1e-3;
    forest.traverse<GravityVisitor>(v);
    const auto out = forest.collect();
    RunningStats rel;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double mag = reference[i].acceleration.length();
      if (mag < 1e-12) continue;
      rel.add((out[i].acceleration - reference[i].acceleration).length() / mag);
    }
    EXPECT_LT(rel.mean(), prev_err) << "theta " << theta;
    prev_err = rel.mean();
  }
  EXPECT_LT(prev_err, 1e-4);  // theta=0.15 with quadrupole is very accurate
}

TEST(FlushProperty, ManyIterationsPreserveParticleIdentity) {
  rts::Runtime rt({2, 2});
  Configuration conf;
  conf.min_partitions = 6;
  conf.min_subtrees = 4;
  conf.bucket_size = 10;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  auto ic = uniformCube(300, 41);
  forest.load(makeParticles(ic));
  forest.decompose();
  for (int iter = 0; iter < 5; ++iter) {
    forest.build();
    forest.traverse<GravityVisitor>(GravityVisitor{});
    // Drift slightly: exercises re-keying and re-decomposition.
    forest.forEachParticle([](Particle& p) {
      p.position += 1e-3 * p.acceleration;
    });
    forest.flush();
  }
  forest.build();
  const auto out = forest.collect();
  ASSERT_EQ(out.size(), 300u);
  std::map<std::int32_t, int> orders;
  for (const auto& p : out) orders[p.order]++;
  EXPECT_EQ(orders.size(), 300u);
  // Masses are immutable through any number of flushes.
  for (const auto& p : out) {
    EXPECT_DOUBLE_EQ(p.mass, ic.masses[static_cast<std::size_t>(p.order)]);
  }
}

}  // namespace
}  // namespace paratreet
