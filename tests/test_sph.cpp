#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "apps/sph/sph.hpp"
#include "baselines/gadget/gadget_sph.hpp"
#include "core/forest.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace paratreet {
namespace {

TEST(Kernel, NormalizedTo1) {
  // Integral of W over its support equals 1 (radial quadrature).
  const double h = 0.7;
  double integral = 0.0;
  const int steps = 4000;
  const double dr = 2.0 * h / steps;
  for (int i = 0; i < steps; ++i) {
    const double r = (i + 0.5) * dr;
    integral += 4.0 * 3.14159265358979 * r * r * sph::kernelW(r, h) * dr;
  }
  EXPECT_NEAR(integral, 1.0, 1e-4);
}

TEST(Kernel, CompactSupport) {
  EXPECT_DOUBLE_EQ(sph::kernelW(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(sph::kernelW(3.0, 1.0), 0.0);
  EXPECT_GT(sph::kernelW(0.0, 1.0), 0.0);
  EXPECT_GT(sph::kernelW(1.5, 1.0), 0.0);
}

TEST(Kernel, MonotonicallyDecreasing) {
  const double h = 1.0;
  double prev = sph::kernelW(0.0, h);
  for (double r = 0.05; r < 2.0; r += 0.05) {
    const double w = sph::kernelW(r, h);
    EXPECT_LE(w, prev + 1e-12);
    prev = w;
  }
}

TEST(Kernel, DerivativeMatchesFiniteDifference) {
  const double h = 0.9;
  for (double r : {0.1, 0.5, 0.9, 1.3, 1.9}) {
    const double eps = 1e-6;
    const double fd =
        (sph::kernelW(r + eps, h) - sph::kernelW(r - eps, h)) / (2 * eps);
    EXPECT_NEAR(sph::kernelDw(r, h), fd, 1e-5 * (std::abs(fd) + 1));
  }
}

TEST(Kernel, DerivativeNonPositive) {
  for (double r = 0.0; r < 2.0; r += 0.1) {
    EXPECT_LE(sph::kernelDw(r, 1.0), 1e-12);
  }
}

TEST(SphData, TracksMaxBall) {
  std::vector<Particle> ps(3);
  ps[0].ball_radius = 0.1;
  ps[1].ball_radius = 0.7;
  ps[2].ball_radius = 0.3;
  SphData a(ps.data(), 2);
  EXPECT_DOUBLE_EQ(a.max_ball, 0.7);
  SphData b(ps.data() + 2, 1);
  a += b;
  EXPECT_DOUBLE_EQ(a.max_ball, 0.7);
}

Configuration sphConfig() {
  Configuration conf;
  conf.min_partitions = 5;
  conf.min_subtrees = 4;
  conf.bucket_size = 12;
  return conf;
}

double bruteForceDensity(const std::vector<Particle>& ps, std::size_t i, int k) {
  // Exact kNN density with the same h convention as the solver.
  std::vector<double> d2(ps.size());
  for (std::size_t j = 0; j < ps.size(); ++j) {
    d2[j] = distanceSquared(ps[i].position, ps[j].position);
  }
  std::vector<double> sorted = d2;
  std::nth_element(sorted.begin(), sorted.begin() + k - 1, sorted.end());
  const double ball2 = sorted[static_cast<std::size_t>(k - 1)];
  const double h = 0.5 * std::sqrt(ball2);
  double rho = 0.0;
  for (std::size_t j = 0; j < ps.size(); ++j) {
    if (d2[j] <= ball2) rho += ps[j].mass * sph::kernelW(std::sqrt(d2[j]), h);
  }
  return rho;
}

TEST(SphSolver, DensityMatchesBruteForce) {
  rts::Runtime rt({2, 2});
  Forest<SphData, OctTreeType> forest(rt, sphConfig());
  auto particles = makeParticles(uniformCube(300, 19));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  SphSolver<SphData, OctTreeType> solver(forest, SphParams{12});
  const auto fields = solver.densityPass();
  for (std::size_t i : {0u, 50u, 123u, 299u}) {
    EXPECT_NEAR(fields.density[i], bruteForceDensity(reference, i, 12),
                1e-9 * fields.density[i])
        << "particle " << i;
  }
}

TEST(SphSolver, NeighborCountsEqualK) {
  rts::Runtime rt({2, 1});
  Forest<SphData, OctTreeType> forest(rt, sphConfig());
  forest.load(makeParticles(uniformCube(250, 23)));
  forest.decompose();
  forest.build();
  SphSolver<SphData, OctTreeType> solver(forest, SphParams{16});
  solver.densityPass();
  for (const auto& p : forest.collect()) {
    EXPECT_EQ(p.neighbor_count, 16);
  }
}

TEST(SphSolver, PressureFollowsEquationOfState) {
  rts::Runtime rt({1, 2});
  Forest<SphData, OctTreeType> forest(rt, sphConfig());
  forest.load(makeParticles(uniformCube(200, 29)));
  forest.decompose();
  forest.build();
  SphParams params;
  params.k_neighbors = 12;
  params.gamma = 1.4;
  params.internal_energy = 2.5;
  SphSolver<SphData, OctTreeType> solver(forest, params);
  const auto fields = solver.densityPass();
  for (std::size_t i = 0; i < fields.density.size(); ++i) {
    EXPECT_NEAR(fields.pressure[i], 0.4 * fields.density[i] * 2.5,
                1e-12 * fields.pressure[i] + 1e-15);
  }
}

TEST(SphSolver, PressureForcePushesApartCompression) {
  // A dense clump inside a sparse background: clump particles must feel
  // net outward acceleration.
  rts::Runtime rt({2, 2});
  Forest<SphData, OctTreeType> forest(rt, sphConfig());
  InitialConditions ic;
  Rng rng(31);
  // Background shell.
  for (int i = 0; i < 400; ++i) {
    ic.positions.push_back(
        {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  // Dense clump at origin.
  for (int i = 0; i < 100; ++i) {
    ic.positions.push_back({0.03 * rng.normal(), 0.03 * rng.normal(),
                            0.03 * rng.normal()});
  }
  ic.velocities.assign(ic.positions.size(), Vec3{});
  ic.masses.assign(ic.positions.size(), 1.0 / 500);
  forest.load(makeParticles(ic));
  forest.decompose();
  forest.build();
  SphSolver<SphData, OctTreeType> solver(forest, SphParams{16});
  solver.step();
  // Clump = orders 400..499: radial acceleration should be outward.
  double outward = 0;
  int counted = 0;
  for (const auto& p : forest.collect()) {
    if (p.order < 400) continue;
    const double r = p.position.length();
    if (r < 1e-3) continue;
    outward += p.acceleration.dot(p.position / r);
    ++counted;
  }
  ASSERT_GT(counted, 50);
  EXPECT_GT(outward / counted, 0.0);
}

TEST(GadgetBaseline, DensityAgreesWithParaTreeT) {
  rts::Runtime rt({2, 2});
  Forest<SphData, OctTreeType> forest(rt, sphConfig());
  forest.load(makeParticles(uniformCube(400, 37)));
  forest.decompose();
  forest.build();

  SphSolver<SphData, OctTreeType> pt(forest, SphParams{32});
  const auto pt_fields = pt.densityPass();

  baselines::GadgetSphSolver<SphData, OctTreeType> gadget(forest, SphParams{32});
  const auto gd_fields = gadget.densityPass();

  RunningStats rel;
  for (std::size_t i = 0; i < pt_fields.density.size(); ++i) {
    rel.add(std::abs(pt_fields.density[i] - gd_fields.density[i]) /
            pt_fields.density[i]);
  }
  // Different h conventions (exact-k vs tolerance window): close but not
  // identical.
  EXPECT_LT(rel.mean(), 0.15);
}

TEST(GadgetBaseline, ConvergesWithinRounds) {
  rts::Runtime rt({2, 1});
  Forest<SphData, OctTreeType> forest(rt, sphConfig());
  forest.load(makeParticles(uniformCube(300, 41)));
  forest.decompose();
  forest.build();
  baselines::GadgetSphSolver<SphData, OctTreeType> gadget(forest, SphParams{24});
  gadget.densityPass();
  EXPECT_GT(gadget.stats().density_rounds, 1);
  EXPECT_LE(gadget.stats().density_rounds, 30);
  EXPECT_LT(gadget.stats().final_unconverged, 15u);
}

TEST(GadgetBaseline, MoreTraversalRoundsThanKnn) {
  // The Fig 11 mechanism: the fixed-ball method needs several sweeps
  // where kNN needs one.
  rts::Runtime rt({2, 1});
  Forest<SphData, OctTreeType> forest(rt, sphConfig());
  forest.load(makeParticles(clustered(500, 43, 4, 0.05)));
  forest.decompose();
  forest.build();
  baselines::GadgetSphSolver<SphData, OctTreeType> gadget(forest, SphParams{24});
  gadget.densityPass();
  EXPECT_GE(gadget.stats().density_rounds, 3);
}

TEST(FixedBallVisitor, InactiveParticlesAreSkipped) {
  rts::Runtime rt({1, 1});
  Forest<SphData, OctTreeType> forest(rt, sphConfig());
  forest.load(makeParticles(uniformCube(150, 47)));
  forest.decompose();
  forest.build();
  forest.forEachParticle([](Particle& p) {
    p.ball2 = p.order % 2 == 0 ? 0.01 : 0.0;  // odd orders inactive
    p.density = 0.0;
    p.neighbor_count = 0;
  });
  forest.traverse<FixedBallDensityVisitor<SphData>>({});
  for (const auto& p : forest.collect()) {
    if (p.order % 2 == 0) {
      EXPECT_GT(p.neighbor_count, 0);  // finds at least itself
    } else {
      EXPECT_EQ(p.neighbor_count, 0);
      EXPECT_DOUBLE_EQ(p.density, 0.0);
    }
  }
}


// --- Warm-started kNN search balls ------------------------------------------

TEST(NeighborStore, FiniteBallRejectsOutsideCandidates) {
  NeighborStore store(1, 3);
  Particle target;
  target.order = 0;
  target.position = Vec3(0, 0, 0);
  target.ball2 = 4.0;  // starting radius 2
  auto src = [](double x, int order) {
    Particle p;
    p.position = Vec3(x, 0, 0);
    p.order = order;
    p.mass = 1.0;
    return p;
  };
  store.consider(target, src(3.0, 1));  // outside: rejected
  EXPECT_TRUE(store.neighbors(0).empty());
  store.consider(target, src(2.0, 2));  // on the boundary: not strictly inside
  EXPECT_TRUE(store.neighbors(0).empty());
  store.consider(target, src(1.0, 3));
  EXPECT_EQ(store.neighbors(0).size(), 1u);
  EXPECT_DOUBLE_EQ(target.ball2, 4.0);  // not full: the starting ball holds
  store.consider(target, src(1.5, 4));
  store.consider(target, src(0.5, 5));
  EXPECT_DOUBLE_EQ(target.ball2, 2.25);  // full: farthest is x=1.5
  store.consider(target, src(1.9, 6));   // inside the start, outside now
  EXPECT_DOUBLE_EQ(target.ball2, 2.25);
  std::set<int> orders;
  for (const auto& nb : store.neighbors(0)) orders.insert(nb.order);
  EXPECT_EQ(orders, (std::set<int>{3, 4, 5}));
}

TEST(NeighborStore, FullHeapNeverWidensTheBall) {
  Rng rng(71);
  for (const double start : {kInfiniteBall, 0.3}) {
    NeighborStore store(1, 4);
    Particle target;
    target.order = 0;
    target.ball2 = start;
    double last = target.ball2;
    for (int i = 0; i < 200; ++i) {
      Particle s;
      s.position = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1));
      s.order = i + 1;
      store.consider(target, s);
      EXPECT_LE(target.ball2, last);
      last = target.ball2;
      for (const auto& nb : store.neighbors(0)) EXPECT_LT(nb.d2, start);
    }
    ASSERT_EQ(store.neighbors(0).size(), 4u);
    EXPECT_DOUBLE_EQ(target.ball2, store.neighbors(0).front().d2);
  }
}

Configuration warmConfig() {
  Configuration conf = sphConfig();
  conf.fetch_depth = 1;
  return conf;
}

/// Every particle's recorded neighbour set equals its brute-force k
/// nearest (min(k, n) of them) at the positions the search saw.
void expectExactNeighbourSets(const std::vector<Particle>& ps,
                              const NeighborStore& store, int k) {
  const std::size_t want = std::min(ps.size(), static_cast<std::size_t>(k));
  std::vector<std::pair<double, int>> d2(ps.size());
  for (const auto& p : ps) {
    for (std::size_t j = 0; j < ps.size(); ++j) {
      d2[j] = {distanceSquared(p.position, ps[j].position), ps[j].order};
    }
    std::partial_sort(d2.begin(), d2.begin() + static_cast<long>(want),
                      d2.end());
    std::set<int> expected;
    for (std::size_t n = 0; n < want; ++n) expected.insert(d2[n].second);
    std::set<int> got;
    for (const auto& nb : store.neighbors(p.order)) got.insert(nb.order);
    EXPECT_EQ(got, expected) << "order " << p.order;
  }
}

/// Densities of `fields` against a cold solve of the current tree.
void expectColdDensities(Forest<SphData, OctTreeType>& forest,
                         const SphParams& params, const SphFields& fields) {
  SphSolver<SphData, OctTreeType> cold(forest, params);
  const auto reference = cold.densityPass();
  EXPECT_FALSE(cold.lastPass().warm);
  for (std::size_t i = 0; i < fields.density.size(); ++i) {
    EXPECT_NEAR(fields.density[i], reference.density[i],
                1e-12 * reference.density[i])
        << "order " << i;
  }
}

TEST(SphWarmStart, NeighbourSetsStayExactOverSteps) {
  // Drift between steps, and one step where a few particles jump far:
  // the warm ball is a valid bound each time, so no retry runs.
  rts::Runtime rt({2, 2});
  Forest<SphData, OctTreeType> forest(rt, warmConfig());
  forest.load(makeParticles(clustered(600, 73, 4, 0.1)));
  forest.decompose();
  const SphParams params{16};
  SphSolver<SphData, OctTreeType> solver(forest, params);
  for (int step = 0; step < 5; ++step) {
    forest.build();
    const auto fields = solver.step();
    EXPECT_EQ(solver.lastPass().warm, step > 0) << "step " << step;
    EXPECT_EQ(solver.lastPass().traversals, 1) << "step " << step;
    EXPECT_EQ(solver.lastPass().retried, 0u) << "step " << step;
    expectExactNeighbourSets(forest.collect(), solver.store(), 16);
    expectColdDensities(forest, params, fields);
    const bool jump = step == 2;
    forest.forEachParticle([jump](Particle& p) {
      const double o = p.order;
      p.position += 0.004 * Vec3(std::sin(o), std::cos(1.3 * o),
                                 std::sin(0.7 * o));
      if (jump && p.order % 150 == 7) p.position = -2.0 * p.position;
    });
    forest.flush();
  }
}

/// Makes the prior balls stale, as a half-written prior state would.
class StaleSolver : public SphSolver<SphData, OctTreeType> {
 public:
  using SphSolver::SphSolver;
  void shrinkPriorBall(int order, double factor) {
    prior_ball2_[static_cast<std::size_t>(order)] *= factor;
  }
};

TEST(SphWarmStart, TooSmallGuessIsSearchedAgainCold) {
  rts::Runtime rt({2, 2});
  Forest<SphData, OctTreeType> forest(rt, warmConfig());
  forest.load(makeParticles(uniformCube(400, 79)));
  forest.decompose();
  forest.build();
  const SphParams params{12};
  StaleSolver solver(forest, params);
  solver.step();
  forest.flush();
  forest.build();
  // A radius a tenth of the 12th-neighbour distance holds fewer than 12.
  for (const int order : {5, 150, 333}) solver.shrinkPriorBall(order, 0.01);
  const auto fields = solver.step();
  EXPECT_TRUE(solver.lastPass().warm);
  EXPECT_EQ(solver.lastPass().retried, 3u);
  EXPECT_EQ(solver.lastPass().traversals, 2);
  expectExactNeighbourSets(forest.collect(), solver.store(), 12);
  expectColdDensities(forest, params, fields);
  for (const auto& p : forest.collect()) EXPECT_EQ(p.neighbor_count, 12);
  // The retry recorded a valid prior: the next step needs none.
  forest.flush();
  forest.build();
  solver.step();
  EXPECT_TRUE(solver.lastPass().warm);
  EXPECT_EQ(solver.lastPass().retried, 0u);
  expectExactNeighbourSets(forest.collect(), solver.store(), 12);
}

TEST(SphWarmStart, UniverseSmallerThanKStaysCold) {
  rts::Runtime rt({2, 2});
  Configuration conf = warmConfig();
  conf.min_partitions = 2;
  conf.min_subtrees = 2;
  conf.bucket_size = 4;
  Forest<SphData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(10, 83)));
  forest.decompose();
  const SphParams params{16};
  SphSolver<SphData, OctTreeType> solver(forest, params);
  for (int step = 0; step < 3; ++step) {
    forest.build();
    solver.step();
    EXPECT_FALSE(solver.lastPass().warm);
    EXPECT_EQ(solver.lastPass().traversals, 1);
    EXPECT_EQ(solver.lastPass().retried, 0u);
    const auto ps = forest.collect();
    for (const auto& p : ps) EXPECT_EQ(p.neighbor_count, 10);
    expectExactNeighbourSets(ps, solver.store(), 16);
    forest.flush();
  }
}

}  // namespace
}  // namespace paratreet
