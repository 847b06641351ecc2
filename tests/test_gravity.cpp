#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "core/forest.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace paratreet {
namespace {

TEST(SymTensor3, OuterProductAndTrace) {
  SymTensor3 t;
  t.addOuter(Vec3(1, 2, 3), 2.0);
  EXPECT_DOUBLE_EQ(t.xx, 2.0);
  EXPECT_DOUBLE_EQ(t.xy, 4.0);
  EXPECT_DOUBLE_EQ(t.xz, 6.0);
  EXPECT_DOUBLE_EQ(t.yy, 8.0);
  EXPECT_DOUBLE_EQ(t.yz, 12.0);
  EXPECT_DOUBLE_EQ(t.zz, 18.0);
  EXPECT_DOUBLE_EQ(t.trace(), 28.0);
  const Vec3 v = t.mul(Vec3(1, 0, 0));
  EXPECT_EQ(v, Vec3(2, 4, 6));
}

TEST(CentroidData, LeafAndMergeAgree) {
  std::vector<Particle> ps(6);
  Rng rng(1);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ps[i].position = Vec3(rng.uniform(), rng.uniform(), rng.uniform());
    ps[i].mass = 1.0 + rng.uniform();
    ps[i].ball_radius = rng.uniform();
    ps[i].velocity = Vec3(rng.uniform(), 0, 0);
  }
  const CentroidData whole(ps.data(), 6);
  CentroidData merged = CentroidData(ps.data(), 2);
  merged += CentroidData(ps.data() + 2, 3);
  merged += CentroidData(ps.data() + 5, 1);
  EXPECT_NEAR(merged.sum_mass, whole.sum_mass, 1e-12);
  EXPECT_NEAR(merged.centroid().x, whole.centroid().x, 1e-12);
  EXPECT_NEAR(merged.quadrupole().xy, whole.quadrupole().xy, 1e-12);
  EXPECT_DOUBLE_EQ(merged.max_ball, whole.max_ball);
  EXPECT_DOUBLE_EQ(merged.max_speed, whole.max_speed);
}

TEST(CentroidData, QuadrupoleOfSymmetricPairVanishesAtCenter) {
  // Two equal masses symmetric about the origin: the centroid is the
  // origin and the quadrupole along the separation axis is positive,
  // transverse negative, trace zero.
  std::vector<Particle> ps(2);
  ps[0].position = Vec3(1, 0, 0);
  ps[1].position = Vec3(-1, 0, 0);
  ps[0].mass = ps[1].mass = 1.0;
  const CentroidData d(ps.data(), 2);
  EXPECT_EQ(d.centroid(), Vec3(0, 0, 0));
  const auto q = d.quadrupole();
  EXPECT_NEAR(q.xx, 4.0, 1e-12);   // 2 * (3*1 - 1)
  EXPECT_NEAR(q.yy, -2.0, 1e-12);  // 2 * (0 - 1)
  EXPECT_NEAR(q.zz, -2.0, 1e-12);
  EXPECT_NEAR(q.trace(), 0.0, 1e-12);
}

TEST(GravKernels, ExactMatchesNewton) {
  Particle src;
  src.position = Vec3(0, 0, 0);
  src.mass = 2.0;
  GravityParams params;
  params.softening = 0.0;
  Vec3 a{};
  double phi = 0;
  gravExact(src, Vec3(2, 0, 0), params, a, phi);
  EXPECT_NEAR(a.x, -2.0 / 4.0, 1e-12);
  EXPECT_NEAR(a.y, 0.0, 1e-15);
  EXPECT_NEAR(phi, -1.0, 1e-12);
}

TEST(GravKernels, ExactSkipsSelf) {
  Particle src;
  src.position = Vec3(1, 1, 1);
  src.mass = 5.0;
  GravityParams params;
  Vec3 a{};
  double phi = 0;
  gravExact(src, Vec3(1, 1, 1), params, a, phi);
  EXPECT_EQ(a, Vec3{});
  EXPECT_DOUBLE_EQ(phi, 0.0);
}

TEST(GravKernels, MonopoleMatchesPointMassFarAway) {
  // A compact clump far from the target: multipole ~ point mass.
  std::vector<Particle> ps(20);
  Rng rng(2);
  for (auto& p : ps) {
    p.position = Vec3(0.01 * rng.uniform(), 0.01 * rng.uniform(),
                      0.01 * rng.uniform());
    p.mass = 0.05;
  }
  const CentroidData data(ps.data(), 20);
  GravityParams params;
  params.softening = 0.0;
  const Vec3 target(10, 0, 0);
  Vec3 a_approx{};
  double phi_approx = 0;
  gravApprox(data, target, params, a_approx, phi_approx);
  Vec3 a_exact{};
  double phi_exact = 0;
  for (const auto& p : ps) gravExact(p, target, params, a_exact, phi_exact);
  EXPECT_NEAR((a_approx - a_exact).length(), 0.0, 1e-9 * a_exact.length());
  EXPECT_NEAR(phi_approx, phi_exact, 1e-9 * std::abs(phi_exact));
}

TEST(GravKernels, QuadrupoleImprovesOnMonopole) {
  // An elongated mass distribution at moderate distance: the quadrupole
  // correction must reduce the error vs direct summation.
  std::vector<Particle> ps(40);
  Rng rng(3);
  for (auto& p : ps) {
    p.position = Vec3(rng.uniform(-0.5, 0.5), 0.1 * rng.uniform(), 0.1 * rng.uniform());
    p.mass = 1.0 / 40;
  }
  const CentroidData data(ps.data(), 40);
  const Vec3 target(2.0, 0.3, 0.1);
  GravityParams mono;
  mono.softening = 0.0;
  mono.use_quadrupole = false;
  GravityParams quad = mono;
  quad.use_quadrupole = true;

  Vec3 a_exact{};
  double phi_exact = 0;
  for (const auto& p : ps) gravExact(p, target, mono, a_exact, phi_exact);

  Vec3 a_mono{}, a_quad{};
  double phi_mono = 0, phi_quad = 0;
  gravApprox(data, target, mono, a_mono, phi_mono);
  gravApprox(data, target, quad, a_quad, phi_quad);

  EXPECT_LT((a_quad - a_exact).length(), 0.5 * (a_mono - a_exact).length());
  EXPECT_LT(std::abs(phi_quad - phi_exact), std::abs(phi_mono - phi_exact));
}

TEST(GravityVisitor, OpenCriterionGeometry) {
  // A node whose opening sphere clearly contains the target must open.
  std::vector<Particle> ps(2);
  ps[0].position = Vec3(0.1, 0.1, 0.1);
  ps[1].position = Vec3(0.2, 0.2, 0.2);
  ps[0].mass = ps[1].mass = 1.0;
  CentroidData data(ps.data(), 2);
  OrientedBox src_box{Vec3(0), Vec3(0.25)};
  OrientedBox near_box{Vec3(0.3), Vec3(0.4)};
  OrientedBox far_box{Vec3(50), Vec3(51)};
  GravityVisitor v;
  SpatialNode<CentroidData> src(data, src_box, keys::kRoot, 2, ps.data());
  Particle dummy;
  CentroidData tdata;
  SpatialNode<CentroidData> near_tgt(tdata, near_box, keys::kRoot, 0, &dummy);
  SpatialNode<CentroidData> far_tgt(tdata, far_box, keys::kRoot, 0, &dummy);
  EXPECT_TRUE(v.open(src, near_tgt));
  EXPECT_FALSE(v.open(src, far_tgt));
}

TEST(GravityVisitor, EmptyNodeNeverOpens) {
  CentroidData empty;
  OrientedBox box{Vec3(0), Vec3(1)};
  GravityVisitor v;
  Particle dummy;
  SpatialNode<CentroidData> src(empty, box, keys::kRoot, 0, &dummy);
  CentroidData tdata;
  SpatialNode<CentroidData> tgt(tdata, box, keys::kRoot, 0, &dummy);
  EXPECT_FALSE(v.open(src, tgt));
}

/// The scalar multipole formula as first written, centroid and
/// quadrupole derived for every target: gravApprox must keep its bits.
void perTargetGravApprox(const CentroidData& data, const Vec3& pos,
                         const GravityParams& params, Vec3& accel,
                         double& potential) {
  const Vec3 dr = pos - data.centroid();
  const double r2 = dr.lengthSquared() + params.softening * params.softening;
  const double r = std::sqrt(r2);
  const double inv_r3 = 1.0 / (r2 * r);
  accel += (-params.G * data.sum_mass * inv_r3) * dr;
  potential += -params.G * data.sum_mass / r;
  if (params.use_quadrupole) {
    const SymTensor3 q = data.quadrupole();
    const Vec3 qd = q.mul(dr);
    const double qrr = dr.dot(qd);
    const double inv_r5 = inv_r3 / r2;
    const double inv_r7 = inv_r5 / r2;
    accel += params.G * (qd * inv_r5 - (2.5 * qrr * inv_r7) * dr);
    potential += -params.G * 0.5 * qrr * inv_r5;
  }
}

TEST(GravityVisitor, HoistedNodeKernelMatchesPerTargetBitwise) {
  // node() and leaf() run the same terms as the batched lane evaluator:
  // on one node, and on one source span shorter than the 8 lanes (all of
  // it in the scalar tail), the kVisitor and kBatched paths agree bitwise.
  Rng rng(41);
  auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  auto expectSameBits = [&](const std::vector<Particle>& a,
                            const std::vector<Particle>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(bits(a[i].acceleration.x), bits(b[i].acceleration.x));
      ASSERT_EQ(bits(a[i].acceleration.y), bits(b[i].acceleration.y));
      ASSERT_EQ(bits(a[i].acceleration.z), bits(b[i].acceleration.z));
      ASSERT_EQ(bits(a[i].potential), bits(b[i].potential));
    }
  };
  for (const bool quad : {true, false}) {
    GravityVisitor v;
    v.params.use_quadrupole = quad;
    v.params.softening = 1e-3;
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<Particle> src(1 + trial % 7);
      std::vector<double> sx, sy, sz, sm, so;
      for (std::size_t j = 0; j < src.size(); ++j) {
        Particle& p = src[j];
        p.position = Vec3(rng.uniform(), rng.uniform(), rng.uniform());
        p.mass = 0.1 + rng.uniform();
        p.order = static_cast<std::int32_t>(j);
        sx.push_back(p.position.x);
        sy.push_back(p.position.y);
        sz.push_back(p.position.z);
        sm.push_back(p.mass);
        so.push_back(static_cast<double>(p.order));
      }
      const SoaSources soa{sx.data(), sy.data(), sz.data(),
                           sm.data(), so.data(), static_cast<int>(src.size())};
      const CentroidData data(src.data(), static_cast<int>(src.size()));
      std::vector<Particle> tgt(1 + trial % 17);
      for (std::size_t i = 0; i < tgt.size(); ++i) {
        Particle& p = tgt[i];
        p.position = Vec3(3 * rng.uniform() - 1, 3 * rng.uniform() - 1,
                          3 * rng.uniform() - 1);
        p.acceleration = Vec3(rng.uniform(), 0, 0);
        p.potential = rng.uniform();
        p.order = static_cast<std::int32_t>(100 + i);
      }
      const OrientedBox box{Vec3(0), Vec3(1)};
      SpatialNode<CentroidData> source(data, box, keys::kRoot,
                                       static_cast<int>(src.size()),
                                       src.data());
      std::vector<Particle> inline_out = tgt;
      std::vector<Particle> batched_out = tgt;
      CentroidData tdata;
      SpatialNode<CentroidData> inline_target(
          tdata, box, keys::kRoot, static_cast<int>(tgt.size()),
          inline_out.data());
      SpatialNode<CentroidData> batched_target(
          tdata, box, keys::kRoot, static_cast<int>(tgt.size()),
          batched_out.data());
      v.node(source, inline_target);
      evalNodes(v, &data, 1, batched_target);
      expectSameBits(inline_out, batched_out);
      v.leaf(source, inline_target);
      evalPairs(v, soa, batched_target);
      expectSameBits(inline_out, batched_out);
      // The scalar reference keeps its formula.
      Vec3 a{}, ref_a{};
      double phi = 0.0, ref_phi = 0.0;
      gravApprox(data, tgt[0].position, v.params, a, phi);
      perTargetGravApprox(data, tgt[0].position, v.params, ref_a, ref_phi);
      ASSERT_EQ(bits(a.x), bits(ref_a.x));
      ASSERT_EQ(bits(a.y), bits(ref_a.y));
      ASSERT_EQ(bits(a.z), bits(ref_a.z));
      ASSERT_EQ(bits(phi), bits(ref_phi));
    }
  }
}

class BarnesHutAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(BarnesHutAccuracyTest, ForceErrorBoundedByTheta) {
  const double theta = GetParam();
  rts::Runtime rt({2, 2});
  Configuration conf;
  conf.min_partitions = 6;
  conf.min_subtrees = 4;
  conf.bucket_size = 8;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  auto particles = makeParticles(plummer(400, 5, 0.2));
  auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  GravityVisitor visitor;
  visitor.params.theta = theta;
  visitor.params.softening = 1e-3;
  forest.traverse<GravityVisitor>(visitor);
  const auto out = forest.collect();

  GravityParams direct_params;
  direct_params.softening = 1e-3;
  directForces(std::span<Particle>(reference), direct_params);

  RunningStats rel_err;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double mag = reference[i].acceleration.length();
    if (mag < 1e-10) continue;
    rel_err.add((out[i].acceleration - reference[i].acceleration).length() / mag);
  }
  // Empirical Barnes-Hut error envelopes (with quadrupole).
  const double mean_bound = theta * theta * 0.05 + 1e-4;
  EXPECT_LT(rel_err.mean(), mean_bound) << "theta " << theta;
}

INSTANTIATE_TEST_SUITE_P(Thetas, BarnesHutAccuracyTest,
                         ::testing::Values(0.3, 0.5, 0.7, 1.0),
                         [](const auto& info) {
                           return "theta" +
                                  std::to_string(static_cast<int>(info.param * 10));
                         });

TEST(BarnesHut, ThetaZeroIsDirectSum) {
  rts::Runtime rt({1, 1});
  Configuration conf;
  conf.min_partitions = 3;
  conf.min_subtrees = 2;
  conf.bucket_size = 16;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  auto particles = makeParticles(uniformCube(150, 11));
  auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  GravityVisitor visitor;
  visitor.params.theta = 1e-9;  // opens everything: pure direct sum
  visitor.params.softening = 1e-3;
  forest.traverse<GravityVisitor>(visitor);
  const auto out = forest.collect();

  GravityParams params;
  params.softening = 1e-3;
  directForces(std::span<Particle>(reference), params);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_LT((out[i].acceleration - reference[i].acceleration).length(),
              1e-10 * (reference[i].acceleration.length() + 1e-12));
  }
}

TEST(BarnesHut, MomentumApproximatelyConserved) {
  // Direct sum conserves momentum exactly; Barnes-Hut approximately.
  rts::Runtime rt({2, 1});
  Configuration conf;
  conf.min_partitions = 4;
  conf.min_subtrees = 4;
  conf.bucket_size = 8;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(300, 13)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  Vec3 total{};
  double total_mag = 0;
  for (const auto& p : forest.collect()) {
    total += p.mass * p.acceleration;
    total_mag += p.mass * p.acceleration.length();
  }
  EXPECT_LT(total.length(), 0.01 * total_mag);
}

TEST(BarnesHut, KdTreeGivesSameForcesAsOctree) {
  // Tree type changes the approximation pattern, not the physics: both
  // must agree with each other to BH accuracy.
  rts::Runtime rt({2, 1});
  Configuration conf;
  conf.min_partitions = 4;
  conf.min_subtrees = 4;
  conf.bucket_size = 8;
  auto run = [&](auto tree_tag, TreeType tt) {
    Configuration c = conf;
    c.tree_type = tt;
    Forest<CentroidData, decltype(tree_tag)> forest(rt, c);
    forest.load(makeParticles(uniformCube(300, 17)));
    forest.decompose();
    forest.build();
    GravityVisitor v;
    v.params.softening = 1e-3;
    forest.template traverse<GravityVisitor>(v);
    return forest.collect();
  };
  const auto oct = run(OctTreeType{}, TreeType::eOct);
  const auto kd = run(KdTreeType{}, TreeType::eKd);
  RunningStats rel;
  for (std::size_t i = 0; i < oct.size(); ++i) {
    const double mag = oct[i].acceleration.length();
    if (mag < 1e-10) continue;
    rel.add((oct[i].acceleration - kd[i].acceleration).length() / mag);
  }
  EXPECT_LT(rel.mean(), 0.02);
}

TEST(DirectForces, PairSymmetry) {
  std::vector<Particle> ps(2);
  ps[0].position = Vec3(0, 0, 0);
  ps[1].position = Vec3(1, 0, 0);
  ps[0].mass = 3.0;
  ps[1].mass = 5.0;
  ps[0].order = 0;
  ps[1].order = 1;
  GravityParams params;
  params.softening = 0.0;
  directForces(std::span<Particle>(ps), params);
  // Newton's third law: m0 a0 = -m1 a1.
  EXPECT_NEAR(ps[0].mass * ps[0].acceleration.x,
              -ps[1].mass * ps[1].acceleration.x, 1e-12);
}

}  // namespace
}  // namespace paratreet
