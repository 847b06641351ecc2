#pragma once

#include <cmath>
#include <span>

#include "apps/gravity/centroid_data.hpp"
#include "core/batch_eval.hpp"
#include "tree/node.hpp"

namespace paratreet {

/// Numerical parameters of the gravity solver.
struct GravityParams {
  double theta = 0.7;       ///< Barnes-Hut opening angle
  double softening = 1e-4;  ///< Plummer softening length
  double G = 1.0;           ///< Newton's constant in simulation units
  /// Include the quadrupole term of the multipole expansion.
  bool use_quadrupole = true;
};

/// Acceleration and potential on a point at `pos` from the multipole
/// expansion of `data` (the paper's gravApprox helper): the scalar
/// reference for GravityVisitor's node term.
inline void gravApprox(const CentroidData& data, const Vec3& pos,
                       const GravityParams& params, Vec3& accel,
                       double& potential) {
  const Vec3 dr = pos - data.centroid();
  const double r2 = dr.lengthSquared() + params.softening * params.softening;
  const double r = std::sqrt(r2);
  const double inv_r3 = 1.0 / (r2 * r);
  accel += (-params.G * data.sum_mass * inv_r3) * dr;
  potential += -params.G * data.sum_mass / r;
  if (params.use_quadrupole) {
    // Traceless quadrupole: phi_Q = -G q_rr / (2 r^5),
    // a_Q = G [ Q dr / r^5 - (5/2) q_rr dr / r^7 ].
    const Vec3 qd = data.quadrupole().mul(dr);
    const double qrr = dr.dot(qd);
    const double inv_r5 = inv_r3 / r2;
    const double inv_r7 = inv_r5 / r2;
    accel += params.G * (qd * inv_r5 - (2.5 * qrr * inv_r7) * dr);
    potential += -params.G * 0.5 * qrr * inv_r5;
  }
}

/// Pairwise Newtonian force on `pos` from one source particle (the
/// paper's gravExact helper): the scalar reference the tests and
/// baselines compare against. It has no target identity, so it skips
/// every pair at r = 0 — self, but also a distinct body at the same
/// point, which GravityVisitor's pair term (masking by identity) counts.
inline void gravExact(const Particle& source, const Vec3& pos,
                      const GravityParams& params, Vec3& accel,
                      double& potential) {
  const Vec3 dr = pos - source.position;
  const double dr2 = dr.lengthSquared();
  if (dr2 == 0.0) return;
  const double r2 = dr2 + params.softening * params.softening;
  const double r = std::sqrt(r2);
  accel += (-params.G * source.mass / (r2 * r)) * dr;
  potential += -params.G * source.mass / r;
}

/// A block of node multipoles derived into SoA form for the node term:
/// centroid, G·m and the traceless quadrupole scaled by G.
struct MultipoleBlock {
  double cx[kNodeBlock], cy[kNodeBlock], cz[kNodeBlock], gm[kNodeBlock];
  double qxx[kNodeBlock], qxy[kNodeBlock], qxz[kNodeBlock], qyy[kNodeBlock],
      qyz[kNodeBlock], qzz[kNodeBlock];

  /// Derive node `k` of the block from `d` (the arithmetic of
  /// CentroidData::centroid() and quadrupole(), one reciprocal of the mass).
  void set(int k, const CentroidData& d, double G) {
    const double m = d.sum_mass;
    const Vec3 c = m > 0.0 ? d.moment * (1.0 / m) : Vec3{};
    SymTensor3 sc = d.second;
    sc.addOuter(c, -m);
    const double tr = sc.trace();
    cx[k] = c.x;
    cy[k] = c.y;
    cz[k] = c.z;
    gm[k] = G * m;
    qxx[k] = G * (3.0 * sc.xx - tr);
    qxy[k] = G * (3.0 * sc.xy);
    qxz[k] = G * (3.0 * sc.xz);
    qyy[k] = G * (3.0 * sc.yy - tr);
    qyz[k] = G * (3.0 * sc.yz);
    qzz[k] = G * (3.0 * sc.zz - tr);
  }
};

/// The Barnes-Hut gravity Visitor (paper Fig 7). A node is opened when
/// the target bucket's box intersects the node's opening sphere — the
/// sphere about the node centroid whose radius is b_max / theta, with
/// b_max the farthest corner distance of the node box from the centroid.
struct GravityVisitor {
  GravityParams params{};

  /// Flop estimates per interaction for the observability report.
  static constexpr double kFlopsPerPairInteraction = 22.0;
  static constexpr double kFlopsPerNodeInteraction = 55.0;

  bool open(const SpatialNode<CentroidData>& source,
            SpatialNode<CentroidData>& target) const {
    if (source.data.sum_mass <= 0.0) return false;
    const Vec3 c = source.data.centroid();
    const double b2 = source.box.farthestDistanceSquared(c);
    const double d2 = target.box.distanceSquared(c);
    // Equivalent to Space::intersect(target.box, Sphere{c, bmax/theta}).
    return d2 * params.theta * params.theta < b2;
  }

  /// Both kernels run the terms below: EvalKernel::kBatched streams the
  /// gathered lists through them in lanes, and the inline path's
  /// node()/leaf() run them in order.
  void node(const SpatialNode<CentroidData>& source,
            SpatialNode<CentroidData>& target) const {
    nodeTerms(*this, source.data, target);
  }

  void leaf(const SpatialNode<CentroidData>& source,
            SpatialNode<CentroidData>& target) const {
    pairTerms(*this, source, target);
  }

  /// Contributions are {ax, ay, az, potential}.
  static constexpr int kFields = 4;

  /// One source particle on target `t` (gravExact with one division).
  /// Self-interaction is masked by identity, and the `+ (1.0 - mask)`
  /// keeps the masked pair's divisor nonzero.
  void pairTerm(const PointTarget& t, const PairSource& s, Lane acc) const {
    const double dx = t.x - s.x;
    const double dy = t.y - s.y;
    const double dz = t.z - s.z;
    const double dr2 = dx * dx + dy * dy + dz * dz;
    const double mask = (s.order == t.order) ? 0.0 : 1.0;
    const double eps2 = params.softening * params.softening;
    const double r2 = dr2 + eps2 + (1.0 - mask);
    const double inv_r = 1.0 / std::sqrt(r2);
    const double gm = params.G * s.m * mask;
    // r^-3 = inv_r * inv_r^2: a second division costs as much as the rest
    // of the term combined.
    const double gm_inv_r3 = gm * inv_r * (inv_r * inv_r);
    acc[0] -= gm_inv_r3 * dx;
    acc[1] -= gm_inv_r3 * dy;
    acc[2] -= gm_inv_r3 * dz;
    acc[3] -= gm * inv_r;
  }

  using NodeBlock = MultipoleBlock;
  void summarize(MultipoleBlock& b, int k, const CentroidData& d) const {
    b.set(k, d, params.G);
  }

  /// The node term is compiled with and without the quadrupole.
  bool nodeSwitch() const { return params.use_quadrupole; }

  /// Block entry `k`'s multipole on target `t` (gravApprox with one
  /// 1/sqrt, and r^-3, r^-5, r^-7 formed by multiplication).
  template <bool kQuadrupole>
  void nodeTerm(const PointTarget& t, const MultipoleBlock& b, int k,
                Lane acc) const {
    const double dx = t.x - b.cx[k];
    const double dy = t.y - b.cy[k];
    const double dz = t.z - b.cz[k];
    const double r2 =
        dx * dx + dy * dy + dz * dz + params.softening * params.softening;
    const double inv_r = 1.0 / std::sqrt(r2);
    const double inv_r2 = inv_r * inv_r;
    const double inv_r3 = inv_r * inv_r2;
    const double gm_inv_r3 = b.gm[k] * inv_r3;
    acc[0] -= gm_inv_r3 * dx;
    acc[1] -= gm_inv_r3 * dy;
    acc[2] -= gm_inv_r3 * dz;
    acc[3] -= b.gm[k] * inv_r;
    if constexpr (kQuadrupole) {
      const double qdx = b.qxx[k] * dx + b.qxy[k] * dy + b.qxz[k] * dz;
      const double qdy = b.qxy[k] * dx + b.qyy[k] * dy + b.qyz[k] * dz;
      const double qdz = b.qxz[k] * dx + b.qyz[k] * dy + b.qzz[k] * dz;
      const double qrr = dx * qdx + dy * qdy + dz * qdz;
      const double inv_r5 = inv_r3 * inv_r2;
      const double radial = 2.5 * qrr * (inv_r5 * inv_r2);
      acc[0] += qdx * inv_r5 - radial * dx;
      acc[1] += qdy * inv_r5 - radial * dy;
      acc[2] += qdz * inv_r5 - radial * dz;
      acc[3] -= 0.5 * qrr * inv_r5;
    }
  }

  void apply(Particle& p, const double* sum) const {
    p.acceleration += Vec3{sum[0], sum[1], sum[2]};
    p.potential += sum[3];
  }
};

/// O(N²) direct summation over a particle set: the accuracy reference the
/// tests compare Barnes-Hut against. Writes acceleration and potential.
inline void directForces(std::span<Particle> particles,
                         const GravityParams& params) {
  for (auto& p : particles) {
    p.acceleration = Vec3{};
    p.potential = 0.0;
    for (const auto& q : particles) {
      gravExact(q, p.position, params, p.acceleration, p.potential);
    }
  }
}

}  // namespace paratreet
