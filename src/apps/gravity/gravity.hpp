#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "apps/gravity/centroid_data.hpp"
#include "core/interaction_list.hpp"
#include "tree/node.hpp"

// Function multiversioning for the batched kernels: GCC and Clang emit a
// default, an AVX2 and an AVX-512F body and pick one at load time from the
// host CPU, so a portable binary still runs 4- and 8-wide lanes where the
// units exist. Other architectures (and compilers without the attribute)
// compile the plain body. The build uses -ffp-contract=off, so no clone
// fuses a multiply-add that another rounds twice: every clone computes
// the same bits. ThreadSanitizer builds compile the plain body too: the
// loader calls the clone resolver before the TSan runtime has started,
// and GCC instruments the resolver, so the binary would crash at startup.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define PARATREET_SIMD_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#ifndef PARATREET_SIMD_CLONES
#define PARATREET_SIMD_CLONES
#endif

namespace paratreet {

/// Numerical parameters of the gravity solver.
struct GravityParams {
  double theta = 0.7;       ///< Barnes-Hut opening angle
  double softening = 1e-4;  ///< Plummer softening length
  double G = 1.0;           ///< Newton's constant in simulation units
  /// Include the quadrupole term of the multipole expansion.
  bool use_quadrupole = true;
};

/// Acceleration and potential on a point at `pos` from a multipole
/// expansion given by its total mass, centroid and traceless quadrupole
/// (`quad` is read only with params.use_quadrupole). A node's centroid and
/// quadrupole do not depend on the target, so callers evaluating many
/// targets against one node compute them once.
inline void gravApprox(double sum_mass, const Vec3& centroid,
                       const SymTensor3& quad, const Vec3& pos,
                       const GravityParams& params, Vec3& accel,
                       double& potential) {
  const Vec3 dr = pos - centroid;
  const double r2 = dr.lengthSquared() + params.softening * params.softening;
  const double r = std::sqrt(r2);
  const double inv_r3 = 1.0 / (r2 * r);
  accel += (-params.G * sum_mass * inv_r3) * dr;
  potential += -params.G * sum_mass / r;
  if (params.use_quadrupole) {
    // Traceless quadrupole: phi_Q = -G q_rr / (2 r^5),
    // a_Q = G [ Q dr / r^5 - (5/2) q_rr dr / r^7 ].
    const Vec3 qd = quad.mul(dr);
    const double qrr = dr.dot(qd);
    const double inv_r5 = inv_r3 / r2;
    const double inv_r7 = inv_r5 / r2;
    accel += params.G * (qd * inv_r5 - (2.5 * qrr * inv_r7) * dr);
    potential += -params.G * 0.5 * qrr * inv_r5;
  }
}

/// Acceleration and potential on a point at `pos` from the multipole
/// expansion of `data` (the paper's gravApprox helper).
inline void gravApprox(const CentroidData& data, const Vec3& pos,
                       const GravityParams& params, Vec3& accel,
                       double& potential) {
  gravApprox(data.sum_mass, data.centroid(),
             params.use_quadrupole ? data.quadrupole() : SymTensor3{}, pos,
             params, accel, potential);
}

/// Pairwise Newtonian force on `pos` from one source particle (the
/// paper's gravExact helper). Skips self-interaction (r = 0).
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

/// Batched pairwise gravity over gathered SoA spans: every target reads
/// the contiguous source arrays in a flat inner loop the compiler
/// auto-vectorizes. Accumulation runs over 8 explicit lanes (reduced
/// exactly as written, so no -ffast-math reassociation licence is
/// needed) with a scalar tail. Self-interaction is masked by comparing
/// Particle::order — index identity, not the inline path's exact
/// floating-point dr2 == 0 test — and the `+ (1.0 - mask)` term keeps the
/// masked lane's divisor nonzero.
PARATREET_SIMD_CLONES
inline void gravExactBatch(const SoaSources& src, const SoaTargets& tgt,
                           const GravityParams& params,
                           SpatialNode<CentroidData>& target) {
  constexpr int kLanes = 8;
  const double eps2 = params.softening * params.softening;
  const double G = params.G;
  const double* __restrict sx = src.x;
  const double* __restrict sy = src.y;
  const double* __restrict sz = src.z;
  const double* __restrict sm = src.m;
  const double* __restrict so = src.order;
  for (int i = 0; i < tgt.n; ++i) {
    const double px = tgt.x[i];
    const double py = tgt.y[i];
    const double pz = tgt.z[i];
    const double self = tgt.order[i];
    double ax[kLanes] = {}, ay[kLanes] = {}, az[kLanes] = {}, ph[kLanes] = {};
    int j = 0;
    for (; j + kLanes <= src.n; j += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        const double dx = px - sx[j + l];
        const double dy = py - sy[j + l];
        const double dz = pz - sz[j + l];
        const double dr2 = dx * dx + dy * dy + dz * dz;
        const double mask = (so[j + l] == self) ? 0.0 : 1.0;
        const double r2 = dr2 + eps2 + (1.0 - mask);
        const double r = std::sqrt(r2);
        const double gm = G * sm[j + l] * mask;
        const double inv_r = 1.0 / r;
        // One division per pair: r^-3 = inv_r * inv_r^2 (a second vdivpd
        // costs as much as the rest of the lane body combined).
        const double gm_inv_r3 = gm * inv_r * (inv_r * inv_r);
        ax[l] -= gm_inv_r3 * dx;
        ay[l] -= gm_inv_r3 * dy;
        az[l] -= gm_inv_r3 * dz;
        ph[l] -= gm * inv_r;
      }
    }
    double tax = 0.0, tay = 0.0, taz = 0.0, tph = 0.0;
    for (; j < src.n; ++j) {
      const double dx = px - sx[j];
      const double dy = py - sy[j];
      const double dz = pz - sz[j];
      const double dr2 = dx * dx + dy * dy + dz * dz;
      const double mask = (so[j] == self) ? 0.0 : 1.0;
      const double r2 = dr2 + eps2 + (1.0 - mask);
      const double r = std::sqrt(r2);
      const double gm = G * sm[j] * mask;
      const double inv_r = 1.0 / r;
      const double gm_inv_r3 = gm * inv_r * (inv_r * inv_r);
      tax -= gm_inv_r3 * dx;
      tay -= gm_inv_r3 * dy;
      taz -= gm_inv_r3 * dz;
      tph -= gm * inv_r;
    }
    for (int l = 0; l < kLanes; ++l) {
      tax += ax[l];
      tay += ay[l];
      taz += az[l];
      tph += ph[l];
    }
    target.applyAcceleration(i, Vec3{tax, tay, taz});
    target.applyPotential(i, tph);
  }
}

namespace detail {

/// A block of node multipoles derived into SoA form for gravApproxBatch:
/// centroid, G·m and the traceless quadrupole scaled by G.
struct MultipoleBlock {
  static constexpr int kSize = 64;
  double cx[kSize], cy[kSize], cz[kSize], gm[kSize];
  double qxx[kSize], qxy[kSize], qxz[kSize], qyy[kSize], qyz[kSize],
      qzz[kSize];

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

/// One particle-node term of gravApprox against block entry `k`, with one
/// 1/sqrt and r^-3, r^-5, r^-7 formed by multiplication.
template <bool kQuadrupole>
[[gnu::always_inline]] inline void approxTerm(const MultipoleBlock& b, int k,
                                              double px, double py, double pz,
                                              double eps2, double& ax,
                                              double& ay, double& az,
                                              double& ph) {
  const double dx = px - b.cx[k];
  const double dy = py - b.cy[k];
  const double dz = pz - b.cz[k];
  const double r2 = dx * dx + dy * dy + dz * dz + eps2;
  const double inv_r = 1.0 / std::sqrt(r2);
  const double inv_r2 = inv_r * inv_r;
  const double inv_r3 = inv_r * inv_r2;
  const double gm_inv_r3 = b.gm[k] * inv_r3;
  ax -= gm_inv_r3 * dx;
  ay -= gm_inv_r3 * dy;
  az -= gm_inv_r3 * dz;
  ph -= b.gm[k] * inv_r;
  if constexpr (kQuadrupole) {
    const double qdx = b.qxx[k] * dx + b.qxy[k] * dy + b.qxz[k] * dz;
    const double qdy = b.qxy[k] * dx + b.qyy[k] * dy + b.qyz[k] * dz;
    const double qdz = b.qxz[k] * dx + b.qyz[k] * dy + b.qzz[k] * dz;
    const double qrr = dx * qdx + dy * qdy + dz * qdz;
    const double inv_r5 = inv_r3 * inv_r2;
    const double radial = 2.5 * qrr * (inv_r5 * inv_r2);
    ax += qdx * inv_r5 - radial * dx;
    ay += qdy * inv_r5 - radial * dy;
    az += qdz * inv_r5 - radial * dz;
    ph -= 0.5 * qrr * inv_r5;
  }
}

/// Every target of the bucket against the first `n` entries of one block:
/// 8 explicit accumulation lanes, a scalar tail, and a fixed-order
/// reduction applied to the target once per block.
template <bool kQuadrupole>
[[gnu::always_inline]] inline void approxBlock(
    const MultipoleBlock& b, int n, const SoaTargets& tgt, double eps2,
    SpatialNode<CentroidData>& target) {
  constexpr int kLanes = 8;
  static_assert(MultipoleBlock::kSize % kLanes == 0);
  for (int i = 0; i < tgt.n; ++i) {
    const double px = tgt.x[i];
    const double py = tgt.y[i];
    const double pz = tgt.z[i];
    double ax[kLanes] = {}, ay[kLanes] = {}, az[kLanes] = {}, ph[kLanes] = {};
    int k = 0;
    for (; k + kLanes <= n; k += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        approxTerm<kQuadrupole>(b, k + l, px, py, pz, eps2, ax[l], ay[l],
                                az[l], ph[l]);
      }
    }
    double tax = 0.0, tay = 0.0, taz = 0.0, tph = 0.0;
    for (; k < n; ++k) {
      approxTerm<kQuadrupole>(b, k, px, py, pz, eps2, tax, tay, taz, tph);
    }
    for (int l = 0; l < kLanes; ++l) {
      tax += ax[l];
      tay += ay[l];
      taz += az[l];
      tph += ph[l];
    }
    target.applyAcceleration(i, Vec3{tax, tay, taz});
    target.applyPotential(i, tph);
  }
}

}  // namespace detail

/// Batched multipole gravity over a bucket's node-approximation list: the
/// SoA counterpart of calling gravApprox for every (target, node) pair.
/// Nodes are taken a block at a time; each node's multipole is derived
/// once into the stack block, then every target streams the block in
/// detail::approxBlock.
PARATREET_SIMD_CLONES
inline void gravApproxBatch(const CentroidData* nodes, int n,
                            const SoaTargets& tgt, const GravityParams& params,
                            SpatialNode<CentroidData>& target) {
  const double eps2 = params.softening * params.softening;
  detail::MultipoleBlock block{};
  for (int base = 0; base < n; base += detail::MultipoleBlock::kSize) {
    const int m = std::min(n - base, detail::MultipoleBlock::kSize);
    for (int k = 0; k < m; ++k) block.set(k, nodes[base + k], params.G);
    if (params.use_quadrupole) {
      detail::approxBlock<true>(block, m, tgt, eps2, target);
    } else {
      detail::approxBlock<false>(block, m, tgt, eps2, target);
    }
  }
}

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

  void node(const SpatialNode<CentroidData>& source,
            SpatialNode<CentroidData>& target) const {
    const Vec3 c = source.data.centroid();
    const SymTensor3 q =
        params.use_quadrupole ? source.data.quadrupole() : SymTensor3{};
    for (int i = 0; i < target.n_particles; ++i) {
      Vec3 accel{};
      double phi = 0.0;
      gravApprox(source.data.sum_mass, c, q, target.particle(i).position,
                 params, accel, phi);
      target.applyAcceleration(i, accel);
      target.applyPotential(i, phi);
    }
  }

  void leaf(const SpatialNode<CentroidData>& source,
            SpatialNode<CentroidData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      Vec3 accel{};
      double phi = 0.0;
      const Vec3 pos = target.particle(i).position;
      for (int j = 0; j < source.n_particles; ++j) {
        gravExact(source.particle(j), pos, params, accel, phi);
      }
      target.applyAcceleration(i, accel);
      target.applyPotential(i, phi);
    }
  }

  /// Batch hook (EvalKernel::kBatched): the bucket's whole
  /// node-approximation list, arriving contiguous, through the vectorized
  /// multipole kernel.
  void nodeBatch(const CentroidData* nodes, int n,
                 SpatialNode<CentroidData>& target,
                 const SoaTargets& tgt) const {
    gravApproxBatch(nodes, n, tgt, params, target);
  }

  /// Batch hook (EvalKernel::kBatched): the bucket's direct list,
  /// gathered into SoA spans, through the vectorized pairwise kernel.
  void leafBatch(const SoaSources& src, SpatialNode<CentroidData>& target,
                 const SoaTargets& tgt) const {
    gravExactBatch(src, tgt, params, target);
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
