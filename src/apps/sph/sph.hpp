#pragma once

#include <cmath>
#include <vector>

#include "apps/sph/kernel.hpp"
#include "apps/sph/knn.hpp"
#include "core/forest.hpp"

namespace paratreet {

/// Minimal Data for neighbour-search workloads: tracks the largest search
/// ball in the subtree (useful for scatter-style searches and
/// diagnostics). Boxes and counts already live on the node.
struct SphData {
  double max_ball{0.0};

  SphData() = default;
  SphData(const Particle* particles, int n_particles) {
    for (int i = 0; i < n_particles; ++i) {
      if (particles[i].ball_radius > max_ball) {
        max_ball = particles[i].ball_radius;
      }
    }
  }
  SphData& operator+=(const SphData& child) {
    if (child.max_ball > max_ball) max_ball = child.max_ball;
    return *this;
  }
};

/// Physical parameters of the SPH solver.
struct SphParams {
  int k_neighbors = 32;
  double gamma = 5.0 / 3.0;          ///< adiabatic index
  double internal_energy = 1.0;      ///< fixed specific internal energy u
};

/// Per-particle SPH outputs, indexed by `order`, published between the
/// density and force passes.
struct SphFields {
  std::vector<double> density;
  std::vector<double> pressure;
};

/// ParaTreeT's SPH pipeline (paper Section III.B): one k-nearest-
/// neighbour traversal fixes each particle's smoothing neighbourhood,
/// densities follow from the recorded neighbour lists, and the pressure
/// force is evaluated over the same lists — no second tree traversal.
///
/// Contrast with the Gadget-2 baseline (src/baselines/gadget), which
/// converges a smoothing length per particle with repeated fixed-ball
/// traversals.
template <typename Data, typename TreeTypeT>
class SphSolver {
 public:
  SphSolver(Forest<Data, TreeTypeT>& forest, SphParams params)
      : forest_(forest), params_(params),
        store_(forest.particleCount(), params.k_neighbors) {}

  NeighborStore& store() { return store_; }

  /// Phase 1: kNN search (up-and-down traversal) + density from the
  /// neighbour lists. Fills SphFields.
  SphFields densityPass() {
    auto* store = &store_;
    forest_.forEachParticle([store](Particle& p) {
      store->neighbors(p.order).clear();
      p.ball2 = kInfiniteBall;
      p.density = 0.0;
      p.neighbor_count = 0;
    });
    KNearestVisitor<Data> visitor{&store_};
    forest_.traverseUpAndDown(visitor);

    SphFields fields;
    fields.density.assign(store_.size(), 0.0);
    fields.pressure.assign(store_.size(), 0.0);
    const SphParams params = params_;
    auto* fptr = &fields;
    forest_.forEachParticle([store, params, fptr](Particle& p) {
      const auto& nbrs = store->neighbors(p.order);
      // Smoothing length from the kth-neighbour distance: support 2h.
      // With fewer than k particles in the universe the ball never
      // tightened; fall back to the farthest recorded candidate.
      double ball2 = p.ball2;
      if (!std::isfinite(ball2)) {
        ball2 = 0.0;
        for (const auto& nb : nbrs) ball2 = std::max(ball2, nb.d2);
        p.ball2 = ball2;
      }
      const double h = smoothingLength(p);
      double rho = 0.0;
      for (const auto& nb : nbrs) {
        rho += nb.mass * sph::kernelW(std::sqrt(nb.d2), h);
      }
      p.density = rho;
      p.neighbor_count = static_cast<std::int32_t>(nbrs.size());
      const double pressure = (params.gamma - 1.0) * rho * params.internal_energy;
      p.pressure = pressure;
      // Single writer per order: safe unsynchronized publication, read
      // only after the enclosing drain.
      fptr->density[static_cast<std::size_t>(p.order)] = rho;
      fptr->pressure[static_cast<std::size_t>(p.order)] = pressure;
    });
    return fields;
  }

  /// Phase 2: symmetric pressure force over the neighbour lists, using
  /// the published densities/pressures of both ends of each pair.
  void forcePass(const SphFields& fields) {
    auto* store = &store_;
    const SphFields* f = &fields;
    forest_.forEachParticle([store, f](Particle& p) {
      if (p.density <= 0.0) return;
      const double h_i = smoothingLength(p);
      const double pi_term =
          p.pressure / (p.density * p.density);
      Vec3 accel{};
      for (const auto& nb : store->neighbors(p.order)) {
        if (nb.order == p.order || nb.d2 == 0.0) continue;
        const auto j = static_cast<std::size_t>(nb.order);
        const double rho_j = f->density[j];
        if (rho_j <= 0.0) continue;
        const double pj_term = f->pressure[j] / (rho_j * rho_j);
        const double r = std::sqrt(nb.d2);
        const double dw = sph::kernelDw(r, h_i);
        // a_i = -sum_j m_j (P_i/rho_i^2 + P_j/rho_j^2) gradW_ij
        const Vec3 dir = (p.position - nb.position) / r;
        accel += (-nb.mass * (pi_term + pj_term) * dw) * dir;
      }
      p.acceleration += accel;
    });
  }

  /// One full SPH iteration (the unit Fig 11 times).
  SphFields step() {
    SphFields fields = densityPass();
    forcePass(fields);
    return fields;
  }

  /// Smoothing length convention: the kNN ball radius is the kernel
  /// support 2h.
  static double smoothingLength(const Particle& p) {
    return p.ball2 > 0.0 && std::isfinite(p.ball2)
               ? 0.5 * std::sqrt(p.ball2)
               : 1.0;
  }

 private:
  Forest<Data, TreeTypeT>& forest_;
  SphParams params_;
  NeighborStore store_;
};

}  // namespace paratreet
