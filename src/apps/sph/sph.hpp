#pragma once

#include <algorithm>
#include <atomic>
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

/// What the last SphSolver::densityPass() did.
struct SphPassStats {
  /// The search balls started from the previous step's bound.
  bool warm = false;
  /// Up-and-down traversals run: 1, or 2 when the retry ran.
  int traversals = 0;
  /// Particles the warm ball left with fewer than min(k, n) neighbours,
  /// searched again cold.
  std::size_t retried = 0;
};

/// ParaTreeT's SPH pipeline (paper Section III.B): one k-nearest-
/// neighbour traversal fixes each particle's smoothing neighbourhood,
/// densities follow from the recorded neighbour lists, and the pressure
/// force is evaluated over the same lists — no second tree traversal.
///
/// Step over step the search starts warm: each particle's ball is seeded
/// with a radius that provably holds its previous k neighbours (see
/// densityPass()), so the walk prunes from the first leaf instead of
/// collecting about 10x k candidates under an infinite ball. The bound
/// only prunes; a count guard keeps the neighbour sets exact even when
/// the prior state is wrong.
///
/// Contrast with the Gadget-2 baseline (src/baselines/gadget), which
/// converges a smoothing length per particle with repeated fixed-ball
/// traversals.
template <typename Data, typename TreeTypeT>
class SphSolver {
 public:
  SphSolver(Forest<Data, TreeTypeT>& forest, SphParams params)
      : forest_(forest), params_(params),
        store_(forest.particleCount(), params.k_neighbors),
        prior_position_(forest.particleCount()),
        prior_ball2_(forest.particleCount()) {}

  NeighborStore& store() { return store_; }
  const SphPassStats& lastPass() const { return last_pass_; }

  /// Phase 1: kNN search (up-and-down traversal) + density from the
  /// neighbour lists. Fills SphFields.
  ///
  /// After a completed pass, each particle p starts from the ball
  ///   r_prior(p) + |p - p_prior| + max_q |q - q_prior|
  /// (inflated by 1e-9 for rounding): each of p's previous k neighbours
  /// q moved at most the maximum displacement, so all k lie inside it.
  /// The first pass, and a universe with fewer than k particles, start
  /// from an infinite ball. Whatever the start, a heap that holds k
  /// entries is exact (NeighborStore::consider); a particle left with
  /// fewer than min(k, n) is searched again cold in one more traversal,
  /// which a valid bound never needs.
  SphFields densityPass() {
    const std::size_t n = store_.size();
    const auto k = static_cast<std::size_t>(params_.k_neighbors);
    const std::size_t want = std::min(k, n);
    last_pass_ = SphPassStats{};
    last_pass_.warm = has_prior_ && n >= k;
    // A pass that does not finish leaves the prior state half-written;
    // the next pass then starts cold.
    has_prior_ = false;

    const double slack = last_pass_.warm ? maxDisplacement() : 0.0;
    auto* store = &store_;
    const bool warm = last_pass_.warm;
    const Vec3* prior_position = prior_position_.data();
    const double* prior_ball2 = prior_ball2_.data();
    forest_.forEachParticle(
        [store, warm, slack, prior_position, prior_ball2](Particle& p) {
          const auto o = static_cast<std::size_t>(p.order);
          store->neighbors(p.order).clear();
          p.ball2 = kInfiniteBall;
          if (warm) {
            const double r = (std::sqrt(prior_ball2[o]) +
                              (p.position - prior_position[o]).length() +
                              slack) *
                             (1.0 + 1e-9);
            p.ball2 = r * r;
          }
          p.density = 0.0;
          p.neighbor_count = 0;
        });
    KNearestVisitor<Data> visitor{&store_};
    forest_.traverseUpAndDown(visitor);
    last_pass_.traversals = 1;

    SphFields fields;
    fields.density.assign(n, 0.0);
    fields.pressure.assign(n, 0.0);
    std::size_t short_heaps = densities(want, fields);
    if (short_heaps > 0) {
      // Search the short particles again from an infinite ball; a zero
      // ball prunes everything for the rest, whose heaps are exact.
      last_pass_.retried = short_heaps;
      forest_.forEachParticle([store, want](Particle& p) {
        auto& nbrs = store->neighbors(p.order);
        if (nbrs.size() < want) {
          nbrs.clear();
          p.ball2 = kInfiniteBall;
        } else {
          p.ball2 = 0.0;
        }
      });
      forest_.traverseUpAndDown(visitor);
      last_pass_.traversals = 2;
      short_heaps = densities(want, fields);
    }
    has_prior_ = short_heaps == 0;
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
  /// Largest distance any particle moved since the prior search.
  double maxDisplacement() {
    std::atomic<double> max{0.0};
    auto* maxp = &max;
    const Vec3* prior_position = prior_position_.data();
    forest_.forEachParticle([maxp, prior_position](Particle& p) {
      const double d =
          (p.position - prior_position[static_cast<std::size_t>(p.order)])
              .length();
      double seen = maxp->load();
      while (d > seen && !maxp->compare_exchange_weak(seen, d)) {
      }
    });
    return max.load();
  }

  /// Density and pressure from the neighbour lists of every particle
  /// whose heap holds `want` entries, recording its position and ball as
  /// the next pass's prior. Returns how many heaps are short.
  std::size_t densities(std::size_t want, SphFields& fields) {
    std::atomic<std::size_t> short_heaps{0};
    auto* shortp = &short_heaps;
    auto* store = &store_;
    auto* fptr = &fields;
    Vec3* prior_position = prior_position_.data();
    double* prior_ball2 = prior_ball2_.data();
    const SphParams params = params_;
    forest_.forEachParticle([=](Particle& p) {
      const auto& nbrs = store->neighbors(p.order);
      if (nbrs.size() < want) {
        shortp->fetch_add(1);
        return;
      }
      // Smoothing length from the farthest neighbour, the heap root: the
      // kth-neighbour distance, or the farthest particle of a universe
      // with fewer than k. Support 2h.
      p.ball2 = nbrs.front().d2;
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
      const auto o = static_cast<std::size_t>(p.order);
      fptr->density[o] = rho;
      fptr->pressure[o] = pressure;
      prior_position[o] = p.position;
      prior_ball2[o] = p.ball2;
    });
    return short_heaps.load();
  }

  Forest<Data, TreeTypeT>& forest_;
  SphParams params_;
  NeighborStore store_;
  bool has_prior_ = false;
  SphPassStats last_pass_;

 protected:
  /// Each particle's position and final ball2 at its last completed
  /// search, indexed by `order` (Forest::flush() clears Particle::ball2).
  /// Protected so a test can make them stale and exercise the retry.
  std::vector<Vec3> prior_position_;
  std::vector<double> prior_ball2_;
};

}  // namespace paratreet
