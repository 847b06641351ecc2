#pragma once

// The four workloads of bench_step, each a Driver subclass in the
// paper's Fig 8 style, plus the reference computations their results are
// checked against. README.md says why each workload was chosen.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/collision/collision.hpp"
#include "apps/gravity/gravity.hpp"
#include "apps/sph/sph.hpp"
#include "core/driver.hpp"
#include "harness.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace paratreet::bench_step {

/// Process grid of every timed run.
inline constexpr int kProcs = 2;
inline constexpr int kWorkers = 2;

/// Modeled interconnect of the sph workload: 20 us latency + 1 GB/s.
inline rts::CommModel sphInterconnect() {
  rts::CommModel comm;
  comm.latency_us = 20.0;
  comm.us_per_byte = 0.001;
  return comm;
}

/// Integration steps (simulation time units; years for the disk). Over
/// 40 steps the interaction counts of gravity grow by under 1% as the
/// cold sphere contracts, so the work per step stays level.
inline constexpr double kGravityDt = 1e-3;
inline constexpr double kSphDt = 1e-5;
inline constexpr double kDiskDt = 1e-4;

/// Sampled targets of the correctness checks.
inline constexpr int kGravitySamples = 512;
inline constexpr int kSphSamples = 256;
inline constexpr int kDiskSamples = 256;

/// `count` distinct indices of [0, n), sorted, drawn from `seed`.
inline std::vector<std::size_t> sampleIndices(std::size_t n, int count,
                                              std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng(seed ^ 0x5bd1e9955bd1e995ULL);
  const std::size_t k = std::min(n, static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(all[i], all[i + rng.below(n - i)]);
  }
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

/// The sph input: 12 Plummer clusters of scale 0.04 and equal size. The
/// cluster centres are fixed and the seed draws only the particles: with
/// centres drawn per seed, the step times of ten seeds spread over 46% of
/// their median, against 19% with fixed centres.
inline std::vector<Particle> clusteredGas(std::size_t n, std::uint64_t seed) {
  constexpr std::size_t kClusters = 12;
  Rng layout(kClusters);
  InitialConditions ic;
  for (std::size_t c = 0; c < kClusters; ++c) {
    const Vec3 centre{layout.uniform(-0.4, 0.4), layout.uniform(-0.4, 0.4),
                      layout.uniform(-0.4, 0.4)};
    const std::size_t count = n / kClusters + (c < n % kClusters ? 1 : 0);
    const InitialConditions one =
        plummer(count, seed * kClusters + c, 0.04,
                static_cast<double>(count) / static_cast<double>(n));
    for (const Vec3& p : one.positions) ic.positions.push_back(centre + p);
    ic.velocities.insert(ic.velocities.end(), one.velocities.begin(),
                         one.velocities.end());
    ic.masses.insert(ic.masses.end(), one.masses.begin(), one.masses.end());
  }
  return makeParticles(ic);
}

template <typename Forest>
void kickDrift(Forest& forest, double dt) {
  forest.forEachParticle([dt](Particle& p) {
    p.velocity += p.acceleration * dt;
    p.position += p.velocity * dt;
  });
}

/// Driver base of every workload: times the closed loop from the
/// traversal() hook, wraps both hooks in bench-owned spans, and runs the
/// workload's checks inside the last timed traversal hook, at the
/// positions the traversal saw and before postTraversal() moves them.
template <typename Data, typename TreeT>
class StepDriver : public Driver<Data, TreeT> {
 public:
  StepDriver(Loop& loop, obs::TraceBuffer* trace)
      : loop_(loop), trace_(trace) {}

  void configure(Configuration& conf) final {
    conf.num_iterations = loop_.iterationCap();
    conf.tree_type = TreeType::eOct;
    conf.decomp_type = DecompType::eSfc;
    conf.bucket_size = 16;
    conf.min_partitions = 16;
    conf.min_subtrees = 8;
    setup(conf);
    conf_ = conf;
  }

  void traversal(int iter) final {
    loop_.enterHook(iter);
    obs::TraceSpan span(trace_, "app.traversal", "bench");
    step(iter);
    if (loop_.checkThisStep()) {
      const auto t = Clock::now();
      {
        obs::TraceSpan check_span(trace_, "bench.check", "bench");
        const std::vector<Particle> seen = this->forest().collect();
        checks_ = check(seen);
      }
      loop_.excludeFromStep(seconds(Clock::now() - t));
    }
  }

  void postTraversal(int iter) final {
    obs::TraceSpan span(trace_, "app.post_traversal", "bench");
    post(iter);
  }

  /// Checks that need the finished run (Driver::run() has returned).
  virtual void afterRun(std::vector<Check>& checks) { (void)checks; }

  const std::vector<Check>& checks() const { return checks_; }

 protected:
  /// Workload settings on top of the common ones (octree subtrees, SFC
  /// partitions, bucket 16).
  virtual void setup(Configuration& conf) { (void)conf; }
  virtual void step(int iter) = 0;
  virtual void post(int iter) = 0;
  virtual std::vector<Check> check(const std::vector<Particle>& seen) = 0;

  const Configuration& conf() const { return conf_; }
  Loop& loop() { return loop_; }

 private:
  Loop& loop_;
  obs::TraceBuffer* trace_;
  Configuration conf_;
  std::vector<Check> checks_;
};

/// RMS relative acceleration error of sampled particles against direct
/// summation over every particle.
inline Check gravityCheck(const std::vector<Particle>& seen,
                          const GravityParams& params, std::uint64_t seed) {
  const auto idx = sampleIndices(seen.size(), kGravitySamples, seed);
  double sum = 0.0;
  for (const std::size_t i : idx) {
    Vec3 ref{};
    double phi = 0.0;
    for (const Particle& q : seen) {
      gravExact(q, seen[i].position, params, ref, phi);
    }
    const double rel = (seen[i].acceleration - ref).length() / ref.length();
    sum += rel * rel;
  }
  Check c;
  c.name = "accel_rms_rel_err";
  c.value = std::sqrt(sum / static_cast<double>(idx.size()));
  c.limit = 1e-2;
  c.passed = std::isfinite(c.value) && c.value <= c.limit;
  c.detail = std::to_string(idx.size()) + " particles vs direct summation";
  return c;
}

/// Barnes-Hut gravity on a Plummer sphere, kick-drift in postTraversal.
/// With a checkpoint directory it is the gravity_durable workload:
/// checkpoint after every step, persisted on disk, frames over TCP.
class GravityApp final : public StepDriver<CentroidData, OctTreeType> {
 public:
  struct Durable {
    std::string dir;
    rts::TransportConfig transport;
  };

  GravityApp(Loop& loop, obs::TraceBuffer* trace, std::uint64_t seed,
             EvalKernel kernel, std::optional<Durable> durable)
      : StepDriver(loop, trace), seed_(seed), kernel_(kernel),
        durable_(std::move(durable)) {}

  void afterRun(std::vector<Check>& checks) override {
    if (!durable_.has_value()) return;
    // The newest generation on disk must be the last completed step, with
    // the one before it retained and nothing skipped as damaged.
    rts::DurableStore store;
    rts::DurableStore::Options opts;
    opts.dir = durable_->dir;
    opts.keep = conf().checkpoint_keep;
    opts.config_hash = conf().compatibilityHash(
        static_cast<std::uint64_t>(forest().particleCount()));
    store.open(opts);
    const auto recovered = store.loadNewestVerified();
    const int last = loop().stoppedAt() - 1;
    const std::vector<int> expect = {last - 1, last};
    Check c;
    c.name = "durable_newest_step";
    c.value = recovered.has_value() ? recovered->step : -1;
    c.limit = last;
    c.passed = recovered.has_value() && recovered->step == last &&
               recovered->generations_skipped == 0 &&
               store.generationSteps() == expect;
    c.detail = "newest verified generation vs last completed step; " +
               std::to_string(store.generationSteps().size()) +
               " generation(s) on disk";
    checks.push_back(c);
  }

 protected:
  void setup(Configuration& conf) override {
    if (durable_.has_value()) {
      conf.transport = durable_->transport;
      conf.checkpoint_every = 1;
      conf.checkpoint_dir = durable_->dir;
      conf.checkpoint_keep = 2;
    }
  }
  void step(int) override {
    startDown<GravityVisitor>(GravityVisitor{params_},
                              TraversalStyle::kTransposed, kernel_);
  }
  void post(int) override { kickDrift(forest(), kGravityDt); }
  std::vector<Check> check(const std::vector<Particle>& seen) override {
    return {gravityCheck(seen, params_, seed_)};
  }

 private:
  GravityParams params_{0.7, 1e-3, 1.0, true};
  std::uint64_t seed_;
  EvalKernel kernel_;
  std::optional<Durable> durable_;
};

/// SPH on clustered gas: SphSolver::step (kNN up-and-down traversal with
/// the inline visitor, then density and force passes), kick-drift in
/// postTraversal.
class SphApp final : public StepDriver<SphData, OctTreeType> {
 public:
  SphApp(Loop& loop, obs::TraceBuffer* trace, std::uint64_t seed)
      : StepDriver(loop, trace), seed_(seed) {}

 protected:
  void step(int) override {
    // The Forest exists from run()'s start; the solver keeps its
    // neighbour store across steps.
    if (!solver_.has_value()) solver_.emplace(forest(), params_);
    solver_->step();
  }
  void post(int) override { kickDrift(forest(), kSphDt); }

  /// Maximum relative density error of sampled particles against a
  /// brute-force k-nearest search over every particle.
  std::vector<Check> check(const std::vector<Particle>& seen) override {
    const auto idx = sampleIndices(seen.size(), kSphSamples, seed_);
    const auto k = static_cast<std::size_t>(params_.k_neighbors);
    std::vector<std::pair<double, std::size_t>> d2(seen.size());
    double worst = 0.0;
    for (const std::size_t i : idx) {
      for (std::size_t j = 0; j < seen.size(); ++j) {
        d2[j] = {distanceSquared(seen[i].position, seen[j].position), j};
      }
      std::nth_element(d2.begin(), d2.begin() + static_cast<long>(k - 1),
                       d2.end());
      const double ball2 = d2[k - 1].first;
      const double h = 0.5 * std::sqrt(ball2);
      double rho = 0.0;
      for (std::size_t n = 0; n < k; ++n) {
        rho += seen[d2[n].second].mass * sph::kernelW(std::sqrt(d2[n].first), h);
      }
      worst = std::max(worst, std::abs(seen[i].density - rho) / rho);
    }
    Check c;
    c.name = "density_max_rel_err";
    c.value = worst;
    c.limit = 1e-12;
    c.passed = std::isfinite(worst) && worst <= c.limit;
    c.detail = std::to_string(idx.size()) + " particles vs brute-force kNN";
    return {c};
  }

 private:
  SphParams params_{};
  std::uint64_t seed_;
  std::optional<SphSolver<SphData, OctTreeType>> solver_;
};

/// Planetesimal disk on the longest-dimension tree and decomposition:
/// swept-sphere collision detection only, drift in postTraversal.
class DiskApp final : public StepDriver<CentroidData, LongestDimTreeType> {
 public:
  DiskApp(Loop& loop, obs::TraceBuffer* trace, std::uint64_t seed)
      : StepDriver(loop, trace), seed_(seed) {}

 protected:
  void setup(Configuration& conf) override {
    conf.tree_type = TreeType::eLongest;
    conf.decomp_type = DecompType::eLongest;
  }
  void step(int) override {
    startDown<CollisionVisitor>(CollisionVisitor{kDiskDt});
  }
  void post(int) override {
    forest().forEachParticle(
        [](Particle& p) { p.position += p.velocity * kDiskDt; });
  }

  /// Fraction of sampled bodies whose earliest swept-contact partner
  /// differs from a brute-force search over every body. Bodies the
  /// traversal found in contact are sampled first (up to half), so the
  /// check covers contacts and not only their absence.
  std::vector<Check> check(const std::vector<Particle>& seen) override {
    std::vector<std::size_t> idx;
    for (const Particle& p : seen) {
      if (p.collision_partner >= 0 &&
          idx.size() < static_cast<std::size_t>(kDiskSamples / 2)) {
        idx.push_back(static_cast<std::size_t>(p.order));
      }
    }
    const std::size_t in_contact = idx.size();
    for (const std::size_t i : sampleIndices(seen.size(), kDiskSamples, seed_)) {
      if (idx.size() == static_cast<std::size_t>(kDiskSamples)) break;
      if (seen[i].collision_partner < 0) idx.push_back(i);
    }
    int mismatches = 0;
    for (const std::size_t i : idx) {
      const Particle& p = seen[i];
      double best_t = std::numeric_limits<double>::infinity();
      std::int32_t best = -1;
      for (const Particle& q : seen) {
        double t = 0.0;
        if (q.order != p.order &&
            CollisionVisitor::sweptContact(p, q, kDiskDt, t) && t < best_t) {
          best_t = t;
          best = q.order;
        }
      }
      bool same = (best < 0) == (p.collision_partner < 0);
      if (same && best >= 0 && p.collision_partner != best) {
        // A different partner at the same contact time is a tie.
        double t = 0.0;
        same = CollisionVisitor::sweptContact(
                   p, seen[static_cast<std::size_t>(p.collision_partner)],
                   kDiskDt, t) &&
               t == best_t;
      }
      if (!same) ++mismatches;
    }
    Check c;
    c.name = "partner_mismatch_frac";
    c.value = static_cast<double>(mismatches) / static_cast<double>(idx.size());
    c.limit = 0.0;
    c.passed = mismatches == 0;
    c.detail = std::to_string(idx.size()) + " bodies (" +
               std::to_string(in_contact) +
               " in contact) vs brute-force swept contacts";
    return {c};
  }

 private:
  std::uint64_t seed_;
};

}  // namespace paratreet::bench_step
