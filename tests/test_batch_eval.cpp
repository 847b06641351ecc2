// Batched two-phase evaluation (EvalKernel::kBatched) must agree with
// the inline visitor path: bitwise for term-free visitors on a
// deterministic configuration (the replay runs the identical callbacks
// in the identical order), and to tight relative tolerance for visitors
// with terms (lane-blocked accumulation reassociates the sums).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "apps/sph/knn.hpp"
#include "apps/sph/sph.hpp"
#include "core/driver.hpp"
#include "core/forest.hpp"
#include "observability/instrumentation.hpp"
#include "util/rng.hpp"

namespace paratreet {
namespace {

Configuration gravConfig() {
  Configuration conf;
  conf.min_partitions = 5;
  conf.min_subtrees = 4;
  conf.bucket_size = 10;
  return conf;
}

/// Single-pause deterministic setup (mirrors the chaos suite): binary
/// kd-tree, one Subtree and one Partition per proc (a lone requester per
/// cache always misses on first encounter, so each walk pauses exactly
/// once), whole remote subtree in one fill.
Configuration bitwiseConfig() {
  Configuration conf;
  conf.tree_type = TreeType::eKd;
  conf.decomp_type = DecompType::eKd;
  conf.min_subtrees = 2;
  conf.min_partitions = 2;
  conf.bucket_size = 16;
  conf.fetch_depth = 32;
  return conf;
}

/// GravityVisitor stripped of its terms: under kBatched the
/// evaluator has nothing to vectorize and replays the recorded
/// callbacks, which must reproduce the inline path bitwise.
struct PlainGravityVisitor {
  GravityVisitor inner{};
  bool open(const SpatialNode<CentroidData>& s,
            SpatialNode<CentroidData>& t) const {
    return inner.open(s, t);
  }
  void node(const SpatialNode<CentroidData>& s,
            SpatialNode<CentroidData>& t) const {
    inner.node(s, t);
  }
  void leaf(const SpatialNode<CentroidData>& s,
            SpatialNode<CentroidData>& t) const {
    inner.leaf(s, t);
  }
};

template <typename TreeT, typename Visitor>
std::vector<Particle> runGravity(rts::Runtime& rt, const Configuration& conf,
                                 TraversalStyle style, EvalKernel kernel,
                                 Instrumentation instr = {},
                                 std::size_t n = 500) {
  Forest<CentroidData, TreeT> forest(rt, conf, instr);
  forest.load(makeParticles(uniformCube(n, 71)));
  forest.decompose();
  forest.build();
  forest.template traverse<Visitor>({}, style, kernel);
  return forest.collect();
}

void expectCloseResults(const std::vector<Particle>& a,
                        const std::vector<Particle>& b, double rel) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = a[i].acceleration.length() + 1e-12;
    EXPECT_LT((a[i].acceleration - b[i].acceleration).length(), rel * scale)
        << "particle " << i;
    EXPECT_NEAR(a[i].potential, b[i].potential,
                rel * (std::abs(a[i].potential) + 1e-12))
        << "particle " << i;
  }
}

template <typename TreeT>
class BatchEvalTreeTest : public ::testing::Test {};
using TreeTypes = ::testing::Types<OctTreeType, KdTreeType, LongestDimTreeType>;
TYPED_TEST_SUITE(BatchEvalTreeTest, TreeTypes);

TYPED_TEST(BatchEvalTreeTest, GravityBatchedMatchesVisitorBothStyles) {
  // One worker per proc: each kernel's own run is deterministic, so only
  // the lane evaluator's reassociation separates the results.
  rts::Runtime rt({2, 1});
  for (const TraversalStyle style :
       {TraversalStyle::kTransposed, TraversalStyle::kPerBucket}) {
    const auto v = runGravity<TypeParam, GravityVisitor>(
        rt, gravConfig(), style, EvalKernel::kVisitor);
    const auto b = runGravity<TypeParam, GravityVisitor>(
        rt, gravConfig(), style, EvalKernel::kBatched);
    expectCloseResults(v, b, 1e-12);
  }
}

TEST(BatchEval, MultiWorkerBatchedMatchesVisitor) {
  // With several workers, pause/resume scheduling may reorder the inline
  // path's accumulation between runs; use the suite-standard 1e-9 bound.
  rts::Runtime rt({3, 2});
  const auto v = runGravity<OctTreeType, GravityVisitor>(
      rt, gravConfig(), TraversalStyle::kTransposed, EvalKernel::kVisitor);
  const auto b = runGravity<OctTreeType, GravityVisitor>(
      rt, gravConfig(), TraversalStyle::kTransposed, EvalKernel::kBatched);
  expectCloseResults(v, b, 1e-9);
}

TEST(BatchEval, HookFreeReplayIsBitwise) {
  rts::Runtime rt({2, 1});
  for (const TraversalStyle style :
       {TraversalStyle::kTransposed, TraversalStyle::kPerBucket}) {
    const auto v = runGravity<KdTreeType, PlainGravityVisitor>(
        rt, bitwiseConfig(), style, EvalKernel::kVisitor, {}, 600);
    const auto b = runGravity<KdTreeType, PlainGravityVisitor>(
        rt, bitwiseConfig(), style, EvalKernel::kBatched, {}, 600);
    ASSERT_EQ(v.size(), b.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&v[i].acceleration, &b[i].acceleration,
                               sizeof(v[i].acceleration)))
          << "particle " << i;
      EXPECT_EQ(0, std::memcmp(&v[i].potential, &b[i].potential,
                               sizeof(v[i].potential)))
          << "particle " << i;
    }
  }
}

TEST(BatchEval, SphFixedBallMatchesVisitor) {
  rts::Runtime rt({2, 1});
  auto run = [&](EvalKernel kernel) {
    Configuration conf = gravConfig();
    conf.bucket_size = 12;
    Forest<SphData, OctTreeType> forest(rt, conf);
    forest.load(makeParticles(uniformCube(400, 83)));
    forest.decompose();
    forest.build();
    forest.forEachParticle([](Particle& p) {
      p.ball2 = p.order % 3 == 0 ? 0.02 : 0.0;  // mix active and inactive
      p.density = 0.0;
      p.neighbor_count = 0;
    });
    forest.traverse<FixedBallDensityVisitor<SphData>>({},
                                                      TraversalStyle::kTransposed,
                                                      kernel);
    return forest.collect();
  };
  const auto v = run(EvalKernel::kVisitor);
  const auto b = run(EvalKernel::kBatched);
  ASSERT_EQ(v.size(), b.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    // Neighbour counts are integer classifications and must agree
    // exactly; densities reassociate in the lane-blocked kernel.
    EXPECT_EQ(v[i].neighbor_count, b[i].neighbor_count) << "particle " << i;
    EXPECT_NEAR(v[i].density, b[i].density,
                1e-12 * (std::abs(v[i].density) + 1e-12))
        << "particle " << i;
  }
}

TEST(BatchEval, KnnBatchedStaysCorrect) {
  // kNN's shrinking ball can't prune during the record phase, but the
  // replayed result must still be exact.
  rts::Runtime rt({2, 2});
  Forest<SphData, OctTreeType> forest(rt, gravConfig());
  auto particles = makeParticles(uniformCube(300, 89));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  const int k = 8;
  NeighborStore store(reference.size(), k);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
  forest.traverseUpAndDown(KNearestVisitor<SphData>{&store},
                           EvalKernel::kBatched);
  for (int order : {0, 42, 150, 299}) {
    std::vector<std::pair<double, int>> d;
    for (const auto& p : reference) {
      d.push_back({distanceSquared(
                       p.position,
                       reference[static_cast<std::size_t>(order)].position),
                   p.order});
    }
    std::sort(d.begin(), d.end());
    auto heap = store.neighbors(order);
    ASSERT_EQ(heap.size(), static_cast<std::size_t>(k)) << "order " << order;
    std::sort(heap.begin(), heap.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.d2 < b.d2; });
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(heap[static_cast<std::size_t>(i)].d2,
                  d[static_cast<std::size_t>(i)].first, 1e-12)
          << "order " << order << " rank " << i;
    }
  }
}

void expectBitwiseResults(const std::vector<Particle>& a,
                          const std::vector<Particle>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&a[i].acceleration, &b[i].acceleration,
                             sizeof(a[i].acceleration)))
        << "particle " << i;
    EXPECT_EQ(0, std::memcmp(&a[i].potential, &b[i].potential,
                             sizeof(a[i].potential)))
        << "particle " << i;
  }
}

TYPED_TEST(BatchEvalTreeTest, OverlapMatchesBarrierBitwise) {
  // The overlapped drain evaluates exactly the same per-bucket lists as
  // the bulk-synchronous barrier drain, and per-bucket evaluation writes
  // only that bucket's targets — so on a deterministic schedule (one
  // proc, one worker) the two modes must agree bitwise, on both the
  // lane-evaluator path and the per-pair replay path, for both styles.
  rts::Runtime rt({1, 1});
  Configuration overlap = gravConfig();
  overlap.batch_drain = BatchDrain::kOverlap;
  Configuration barrier = gravConfig();
  barrier.batch_drain = BatchDrain::kBarrier;
  for (const TraversalStyle style :
       {TraversalStyle::kTransposed, TraversalStyle::kPerBucket}) {
    expectBitwiseResults(runGravity<TypeParam, GravityVisitor>(
                             rt, overlap, style, EvalKernel::kBatched),
                         runGravity<TypeParam, GravityVisitor>(
                             rt, barrier, style, EvalKernel::kBatched));
    expectBitwiseResults(runGravity<TypeParam, PlainGravityVisitor>(
                             rt, overlap, style, EvalKernel::kBatched),
                         runGravity<TypeParam, PlainGravityVisitor>(
                             rt, barrier, style, EvalKernel::kBatched));
  }
}

TEST(BatchEval, OverlapMatchesBarrierAcrossRemotePauses) {
  // The single-pause deterministic config: every walk pauses on the
  // remote subtree and resumes once, so buckets genuinely seal from a
  // resumed continuation (not just the seed) and drain while the other
  // rank still walks. Drain mode must still not change a single bit.
  rts::Runtime rt({2, 1});
  Configuration overlap = bitwiseConfig();
  overlap.batch_drain = BatchDrain::kOverlap;
  Configuration barrier = bitwiseConfig();
  barrier.batch_drain = BatchDrain::kBarrier;
  for (const TraversalStyle style :
       {TraversalStyle::kTransposed, TraversalStyle::kPerBucket}) {
    expectBitwiseResults(
        runGravity<KdTreeType, GravityVisitor>(rt, overlap, style,
                                               EvalKernel::kBatched, {}, 600),
        runGravity<KdTreeType, GravityVisitor>(rt, barrier, style,
                                               EvalKernel::kBatched, {}, 600));
  }
}

TEST(BatchEval, ConcurrentOverlapDrainIsCorrectAndFullyEager) {
  // Multi-proc, multi-worker: sealed buckets drain on worker tasks while
  // other Partitions (and this Partition's paused branches) are still
  // walking — under TSan this exercises the seal/drain concurrency. On a
  // fault-free run every bucket must seal and drain eagerly: drain tasks
  // are enqueued before their scheduling unit retires, so quiescence
  // waits for them and finish() finds no stragglers.
  rts::Runtime rt({3, 2});
  for (const TraversalStyle style :
       {TraversalStyle::kTransposed, TraversalStyle::kPerBucket}) {
    Observability ob;
    const auto batched = runGravity<OctTreeType, GravityVisitor>(
        rt, gravConfig(), style, EvalKernel::kBatched, ob.handle(), 800);
    const auto inline_v = runGravity<OctTreeType, GravityVisitor>(
        rt, gravConfig(), style, EvalKernel::kVisitor, {}, 800);
    expectCloseResults(inline_v, batched, 1e-9);
    const auto early = ob.metrics.counter("kernel.sealed_early").value();
    const auto total = ob.metrics.counter("kernel.sealed_total").value();
    EXPECT_GT(total, 0u);
    EXPECT_EQ(early, total);
  }
}

TEST(BatchEval, BarrierDrainSealsNothingEarly) {
  rts::Runtime rt({2, 1});
  Configuration conf = gravConfig();
  conf.batch_drain = BatchDrain::kBarrier;
  Observability ob;
  runGravity<OctTreeType, GravityVisitor>(
      rt, conf, TraversalStyle::kTransposed, EvalKernel::kBatched, ob.handle());
  EXPECT_EQ(ob.metrics.counter("kernel.sealed_early").value(), 0u);
  EXPECT_GT(ob.metrics.counter("kernel.sealed_total").value(), 0u);
}

/// Multi-iteration leapfrog gravity on the bitwise-reproducible kd config
/// (the checkpoint suite's harness) with the batched kernel and the
/// overlapped drain — so a mid-iteration crash catches drain tasks in
/// flight.
class BatchedCheckpointedGravity : public Driver<CentroidData, KdTreeType> {
 public:
  Configuration overrides;
  int traversal_calls = 0;

  void configure(Configuration& conf) override {
    conf = overrides;
    conf.tree_type = TreeType::eKd;
    conf.decomp_type = DecompType::eKd;
    conf.min_subtrees = 2;
    conf.min_partitions = 2;
    conf.bucket_size = 16;
    conf.fetch_depth = 32;
    conf.num_iterations = 6;
    conf.batch_drain = BatchDrain::kOverlap;
  }
  void traversal(int) override {
    ++traversal_calls;
    startDown<GravityVisitor>({}, TraversalStyle::kTransposed,
                              EvalKernel::kBatched);
  }
  void postTraversal(int) override {
    forest().forEachParticle([](Particle& p) {
      p.velocity += p.acceleration * 1e-3;
      p.position += p.velocity * 1e-3;
    });
  }
};

TEST(BatchEval, OverlapDrainCrashRecoveryMatchesFaultFreeBitwise) {
  // A rank crash mid-step aborts a traversal with sealed buckets drained
  // and drain tasks possibly queued; recovery must cancel them cleanly
  // (they die with the purged queues, like resume closures) and the
  // re-run from the checkpoint must reproduce the fault-free physics
  // bitwise — the batched overlapped pipeline adds no recovery state.
  auto run = [](Configuration overrides) {
    rts::Runtime rt({2, 1});
    BatchedCheckpointedGravity app;
    app.overrides = std::move(overrides);
    app.run(rt, makeParticles(uniformCube(600, 77)), {});
    return std::pair{app.forest().collect(), app.traversal_calls};
  };
  const auto [clean, clean_calls] = run(Configuration{});
  Configuration conf;
  conf.fault.crash_step = 3;
  conf.fault.crash_rank = 1;
  conf.fault.crash_after_tasks = 3;
  conf.fault.drain_deadline_ms = 2000.0;
  conf.checkpoint_every = 2;
  conf.recovery_mode = RecoveryMode::kRestart;
  const auto [crashed, crashed_calls] = run(conf);
  EXPECT_EQ(clean_calls, 6);
  EXPECT_GT(crashed_calls, 6);
  ASSERT_EQ(clean.size(), crashed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&clean[i].position, &crashed[i].position,
                             sizeof(clean[i].position)))
        << "position of particle " << i;
    EXPECT_EQ(0, std::memcmp(&clean[i].velocity, &crashed[i].velocity,
                             sizeof(clean[i].velocity)))
        << "velocity of particle " << i;
    EXPECT_EQ(0, std::memcmp(&clean[i].acceleration, &crashed[i].acceleration,
                             sizeof(clean[i].acceleration)))
        << "acceleration of particle " << i;
    EXPECT_EQ(0, std::memcmp(&clean[i].potential, &crashed[i].potential,
                             sizeof(clean[i].potential)))
        << "potential of particle " << i;
  }
}

TEST(BatchEval, InteractionCountersMatchAcrossKernels) {
  // Both kernels make the same pruning decisions, so the recorded
  // pp/pn interaction counts must be identical.
  rts::Runtime rt({2, 1});
  auto count = [&](EvalKernel kernel) {
    Observability ob;
    runGravity<OctTreeType, GravityVisitor>(rt, gravConfig(),
                                            TraversalStyle::kTransposed, kernel,
                                            ob.handle());
    return std::pair{ob.metrics.counter("traversal.interactions.pp").value(),
                     ob.metrics.counter("traversal.interactions.pn").value()};
  };
  const auto [vpp, vpn] = count(EvalKernel::kVisitor);
  const auto [bpp, bpn] = count(EvalKernel::kBatched);
  EXPECT_GT(vpp, 0u);
  EXPECT_GT(vpn, 0u);
  EXPECT_EQ(vpp, bpp);
  EXPECT_EQ(vpn, bpn);
}

/// `n` node summaries of small random clumps, all on the +x side of the
/// unit cube about the origin so that no force sum cancels.
std::vector<CentroidData> clumpNodes(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<CentroidData> nodes;
  for (int k = 0; k < n; ++k) {
    const Vec3 centre(rng.uniform(2.0, 5.0), rng.uniform(-2.0, 2.0),
                      rng.uniform(-2.0, 2.0));
    std::vector<Particle> ps(5);
    for (auto& p : ps) {
      p.position = centre + Vec3(rng.uniform(-0.3, 0.3),
                                 rng.uniform(-0.3, 0.3),
                                 rng.uniform(-0.3, 0.3));
      p.mass = rng.uniform(0.1, 1.0);
    }
    nodes.emplace_back(ps.data(), static_cast<int>(ps.size()));
  }
  return nodes;
}

TEST(GravityNodeBatch, MatchesPerNodeCalls) {
  // Node counts straddle the 8-wide lanes (7, 8, 9) and the 64-node
  // derived block (65); the zero-mass summary is an empty node.
  std::vector<Particle> bucket = makeParticles(uniformCube(13, 5));
  for (auto& p : bucket) p.position = p.position - Vec3(0.5);
  const OrientedBox box{Vec3(-0.5), Vec3(0.5)};
  const int n_bucket = static_cast<int>(bucket.size());
  for (const int n : {0, 1, 7, 8, 9, 65}) {
    for (const bool quadrupole : {true, false}) {
      for (const double G : {1.0, 4.3}) {
        for (const bool with_empty : {false, true}) {
          if (with_empty && n == 0) continue;
          auto nodes = clumpNodes(n, static_cast<std::uint64_t>(n) + 11);
          if (with_empty) {
            nodes[static_cast<std::size_t>(n / 2)] = CentroidData{};
          }
          GravityVisitor v;
          v.params.use_quadrupole = quadrupole;
          v.params.G = G;
          auto batched = bucket;
          auto reference = bucket;
          CentroidData tdata;
          SpatialNode<CentroidData> batch_target(tdata, box, keys::kRoot,
                                                 n_bucket, batched.data());
          evalNodes(v, nodes.data(), n, batch_target);
          SpatialNode<CentroidData> ref_target(tdata, box, keys::kRoot,
                                               n_bucket, reference.data());
          for (const auto& d : nodes) {
            v.node(SpatialNode<CentroidData>(d, box, keys::kRoot, 0, nullptr),
                   ref_target);
          }
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " quadrupole=" << quadrupole
                       << " G=" << G << " with_empty=" << with_empty);
          expectCloseResults(reference, batched, 1e-12);
        }
      }
    }
  }
}

/// The hand-written 8-lane gravity kernels that the lane evaluator
/// replaced, copied verbatim (bar their SIMD-clone attribute: with
/// -ffp-contract=off every clone computes the same bits). The oracle the
/// term protocol is pinned to bitwise.
namespace oracle {

struct SoaTargets {
  const double* x{nullptr};
  const double* y{nullptr};
  const double* z{nullptr};
  const double* order{nullptr};
  int n{0};
};

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

struct MultipoleBlock {
  static constexpr int kSize = 64;
  double cx[kSize], cy[kSize], cz[kSize], gm[kSize];
  double qxx[kSize], qxy[kSize], qxz[kSize], qyy[kSize], qyz[kSize],
      qzz[kSize];

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

inline void gravApproxBatch(const CentroidData* nodes, int n,
                            const SoaTargets& tgt, const GravityParams& params,
                            SpatialNode<CentroidData>& target) {
  const double eps2 = params.softening * params.softening;
  MultipoleBlock block{};
  for (int base = 0; base < n; base += MultipoleBlock::kSize) {
    const int m = std::min(n - base, MultipoleBlock::kSize);
    for (int k = 0; k < m; ++k) block.set(k, nodes[base + k], params.G);
    if (params.use_quadrupole) {
      approxBlock<true>(block, m, tgt, eps2, target);
    } else {
      approxBlock<false>(block, m, tgt, eps2, target);
    }
  }
}

}  // namespace oracle

TEST(GravityNodeBatch, LaneEvaluatorMatchesHandWrittenKernelsBitwise) {
  // Counts straddle the 8-wide lanes (7, 8, 9), the 64-node block (63,
  // 64, 65) and two blocks (130). The bucket's own particles lead the
  // sources, so the self mask is exercised.
  std::vector<Particle> bucket = makeParticles(uniformCube(13, 5));
  Rng rng(29);
  for (auto& p : bucket) {
    p.position = p.position - Vec3(0.5);
    p.acceleration = Vec3(rng.uniform(), rng.uniform(), rng.uniform());
    p.potential = rng.uniform();
  }
  std::vector<double> x, y, z, order;
  for (const auto& p : bucket) {
    x.push_back(p.position.x);
    y.push_back(p.position.y);
    z.push_back(p.position.z);
    order.push_back(static_cast<double>(p.order));
  }
  const int n_bucket = static_cast<int>(bucket.size());
  const oracle::SoaTargets tgt{x.data(), y.data(), z.data(), order.data(),
                               n_bucket};
  const OrientedBox box{Vec3(-0.5), Vec3(0.5)};
  auto expectSameBits = [&](const std::vector<Particle>& a,
                            const std::vector<Particle>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&a[i].acceleration, &b[i].acceleration,
                               sizeof(a[i].acceleration)))
          << "particle " << i;
      EXPECT_EQ(0, std::memcmp(&a[i].potential, &b[i].potential,
                               sizeof(a[i].potential)))
          << "particle " << i;
    }
  };
  for (const int n : {0, 1, 7, 8, 9, 63, 64, 65, 130}) {
    std::vector<Particle> sources =
        makeParticles(uniformCube(static_cast<std::size_t>(n), n + 3));
    for (std::size_t j = 0; j < sources.size(); ++j) {
      sources[j].order += n_bucket;
      if (j < bucket.size()) sources[j] = bucket[j];
    }
    std::vector<double> sx, sy, sz, sm, so;
    for (const auto& p : sources) {
      sx.push_back(p.position.x);
      sy.push_back(p.position.y);
      sz.push_back(p.position.z);
      sm.push_back(p.mass);
      so.push_back(static_cast<double>(p.order));
    }
    const SoaSources src{sx.data(), sy.data(), sz.data(),
                         sm.data(), so.data(), n};
    for (const bool quadrupole : {true, false}) {
      for (const double G : {1.0, 4.3}) {
        for (const bool with_empty : {false, true}) {
          if (with_empty && n == 0) continue;
          auto nodes = clumpNodes(n, static_cast<std::uint64_t>(n) + 11);
          if (with_empty) {
            nodes[static_cast<std::size_t>(n / 2)] = CentroidData{};
          }
          GravityVisitor v;
          v.params.use_quadrupole = quadrupole;
          v.params.G = G;
          v.params.softening = 1e-3;
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " quadrupole=" << quadrupole
                       << " G=" << G << " with_empty=" << with_empty);
          auto want = bucket;
          auto got = bucket;
          CentroidData tdata;
          SpatialNode<CentroidData> want_target(tdata, box, keys::kRoot,
                                                n_bucket, want.data());
          SpatialNode<CentroidData> got_target(tdata, box, keys::kRoot,
                                               n_bucket, got.data());
          oracle::gravApproxBatch(nodes.data(), n, tgt, v.params, want_target);
          evalNodes(v, nodes.data(), n, got_target);
          expectSameBits(want, got);
          oracle::gravExactBatch(src, tgt, v.params, want_target);
          evalPairs(v, src, got_target);
          expectSameBits(want, got);
        }
      }
    }
  }
}

TEST(BatchEval, CoincidentBodiesAgreeAcrossKernels) {
  // Two distinct bodies at one point: each feels the other's softened
  // -G m / eps. Both kernels mask self by identity, so neither drops the
  // partner as a zero-distance pair.
  auto particles = makeParticles(uniformCube(200, 17));
  particles[1].position = particles[0].position;
  auto run = [&](EvalKernel kernel, double theta) {
    rts::Runtime rt({1, 1});
    Configuration conf;
    conf.min_partitions = 1;
    conf.min_subtrees = 1;
    conf.bucket_size = 8;
    Forest<CentroidData, OctTreeType> forest(rt, conf);
    forest.load(particles);
    forest.decompose();
    forest.build();
    GravityVisitor v;
    v.params.softening = 0.01;
    v.params.theta = theta;
    forest.traverse<GravityVisitor>(v, TraversalStyle::kTransposed, kernel);
    return forest.collect();
  };
  expectCloseResults(run(EvalKernel::kVisitor, 0.7),
                     run(EvalKernel::kBatched, 0.7), 1e-12);
  // Opening everything makes both kernels a direct sum; compare it with
  // one written here that skips only the body itself.
  std::vector<double> phi(particles.size(), 0.0);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    for (std::size_t j = 0; j < particles.size(); ++j) {
      if (i == j) continue;
      const double r2 =
          (particles[i].position - particles[j].position).lengthSquared() +
          0.01 * 0.01;
      phi[i] -= particles[j].mass / std::sqrt(r2);
    }
  }
  EXPECT_LT(phi[0], -particles[1].mass / 0.01);
  for (const EvalKernel kernel : {EvalKernel::kVisitor, EvalKernel::kBatched}) {
    const auto got = run(kernel, 1e-6);
    for (const auto& p : got) {
      const auto i = static_cast<std::size_t>(p.order);
      EXPECT_NEAR(p.potential, phi[i], 1e-12 * std::abs(phi[i]))
          << "particle " << i;
    }
  }
}

TEST(GravityNodeBatch, BatchedTraversalIsBitwiseRepeatable) {
  // The vectorized kernels' lane sums are reduced in a fixed order, so on
  // the deterministic configuration two batched runs agree bitwise.
  rts::Runtime rt({2, 1});
  const auto a = runGravity<KdTreeType, GravityVisitor>(
      rt, bitwiseConfig(), TraversalStyle::kTransposed, EvalKernel::kBatched,
      {}, 600);
  const auto b = runGravity<KdTreeType, GravityVisitor>(
      rt, bitwiseConfig(), TraversalStyle::kTransposed, EvalKernel::kBatched,
      {}, 600);
  expectBitwiseResults(a, b);
}

}  // namespace
}  // namespace paratreet
