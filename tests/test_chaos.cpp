// Chaos suite: gravity traversals under injected transport/fetch faults
// must produce *identical physics* to the fault-free run and kNN
// traversals the same exact neighbour sets, the fault schedule must be
// deterministic per seed, and a genuinely dead network must become a
// thrown watchdog diagnostic instead of a hang.
//
// The gravity setup is chosen so the result is bitwise-reproducible, not
// just tolerance-equal: a binary kd-tree with exactly two Subtrees and
// one Partition per proc on 2 procs x 1 worker, and a fetch_depth that
// ships a whole remote subtree in one fill. Each Partition then pauses
// exactly once (on the single remote-subtree placeholder, which its
// proc's cache cannot have filled earlier for anyone else) and every
// bucket accumulates its sources in one deterministic order, no matter
// how fault injection reshuffles message timing. PARATREET_CHAOS_SEED
// overrides the schedule seed (the CI chaos job sweeps several).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "apps/sph/knn.hpp"
#include "core/forest.hpp"
#include "observability/report.hpp"
#include "rts/reliable.hpp"

namespace paratreet {
namespace {

std::uint64_t chaosSeed() {
  if (const char* env = std::getenv("PARATREET_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260806ull;
}

Configuration bitwiseConfig() {
  Configuration conf;
  conf.tree_type = TreeType::eKd;
  conf.decomp_type = DecompType::eKd;
  conf.min_subtrees = 2;  // one Subtree per proc: a single remote region
  // One Partition per proc: partitions on a proc share its cache, so a
  // second partition could find the remote subtree already filled by the
  // first's request and skip its pause — whether it does depends on fill
  // timing, which perturbs the accumulation order. A single requester per
  // cache always misses on first encounter: exactly one pause, always.
  conf.min_partitions = 2;
  conf.bucket_size = 16;
  conf.fetch_depth = 32;  // one fill ships the entire remote subtree
  return conf;
}

/// A seeded mixed schedule of drops, duplicates, delays and frame
/// corruption (the transport faults that preserve liveness under
/// reliable delivery: a corrupted copy is a detected drop).
rts::FaultConfig mixedSchedule(std::uint64_t seed) {
  rts::FaultConfig f;
  f.enabled = true;
  f.seed = seed;
  f.drop_p = 0.25;
  f.duplicate_p = 0.2;
  f.delay_p = 0.3;
  f.delay_min_us = 20.0;
  f.delay_max_us = 300.0;
  f.reorder_p = 0.15;
  f.corrupt_p = 0.1;
  f.drain_deadline_ms = 60000.0;  // a hang should fail fast, not time out CI
  return f;
}

struct ChaosRun {
  std::vector<Particle> particles;
  std::array<std::uint64_t, rts::kNumFaultKinds> fault_counts{};
  /// The last round's cache.misses, cache.fetch_retries and
  /// cache.degraded_reads (zero when no registry is attached).
  std::uint64_t misses = 0, fetch_retries = 0, degraded_reads = 0;
  std::uint64_t retries = 0;
  std::uint64_t dup_suppressed = 0;
};

ChaosRun runGravity(const rts::FaultConfig& fault,
                    Instrumentation instr = {},
                    EvalKernel kernel = EvalKernel::kVisitor) {
  rts::Runtime::Config rc;
  rc.n_procs = 2;
  rc.workers_per_proc = 1;
  rc.fault = fault;
  rts::Runtime rt(rc);
  if (instr.metrics != nullptr) rt.attachMetrics(instr.metrics);
  if (instr.trace != nullptr) rt.attachTrace(instr.trace);
  ChaosRun out;
  // One traversal of the bitwise config only puts a dozen-odd frames on
  // the wire — few enough that a whole fault kind can miss every draw
  // under an unlucky seed. Run several rounds (each rebuild flushes the
  // cache, so every round refetches over the transport) so the seeded
  // schedule gets enough draws for each enabled kind to fire.
  constexpr int kRounds = 6;
  const auto count = [&instr](const char* name) -> std::uint64_t {
    return instr.metrics != nullptr ? instr.metrics->counter(name).value() : 0;
  };
  {
    Forest<CentroidData, KdTreeType> forest(rt, bitwiseConfig(), instr);
    forest.load(makeParticles(uniformCube(600, 77)));
    forest.decompose();
    for (int round = 0; round < kRounds; ++round) {
      if (round > 0) forest.flush();  // rebuild and refetch from scratch
      if (round == kRounds - 1) {
        out.misses = count("cache.misses");
        out.fetch_retries = count("cache.fetch_retries");
        out.degraded_reads = count("cache.degraded_reads");
      }
      forest.build();
      forest.traverse<GravityVisitor>(GravityVisitor{},
                                      TraversalStyle::kTransposed, kernel);
    }
    out.particles = forest.collect();
    out.misses = count("cache.misses") - out.misses;
    out.fetch_retries = count("cache.fetch_retries") - out.fetch_retries;
    out.degraded_reads = count("cache.degraded_reads") - out.degraded_reads;
  }
  if (auto* inj = rt.faultInjector()) out.fault_counts = inj->counts();
  if (auto* rel = rt.reliableLayer()) {
    out.retries = rel->retries();
    out.dup_suppressed = rel->duplicatesSuppressed();
  }
  if (instr.metrics != nullptr) rt.attachMetrics(nullptr);
  if (instr.trace != nullptr) rt.attachTrace(nullptr);
  return out;
}

void expectBitwiseEqual(const std::vector<Particle>& a,
                        const std::vector<Particle>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&a[i].acceleration, &b[i].acceleration,
                             sizeof(a[i].acceleration)))
        << "acceleration of particle " << i << " differs: ("
        << a[i].acceleration.x << "," << a[i].acceleration.y << ","
        << a[i].acceleration.z << ") vs (" << b[i].acceleration.x << ","
        << b[i].acceleration.y << "," << b[i].acceleration.z << ")";
    EXPECT_EQ(0, std::memcmp(&a[i].potential, &b[i].potential,
                             sizeof(a[i].potential)))
        << "potential of particle " << i;
  }
}

TEST(Chaos, BitwiseIdenticalPhysicsUnderTransportFaults) {
  const ChaosRun clean = runGravity(rts::FaultConfig{});
  const ChaosRun faulty = runGravity(mixedSchedule(chaosSeed()));
  // The schedule must actually have injected something, and the reliable
  // layer must have had work to do.
  std::uint64_t injected = 0;
  for (const auto c : faulty.fault_counts) injected += c;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(faulty.fault_counts[static_cast<std::size_t>(
                rts::FaultKind::kDrop)],
            0u);
  EXPECT_GT(faulty.fault_counts[static_cast<std::size_t>(
                rts::FaultKind::kCorrupt)],
            0u);
  EXPECT_GT(faulty.retries, 0u);
  expectBitwiseEqual(clean.particles, faulty.particles);
}

TEST(Chaos, BatchedKernelBitwiseIdenticalUnderTransportFaults) {
  // The two-phase batched evaluator records interactions during the
  // (fault-perturbed) walk and evaluates them afterwards; the recorded
  // order is deterministic under the bitwise config, so injected faults
  // must not change a single bit of the physics here either.
  const ChaosRun clean =
      runGravity(rts::FaultConfig{}, {}, EvalKernel::kBatched);
  const ChaosRun faulty =
      runGravity(mixedSchedule(chaosSeed()), {}, EvalKernel::kBatched);
  std::uint64_t injected = 0;
  for (const auto c : faulty.fault_counts) injected += c;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(faulty.retries, 0u);
  expectBitwiseEqual(clean.particles, faulty.particles);
}

/// Every particle's k nearest neighbours, as (d2, order) pairs sorted by
/// distance, indexed by order.
using NeighborSets = std::vector<std::vector<std::pair<double, int>>>;

struct KnnRun {
  NeighborSets neighbors;
  std::array<std::uint64_t, rts::kNumFaultKinds> fault_counts{};
  std::uint64_t retries = 0;
};

constexpr int kKnnK = 8;

std::vector<Particle> knnParticles() {
  return makeParticles(clustered(3000, 83, 4, 0.1));
}

/// One kNN up-and-down traversal on 2 procs x 2 workers. Small buckets
/// and one level per fill give every Partition a seed walk of several
/// slices and many pauses, so slice tasks interleave with retransmits,
/// duplicates and delayed fills.
KnnRun runKnn(const rts::FaultConfig& fault) {
  rts::Runtime::Config rc;
  rc.n_procs = 2;
  rc.workers_per_proc = 2;
  rc.fault = fault;
  rts::Runtime rt(rc);
  Configuration conf;
  conf.min_partitions = 4;
  conf.min_subtrees = 4;
  conf.bucket_size = 8;
  conf.fetch_depth = 1;
  KnnRun out;
  {
    Forest<CentroidData, OctTreeType> forest(rt, conf);
    forest.load(knnParticles());
    forest.decompose();
    forest.build();
    NeighborStore store(forest.particleCount(), kKnnK);
    forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
    forest.traverseUpAndDown(KNearestVisitor<CentroidData>{&store});
    out.neighbors.resize(store.size());
    for (std::size_t order = 0; order < store.size(); ++order) {
      for (const auto& nb : store.neighbors(static_cast<int>(order))) {
        out.neighbors[order].push_back({nb.d2, nb.order});
      }
      std::sort(out.neighbors[order].begin(), out.neighbors[order].end());
    }
  }
  if (auto* inj = rt.faultInjector()) out.fault_counts = inj->counts();
  if (auto* rel = rt.reliableLayer()) out.retries = rel->retries();
  return out;
}

TEST(Chaos, KnnNeighborSetsExactUnderTransportFaults) {
  rts::FaultConfig fault = mixedSchedule(chaosSeed());
  fault.stall_p = 0.05;
  fault.stall_us = 50.0;
  const KnnRun clean = runKnn(rts::FaultConfig{});
  const KnnRun faulty = runKnn(fault);
  std::uint64_t injected = 0;
  for (const auto c : faulty.fault_counts) injected += c;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(faulty.fault_counts[static_cast<std::size_t>(
                rts::FaultKind::kDrop)],
            0u);
  EXPECT_GT(faulty.retries, 0u);

  const auto reference = knnParticles();
  ASSERT_EQ(clean.neighbors.size(), reference.size());
  ASSERT_EQ(faulty.neighbors.size(), reference.size());
  std::vector<std::pair<double, int>> all(reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    for (std::size_t j = 0; j < reference.size(); ++j) {
      all[j] = {distanceSquared(reference[j].position, reference[i].position),
                reference[j].order};
    }
    std::partial_sort(all.begin(), all.begin() + kKnnK, all.end());
    const std::vector<std::pair<double, int>> expected(all.begin(),
                                                       all.begin() + kKnnK);
    EXPECT_EQ(clean.neighbors[i], expected) << "order " << i;
    EXPECT_EQ(faulty.neighbors[i], clean.neighbors[i]) << "order " << i;
  }
}

TEST(Chaos, SameSeedInjectsSameFaultCounts) {
  // Drops + duplicates only, with a long ack timeout: no injected delay
  // ever outlives the backoff, so the (seq, attempt) decision streams —
  // and with them the injected-fault counts — are identical run to run.
  rts::FaultConfig f;
  f.enabled = true;
  f.seed = chaosSeed();
  f.drop_p = 0.3;
  f.duplicate_p = 0.25;
  f.retry_backoff_us = 20000.0;
  f.retry_backoff_cap_us = 40000.0;
  f.drain_deadline_ms = 60000.0;
  const ChaosRun first = runGravity(f);
  const ChaosRun second = runGravity(f);
  EXPECT_EQ(first.fault_counts, second.fault_counts);
  EXPECT_GT(first.fault_counts[static_cast<std::size_t>(
                rts::FaultKind::kDrop)],
            0u);
  expectBitwiseEqual(first.particles, second.particles);
}

TEST(Chaos, WatchdogThrowsDiagnosticOnTotalLoss) {
  rts::Runtime::Config rc;
  rc.n_procs = 2;
  rc.workers_per_proc = 1;
  rts::Runtime rt(rc);
  Forest<CentroidData, KdTreeType> forest(rt, bitwiseConfig());
  forest.load(makeParticles(uniformCube(400, 7)));
  forest.decompose();
  forest.build();  // fault-free; then the network "dies"
  rts::FaultConfig f;
  f.enabled = true;
  f.seed = chaosSeed();
  f.drop_p = 1.0;
  f.max_transport_retries = 1 << 30;  // never give up: a genuine hang
  f.retry_backoff_us = 200.0;
  f.retry_backoff_cap_us = 1000.0;
  f.drain_deadline_ms = 250.0;
  rt.configureFaults(f);
  std::string diagnostic;
  try {
    forest.traverse<GravityVisitor>(GravityVisitor{});
    FAIL() << "drain() returned despite a 100%-drop schedule";
  } catch (const rts::QuiescenceTimeout& e) {
    diagnostic = e.what();
  }
  EXPECT_NE(diagnostic.find("watchdog"), std::string::npos) << diagnostic;
  EXPECT_NE(diagnostic.find("pending"), std::string::npos) << diagnostic;
  EXPECT_NE(diagnostic.find("unacked"), std::string::npos) << diagnostic;
  EXPECT_NE(diagnostic.find("drop="), std::string::npos) << diagnostic;
  EXPECT_NE(diagnostic.find("last-task age"), std::string::npos) << diagnostic;
}

TEST(Chaos, FetchFailuresRetryThenDegrade) {
  // Every serve attempt fails: each logical fill burns its whole retry
  // budget and then falls back to a synchronous direct read — and the
  // physics still matches the fault-free run bitwise.
  rts::FaultConfig f;
  f.enabled = true;
  f.seed = chaosSeed();
  f.fetch_fail_p = 1.0;
  f.max_fetch_retries = 2;
  f.drain_deadline_ms = 60000.0;
  const ChaosRun clean = runGravity(rts::FaultConfig{});
  obs::MetricsRegistry counts;
  const ChaosRun degraded =
      runGravity(f, Instrumentation{nullptr, &counts, nullptr});
  EXPECT_GT(degraded.misses, 0u);
  EXPECT_EQ(degraded.degraded_reads, degraded.misses);
  EXPECT_EQ(degraded.fetch_retries, 2 * degraded.misses);
  EXPECT_GT(degraded.fault_counts[static_cast<std::size_t>(
                rts::FaultKind::kFetchFail)],
            0u);
  expectBitwiseEqual(clean.particles, degraded.particles);
}

TEST(Chaos, ExactlyOnceDeliveryUnderChaos) {
  rts::Runtime::Config rc;
  rc.n_procs = 4;
  rc.workers_per_proc = 2;
  rc.fault = mixedSchedule(chaosSeed());
  rc.fault.stall_p = 0.05;  // exercise dispatch stalls too
  rc.fault.stall_us = 50.0;
  rts::Runtime rt(rc);
  std::atomic<int> delivered{0};
  constexpr int kMessages = 400;
  for (int i = 0; i < kMessages; ++i) {
    rt.send(i % 4, (i + 1) % 4, 64,
            [&delivered] { delivered.fetch_add(1, std::memory_order_relaxed); });
  }
  rt.drain();
  EXPECT_EQ(delivered.load(), kMessages);
  auto* rel = rt.reliableLayer();
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->inflight(), 0u);
  auto* inj = rt.faultInjector();
  ASSERT_NE(inj, nullptr);
  EXPECT_GT(inj->count(rts::FaultKind::kDrop), 0u);
  EXPECT_GT(inj->count(rts::FaultKind::kDuplicate), 0u);
  EXPECT_GT(rel->duplicatesSuppressed(), 0u);
}

TEST(Chaos, FaultCountersReachTheMetricsReport) {
  Observability ob;
  const ChaosRun faulty =
      runGravity(mixedSchedule(chaosSeed()), ob.handle());
  const std::string json = obs::Reporter(ob.handle()).toJson();
  EXPECT_NE(json.find("\"schema\":\"paratreet.observability.v2\""),
            std::string::npos);
  const auto drops = faulty.fault_counts[static_cast<std::size_t>(
      rts::FaultKind::kDrop)];
  EXPECT_NE(json.find("\"rts.faults_injected.drop\":" +
                      std::to_string(drops)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rts.retries\":" + std::to_string(faulty.retries)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rts.dup_suppressed\":"), std::string::npos);
  EXPECT_NE(json.find("\"cache.degraded_reads\":0"), std::string::npos);
  // Fault events also land in the trace buffer as "fault"-category spans.
  bool saw_fault_span = false;
  for (const auto& ev : ob.handle().trace->snapshot()) {
    if (std::string_view(ev.category) == "fault") saw_fault_span = true;
  }
  EXPECT_TRUE(saw_fault_span);
}

TEST(Chaos, ZeroFaultRunsShowZeroedResilienceCounters) {
  // The acceptance contract for overhead: with FaultConfig disabled the
  // retry path is bypassed entirely (no injector, no reliable layer) and
  // every resilience counter reports exactly zero.
  Observability ob;
  rts::Runtime::Config rc;
  rc.n_procs = 2;
  rc.workers_per_proc = 1;
  rts::Runtime rt(rc);
  rt.attachMetrics(ob.handle().metrics);
  {
    Forest<CentroidData, KdTreeType> forest(rt, bitwiseConfig(), ob.handle());
    forest.load(makeParticles(uniformCube(600, 77)));
    forest.decompose();
    forest.build();
    forest.traverse<GravityVisitor>(GravityVisitor{});
    EXPECT_EQ(ob.metrics.counter("cache.degraded_reads").value(), 0u);
    EXPECT_EQ(ob.metrics.counter("cache.fetch_retries").value(), 0u);
  }
  EXPECT_EQ(rt.faultInjector(), nullptr);
  EXPECT_EQ(rt.reliableLayer(), nullptr);
  rt.attachMetrics(nullptr);
  const std::string json = obs::Reporter(ob.handle()).toJson();
  EXPECT_NE(json.find("\"rts.retries\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rts.undeliverable\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rts.dup_suppressed\":0"), std::string::npos);
  for (const char* kind : rts::kFaultKindNames) {
    EXPECT_NE(json.find("\"rts.faults_injected." + std::string(kind) +
                        "\":0"),
              std::string::npos)
        << kind;
  }
  EXPECT_NE(json.find("\"cache.degraded_reads\":0"), std::string::npos);
  EXPECT_NE(json.find("\"cache.fetch_retries\":0"), std::string::npos);
}

}  // namespace
}  // namespace paratreet
