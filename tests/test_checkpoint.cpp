// Checkpoint/recovery acceptance suite: a rank crash mid-step with
// double in-memory checkpointing enabled must recover and finish with
// physics equal to the fault-free run — bitwise when the rank count is
// restored (RecoveryMode::kRestart), within 1e-12 when the run shrinks
// onto the survivors (kShrink). A crash with checkpointing disabled must
// surface as a thrown QuiescenceTimeout diagnostic, never a hang. The
// CheckpointStore's generation protocol (double buddy copies, last two
// sealed generations, unsealed-generation fallback) is unit-tested below.
//
// The gravity setup reuses test_chaos.cpp's bitwise-reproducible config:
// a binary kd-tree, two Subtrees and two Partitions on 2 procs x 1
// worker, fetch_depth shipping a whole remote subtree per fill.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "core/driver.hpp"
#include "observability/report.hpp"
#include "rts/checkpoint.hpp"

namespace paratreet {
namespace {

/// Multi-iteration leapfrog gravity on the bitwise-reproducible kd
/// config; `overrides` carries the checkpoint/fault knobs under test.
class CheckpointedGravity : public Driver<CentroidData, KdTreeType> {
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
  }
  void traversal(int) override {
    ++traversal_calls;
    startDown<GravityVisitor>();
  }
  void postTraversal(int) override {
    forest().forEachParticle([](Particle& p) {
      p.velocity += p.acceleration * 1e-3;
      p.position += p.velocity * 1e-3;
    });
  }
};

/// A crash schedule that kills rank 1 a few tasks into iteration 3, with
/// a watchdog deadline short enough to keep the suite fast.
Configuration crashAtIterThree() {
  Configuration conf;
  conf.fault.crash_step = 3;
  conf.fault.crash_rank = 1;
  conf.fault.crash_after_tasks = 3;
  conf.fault.drain_deadline_ms = 2000.0;
  return conf;
}

struct RunResult {
  std::vector<Particle> particles;
  int traversal_calls = 0;
};

RunResult runApp(Configuration overrides, Instrumentation instr = {}) {
  rts::Runtime rt({2, 1});
  CheckpointedGravity app;
  app.overrides = std::move(overrides);
  app.run(rt, makeParticles(uniformCube(600, 77)), instr);
  return {app.forest().collect(), app.traversal_calls};
}

void expectBitwiseEqual(const std::vector<Particle>& a,
                        const std::vector<Particle>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&a[i].position, &b[i].position,
                             sizeof(a[i].position)))
        << "position of particle " << i << " differs";
    EXPECT_EQ(0, std::memcmp(&a[i].velocity, &b[i].velocity,
                             sizeof(a[i].velocity)))
        << "velocity of particle " << i << " differs";
    EXPECT_EQ(0, std::memcmp(&a[i].acceleration, &b[i].acceleration,
                             sizeof(a[i].acceleration)))
        << "acceleration of particle " << i << " differs";
    EXPECT_EQ(0, std::memcmp(&a[i].potential, &b[i].potential,
                             sizeof(a[i].potential)))
        << "potential of particle " << i << " differs";
  }
}

void expectEqualWithin(const std::vector<Particle>& a,
                       const std::vector<Particle>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((a[i].position - b[i].position).length(), 0.0, tol)
        << "position of particle " << i;
    EXPECT_NEAR((a[i].velocity - b[i].velocity).length(), 0.0, tol)
        << "velocity of particle " << i;
    EXPECT_NEAR((a[i].acceleration - b[i].acceleration).length(), 0.0, tol)
        << "acceleration of particle " << i;
    EXPECT_NEAR(a[i].potential, b[i].potential, tol)
        << "potential of particle " << i;
  }
}

TEST(Recovery, CrashWithRestartRecoveryMatchesFaultFreeBitwise) {
  const RunResult clean = runApp(Configuration{});
  Configuration conf = crashAtIterThree();
  conf.checkpoint_every = 2;  // generations sealed after iterations 1, 3
  conf.recovery_mode = RecoveryMode::kRestart;
  const RunResult crashed = runApp(conf);
  // The crash at iteration 3 rewinds to the iteration-1 checkpoint, so
  // iterations 2 and 3 re-run: more traversals than the fault-free six.
  EXPECT_EQ(clean.traversal_calls, 6);
  EXPECT_GT(crashed.traversal_calls, 6);
  // Restart recovery restores the rank count, so re-decomposition and the
  // re-run iterations reproduce the fault-free accumulation order exactly.
  expectBitwiseEqual(clean.particles, crashed.particles);
}

TEST(Recovery, CrashWithShrinkRecoveryMatchesFaultFreeWithinTolerance) {
  const RunResult clean = runApp(Configuration{});
  Configuration conf = crashAtIterThree();
  conf.checkpoint_every = 2;
  conf.recovery_mode = RecoveryMode::kShrink;
  const RunResult crashed = runApp(conf);
  EXPECT_GT(crashed.traversal_calls, 6);
  // The survivors re-run on one rank: same physics, possibly different
  // floating-point accumulation order.
  expectEqualWithin(clean.particles, crashed.particles, 1e-12);
}

TEST(Recovery, CrashInFirstIterationRecoversFromBaselineCheckpoint) {
  const RunResult clean = runApp(Configuration{});
  Configuration conf = crashAtIterThree();
  conf.fault.crash_step = 0;  // before any periodic checkpoint sealed
  conf.checkpoint_every = 2;
  conf.recovery_mode = RecoveryMode::kRestart;
  const RunResult crashed = runApp(conf);
  // Only the step -1 baseline existed: the whole run restarts from the
  // initial conditions and still matches fault-free bitwise.
  expectBitwiseEqual(clean.particles, crashed.particles);
}

TEST(Recovery, CrashWithoutCheckpointingThrowsDiagnosticInsteadOfHanging) {
  rts::Runtime rt({2, 1});
  CheckpointedGravity app;
  app.overrides = crashAtIterThree();
  app.overrides.fault.drain_deadline_ms = 500.0;
  app.overrides.checkpoint_every = 0;  // disabled: the crash is fatal
  std::string diagnostic;
  try {
    app.run(rt, makeParticles(uniformCube(600, 77)));
    FAIL() << "run() returned despite an unrecoverable rank crash";
  } catch (const rts::QuiescenceTimeout& e) {
    diagnostic = e.what();
  }
  // The watchdog diagnostic names the dead rank and points at the fix.
  EXPECT_NE(diagnostic.find("rank-crash fault"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("checkpoint"), std::string::npos) << diagnostic;
  EXPECT_NE(diagnostic.find("CRASHED"), std::string::npos) << diagnostic;
  EXPECT_EQ(rt.crashedRanks(), std::vector<int>{1});
}

TEST(Recovery, FaultFreeRunsReportZeroedCheckpointCounters) {
  Observability ob;
  const RunResult clean = runApp(Configuration{}, ob.handle());
  EXPECT_EQ(clean.traversal_calls, 6);
  const auto* bytes = ob.metrics.findCounter("checkpoint.bytes");
  const auto* crashes = ob.metrics.findCounter("rts.crashes");
  ASSERT_NE(bytes, nullptr);
  ASSERT_NE(crashes, nullptr);
  EXPECT_EQ(bytes->value(), 0u);
  EXPECT_EQ(crashes->value(), 0u);
  EXPECT_EQ(ob.trace.totalSeconds("checkpoint"), 0.0);
  EXPECT_EQ(ob.trace.totalSeconds("recovery"), 0.0);
  EXPECT_EQ(ob.trace.totalCount("recovery"), 0u);
  // And the instruments land in the JSON report, still zero.
  const std::string json = obs::Reporter(ob.handle()).toJson();
  EXPECT_NE(json.find("\"checkpoint.bytes\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rts.crashes\":0"), std::string::npos) << json;
}

TEST(Recovery, CrashRunReportsCheckpointAndRecoveryActivity) {
  Observability ob;
  Configuration conf = crashAtIterThree();
  conf.checkpoint_every = 2;
  const RunResult crashed = runApp(conf, ob.handle());
  EXPECT_GT(crashed.traversal_calls, 6);
  const auto* bytes = ob.metrics.findCounter("checkpoint.bytes");
  const auto* crashes = ob.metrics.findCounter("rts.crashes");
  ASSERT_NE(bytes, nullptr);
  ASSERT_NE(crashes, nullptr);
  EXPECT_GT(bytes->value(), 0u);
  EXPECT_EQ(crashes->value(), 1u);
  EXPECT_GT(ob.trace.totalSeconds("checkpoint"), 0.0);
  EXPECT_GT(ob.trace.totalSeconds("recovery"), 0.0);
  EXPECT_EQ(ob.trace.totalCount("recovery"), 1u);
  // The recovery shows up as a "driver"-category span named "recovery",
  // and the crash as a "fault" event.
  bool saw_recovery = false, saw_crash_event = false;
  for (const auto& ev : ob.trace.snapshot()) {
    if (std::string_view(ev.name) == "recovery") saw_recovery = true;
    if (std::string_view(ev.name) == "rts.crash") saw_crash_event = true;
  }
  EXPECT_TRUE(saw_recovery);
  EXPECT_TRUE(saw_crash_event);
}

// --- CheckpointStore unit tests --------------------------------------------

std::vector<std::byte> tag(int rank, int step) {
  return {std::byte(0xA0 + rank), std::byte(0xB0 + step)};
}

TEST(CheckpointStore, BuddyIsNextLiveRankInRingOrder) {
  rts::Runtime rt({3, 1});
  rts::CheckpointStore store;
  store.init(&rt, nullptr);
  EXPECT_EQ(store.buddyOf(0), 1);
  EXPECT_EQ(store.buddyOf(1), 2);
  EXPECT_EQ(store.buddyOf(2), 0);
}

TEST(CheckpointStore, BuddyCopyRestoresChunksOfALostRank) {
  rts::Runtime rt({3, 1});
  rts::CheckpointStore store;
  store.init(&rt, nullptr);
  for (int r = 0; r < 3; ++r) store.commit(r, 0, tag(r, 0));
  rt.drain();  // buddy copies are runtime messages
  store.seal(0);
  ASSERT_TRUE(store.sealed(0));
  store.markLost(1);  // rank 1's own memory is gone
  EXPECT_EQ(store.latestRestorableStep(), 0);
  const auto chunks = store.assemble(0);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[1], tag(1, 0));  // served from rank 2's buddy copy
}

TEST(CheckpointStore, UnsealedGenerationFallsBackToPreviousSealed) {
  rts::Runtime rt({3, 1});
  rts::CheckpointStore store;
  store.init(&rt, nullptr);
  for (int r = 0; r < 3; ++r) store.commit(r, 0, tag(r, 0));
  rt.drain();
  store.seal(0);
  // Generation 1 commits but the crash lands before seal(1).
  for (int r = 0; r < 3; ++r) store.commit(r, 1, tag(r, 1));
  rt.drain();
  store.markLost(2);
  EXPECT_FALSE(store.sealed(1));
  EXPECT_EQ(store.latestRestorableStep(), 0);
  EXPECT_EQ(store.assemble(0)[2], tag(2, 0));
}

TEST(CheckpointStore, KeepsOnlyTheLastTwoSealedGenerations) {
  rts::Runtime rt({2, 1});
  rts::CheckpointStore store;
  store.init(&rt, nullptr);
  for (int step = 0; step < 3; ++step) {
    for (int r = 0; r < 2; ++r) store.commit(r, step, tag(r, step));
    rt.drain();
    store.seal(step);
  }
  EXPECT_FALSE(store.sealed(0));
  EXPECT_TRUE(store.sealed(1));
  EXPECT_TRUE(store.sealed(2));
  EXPECT_EQ(store.latestRestorableStep(), 2);
}

TEST(CheckpointStore, AdjacentDoubleFailureIsUnrecoverable) {
  rts::Runtime rt({3, 1});
  rts::CheckpointStore store;
  store.init(&rt, nullptr);
  for (int r = 0; r < 3; ++r) store.commit(r, 0, tag(r, 0));
  rt.drain();
  store.seal(0);
  // Rank 2's chunk lives on rank 2 (own) and rank 0 (buddy): losing both
  // adjacent ranks loses every copy, exactly as in the real protocol.
  store.markLost(2);
  store.markLost(0);
  EXPECT_EQ(store.latestRestorableStep(), rts::CheckpointStore::kNoStep);
  EXPECT_THROW(store.assemble(0), std::runtime_error);
}

}  // namespace
}  // namespace paratreet
