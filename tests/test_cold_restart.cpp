// Cold-restart acceptance suite: kill -9 the ENTIRE job mid-run — every
// rank, not one — relaunch with --resume, and the physics must finish
// bitwise-identical to an uninterrupted run. The child job runs in a
// forked process group so SIGKILL reaches TCP rank grandchildren too;
// the parent polls the checkpoint directory for a mid-run generation,
// nukes the group, then resumes in-process and diffs against the
// fault-free reference. The seeded torn-write fault proves the fallback
// chain end to end: the newest on-disk generation is always damaged, so
// resume must detect it by CRC and restore the older sibling.
//
// The gravity setup reuses the bitwise-reproducible kd config from
// test_chaos.cpp / test_checkpoint.cpp: two Subtrees and two Partitions
// on 2 procs x 1 worker, fetch_depth shipping a whole remote subtree.
//
// The kill-9 tests fork a child that builds a full Runtime (threads, and
// over tcp, rank processes); TSan's shadow state does not survive
// fork-from-instrumented, so they GTEST_SKIP under TSan like the
// transport suite does.

#include <gtest/gtest.h>
#include <signal.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "core/driver.hpp"
#include "observability/report.hpp"
#include "rts/checkpoint.hpp"

#if defined(__SANITIZE_THREAD__)
#define PARATREET_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARATREET_TSAN 1
#endif
#endif
#ifndef PARATREET_TSAN
#define PARATREET_TSAN 0
#endif

#define SKIP_UNDER_TSAN()                                                   \
  do {                                                                      \
    if (PARATREET_TSAN) {                                                   \
      GTEST_SKIP() << "kill-9 tests fork a full job, which TSan cannot "    \
                      "follow; the CI cold-restart job covers this config"; \
    }                                                                       \
  } while (0)

namespace paratreet {
namespace {

// --- filesystem helpers ----------------------------------------------------

std::vector<std::string> listDir(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

void removeAll(const std::string& path) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    for (const auto& name : listDir(path)) removeAll(path + "/" + name);
    ::rmdir(path.c_str());
  } else {
    ::unlink(path.c_str());
  }
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/paratreet_cold_XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() { removeAll(path); }
};

bool pathExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Names under `dir` matching ckpt_<step> finals; .tmp never qualifies.
std::vector<std::string> generationDirs(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& name : listDir(dir)) {
    if (name.rfind("ckpt_", 0) == 0 &&
        name.find(".tmp") == std::string::npos) {
      out.push_back(name);
    }
  }
  return out;
}

// --- the gravity job -------------------------------------------------------

/// Multi-step leapfrog gravity on the bitwise-reproducible kd config;
/// `overrides` carries the durable checkpoint knobs under test.
class ColdGravity : public Driver<CentroidData, KdTreeType> {
 public:
  Configuration overrides;
  int steps = 12;
  int bucket = 16;

  void configure(Configuration& conf) override {
    conf = overrides;
    conf.tree_type = TreeType::eKd;
    conf.decomp_type = DecompType::eKd;
    conf.min_subtrees = 2;
    conf.min_partitions = 2;
    conf.bucket_size = bucket;
    conf.fetch_depth = 32;
    conf.num_iterations = steps;
  }
  void traversal(int) override { startDown<GravityVisitor>(); }
  void postTraversal(int) override {
    forest().forEachParticle([](Particle& p) {
      p.velocity += p.acceleration * 1e-3;
      p.position += p.velocity * 1e-3;
    });
  }
};

constexpr std::size_t kParticles = 1200;
constexpr int kSteps = 12;

struct RunResult {
  std::vector<Particle> particles;
  bool resumed = false;
  int resumed_from = 0;
  int skipped = 0;
  std::string diagnostic;
};

RunResult runCold(Configuration overrides,
                  rts::TransportConfig transport = {},
                  Instrumentation instr = {}, int bucket = 16) {
  rts::Runtime::Config rc;
  rc.n_procs = 2;
  rc.workers_per_proc = 1;
  rc.transport = transport;
  rts::Runtime rt(rc);
  ColdGravity app;
  overrides.transport = transport;
  app.overrides = std::move(overrides);
  app.steps = kSteps;
  app.bucket = bucket;
  app.run(rt, makeParticles(uniformCube(kParticles, 77)), instr);
  return {app.forest().collect(), app.resumed(), app.resumedFromStep(),
          app.resumeGenerationsSkipped(), app.resumeDiagnostic()};
}

Configuration durableEveryTwo(const std::string& dir) {
  Configuration conf;
  conf.checkpoint_every = 2;  // generations sealed after steps 1, 3, 5, ...
  conf.checkpoint_dir = dir;
  conf.checkpoint_keep = 2;
  return conf;
}

rts::TransportConfig tcpConfig() {
  rts::TransportConfig t;
  t.kind = rts::TransportKind::kTcp;
  return t;
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

// --- kill -9 the whole job -------------------------------------------------

/// Fork a child that runs the checkpointed job as its own process group
/// (so TCP rank grandchildren share the pgid), wait for `dir/ckpt_3` to
/// land on disk, then SIGKILL the entire group mid-run. Returns the
/// child's wait status.
int runAndKillWholeJob(const std::string& dir,
                       const rts::TransportConfig& transport) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // New process group: kill(-pgid) must reach every rank process this
    // Runtime forks, exactly like killing a terminal job with ^C twice.
    ::setpgid(0, 0);
    try {
      runCold(durableEveryTwo(dir), transport);
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }
  EXPECT_GT(pid, 0);
  ::setpgid(pid, pid);  // parent's side of the race; EACCES after exec is ok

  // Wait for a mid-run generation to be renamed in. The rename is the
  // commit point, so an existing ckpt_3 is loadable no matter where the
  // kill lands afterwards.
  const std::string probe = dir + "/ckpt_3";
  bool died_early = false;
  int status = 0;
  for (int i = 0; i < 60000 && !pathExists(probe); ++i) {
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      died_early = true;
      break;
    }
    ::usleep(2000);
  }
  if (!died_early) {
    EXPECT_TRUE(pathExists(probe)) << "job never reached checkpoint step 3";
    ::kill(-pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  EXPECT_FALSE(died_early && WIFEXITED(status) && WEXITSTATUS(status) == 3)
      << "child job threw instead of being killed";
  return status;
}

void killNineThenResume(const rts::TransportConfig& transport) {
  TempDir tmp;
  const std::string dir = tmp.path + "/ckpt";
  const RunResult reference = runCold(Configuration{}, transport);

  const int status = runAndKillWholeJob(dir, transport);
  // The whole tree died by SIGKILL — nothing flushed, nothing exited
  // cleanly. (A machine fast enough to finish all 12 steps before the
  // kill still exercises resume below, but the common path is the kill.)
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
  }

  Configuration conf = durableEveryTwo(dir);
  conf.resume = true;
  const RunResult resumed = runCold(conf, transport);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_GE(resumed.resumed_from, -1);
  expectBitwiseEqual(reference.particles, resumed.particles);

  // Retention held through kill, sweep, and the resumed run's own
  // checkpoints: at most keep finals at rest, and no .tmp debris.
  EXPECT_LE(generationDirs(dir).size(), 2u);
  for (const auto& name : listDir(dir)) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(ColdRestart, KillNineWholeJobThenResumeMatchesBitwiseInproc) {
  SKIP_UNDER_TSAN();
  killNineThenResume(rts::TransportConfig{});
}

TEST(ColdRestart, KillNineWholeJobThenResumeMatchesBitwiseTcp) {
  SKIP_UNDER_TSAN();
  killNineThenResume(tcpConfig());
}

// --- torn-write fallback, no fork needed -----------------------------------

TEST(ColdRestart, TornNewestGenerationFallsBackToOlderAndMatchesBitwise) {
  TempDir tmp;
  const std::string dir = tmp.path + "/ckpt";
  const RunResult reference = runCold(Configuration{});

  // Full run with the seeded fault: every persist leaves the NEWEST
  // on-disk generation torn and repairs the previously torn one. The
  // last sealed step of a 12-step run is 9 (the final iteration never
  // checkpoints), so the final disk state is ckpt_7 intact, ckpt_9
  // damaged — regardless of where a kill would have landed.
  Configuration writer = durableEveryTwo(dir);
  writer.fault.torn_write = true;
  runCold(writer);
  ASSERT_EQ(generationDirs(dir).size(), 2u);

  Configuration conf = durableEveryTwo(dir);
  conf.resume = true;
  const RunResult resumed = runCold(conf);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from, 7);
  EXPECT_EQ(resumed.skipped, 1);
  EXPECT_NE(resumed.diagnostic.find("ckpt_9"), std::string::npos)
      << resumed.diagnostic;
  expectBitwiseEqual(reference.particles, resumed.particles);
}

// --- resume edge cases -----------------------------------------------------

TEST(ColdRestart, ResumeWithEmptyDirectoryStartsFresh) {
  TempDir tmp;
  const RunResult reference = runCold(Configuration{});
  Configuration conf = durableEveryTwo(tmp.path + "/virgin");
  conf.resume = true;  // nothing on disk: safe to pass unconditionally
  const RunResult fresh = runCold(conf);
  EXPECT_FALSE(fresh.resumed);
  expectBitwiseEqual(reference.particles, fresh.particles);
}

TEST(ColdRestart, ResumeRejectsAStateShapingConfigChange) {
  TempDir tmp;
  const std::string dir = tmp.path + "/ckpt";
  runCold(durableEveryTwo(dir));
  Configuration conf = durableEveryTwo(dir);
  conf.resume = true;
  // A different bucket size reshapes the tree: restoring those chunks
  // would silently diverge, so resume must refuse, loudly.
  try {
    runCold(conf, rts::TransportConfig{}, Instrumentation{}, /*bucket=*/24);
    FAIL() << "expected resume to reject a config-hash mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hash mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(ColdRestart, ResumedRunCountsAColdRestartAndPersistBytes) {
  TempDir tmp;
  const std::string dir = tmp.path + "/ckpt";
  {
    Observability ob;
    runCold(durableEveryTwo(dir), rts::TransportConfig{}, ob.handle());
    EXPECT_GT(ob.handle().metrics->counter("checkpoint.disk_bytes").value(),
              0u);
    EXPECT_EQ(ob.handle().metrics->counter("recovery.cold_restarts").value(),
              0u);
  }
  Observability ob;
  Configuration conf = durableEveryTwo(dir);
  conf.resume = true;
  runCold(conf, rts::TransportConfig{}, ob.handle());
  EXPECT_EQ(ob.handle().metrics->counter("recovery.cold_restarts").value(),
            1u);
}

TEST(ColdRestart, UninterruptedRunRetainsExactlyKeepGenerations) {
  TempDir tmp;
  const std::string dir = tmp.path + "/ckpt";
  runCold(durableEveryTwo(dir));
  // Steps -1 (baseline), 1, 3, 5, 7, 9 were persisted (the final
  // iteration never checkpoints); keep=2 leaves the newest two at rest.
  const auto gens = generationDirs(dir);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], "ckpt_7");
  EXPECT_EQ(gens[1], "ckpt_9");
}

}  // namespace
}  // namespace paratreet
