// Persistence overlapped with the next step: Driver::run() hands each
// sealed generation to one background DurableStore::persist and waits for
// it at the next checkpoint. These tests pin what that must not change:
// chunks.bin holds the chunks back to back under the same whole-file CRC,
// the newest generation on disk is the last checkpointed step once run()
// returns, nothing but ckpt_<step>/ directories is written, and a failed
// background write surfaces as an exception from run() with no thread
// left behind.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "core/driver.hpp"
#include "core/serialization.hpp"
#include "rts/checkpoint.hpp"
#include "util/crc32c.hpp"

namespace paratreet {
namespace {

namespace fs = std::filesystem;

/// A scratch directory per test, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/paratreet_overlap_XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<std::byte> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  return {p, p + text.size()};
}

/// The hex value of MANIFEST's `file_crc` line.
std::uint32_t manifestFileCrc(const std::string& gen_dir) {
  std::ifstream in(gen_dir + "/MANIFEST");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key, hex;
    fields >> key >> hex;
    if (key == "file_crc") {
      return static_cast<std::uint32_t>(std::stoul(hex, nullptr, 16));
    }
  }
  ADD_FAILURE() << "no file_crc line in " << gen_dir << "/MANIFEST";
  return 0;
}

/// Threads of this process, from /proc/self/status.
int threadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(DurablePersist, ChunksBinIsTheChunksBackToBack) {
  TempDir tmp;
  rts::DurableStore::Options opts;
  opts.dir = tmp.path;
  rts::DurableStore store;
  store.open(opts);
  std::vector<Particle> particles(5);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    particles[i].order = static_cast<std::int32_t>(i);
    particles[i].mass = 1.0 + static_cast<double>(i);
  }
  const std::vector<std::vector<std::byte>> chunks = {
      {},
      serializeCheckpointChunk(2, 0, particles),
      {},
      {},
      serializeCheckpointChunk(
          2, 1, std::vector<Particle>(particles.begin(), particles.begin() + 2)),
      {}};
  std::vector<std::byte> concatenated;
  for (const auto& c : chunks) {
    concatenated.insert(concatenated.end(), c.begin(), c.end());
  }
  const std::uint64_t written = store.persist(2, chunks, 7);

  const std::string gen = tmp.path + "/ckpt_2";
  EXPECT_EQ(readFile(gen + "/chunks.bin"), concatenated);
  EXPECT_EQ(manifestFileCrc(gen),
            util::crc32c(concatenated.data(), concatenated.size()));
  EXPECT_EQ(written, concatenated.size() + fs::file_size(gen + "/MANIFEST"));
  const auto rec = store.loadNewestVerified();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->chunks, chunks);
}

struct AppAbort {};

/// Checkpointed gravity on 2 procs; `sabotage_at` >= 0 replaces the
/// checkpoint directory with a plain file after that iteration's
/// traversal, so the background persist of a later generation fails;
/// `abort_at` >= 0 throws AppAbort out of that iteration's traversal hook.
class OverlapGravity : public Driver<CentroidData, OctTreeType> {
 public:
  std::string dir;
  int sabotage_at = -1;
  int abort_at = -1;

  void configure(Configuration& conf) override {
    conf.num_iterations = 6;
    conf.checkpoint_every = 1;
    conf.checkpoint_dir = dir;
    conf.checkpoint_keep = 2;
  }
  void traversal(int iter) override {
    if (iter == abort_at) throw AppAbort{};
    startDown<GravityVisitor>();
  }
  void postTraversal(int iter) override {
    if (iter != sabotage_at) return;
    // A rename is atomic, so a write in flight sees either the directory
    // or the file, never a half-removed tree.
    fs::rename(dir, dir + ".moved");
    std::ofstream(dir) << "not a directory\n";
  }
};

/// The generation run() left on disk must be `step`, verified, with its
/// predecessor retained, and only ckpt_<step>/ directories written: no
/// snapshot export.
void expectNewestOnDisk(OverlapGravity& app, int step) {
  Configuration conf;
  app.configure(conf);
  rts::DurableStore::Options opts;
  opts.dir = app.dir;
  opts.config_hash = conf.compatibilityHash(1000);
  rts::DurableStore store;
  store.open(opts);
  const auto rec = store.loadNewestVerified();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->step, step);
  EXPECT_EQ(rec->generations_skipped, 0);
  EXPECT_EQ(store.generationSteps(), (std::vector<int>{step - 1, step}));
  for (const auto& entry : fs::directory_iterator(app.dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.rfind("ckpt_", 0), 0u) << name;
    EXPECT_EQ(name.find(".snap"), std::string::npos) << name;
  }
}

TEST(OverlappedPersist, NewestGenerationIsTheLastCheckpointedStep) {
  TempDir tmp;
  rts::Runtime rt({2, 1});
  OverlapGravity app;
  app.dir = tmp.path + "/ckpt";
  app.run(rt, makeParticles(uniformCube(1000, 5)));
  // The final iteration never checkpoints: the last generation is step 4,
  // and run() returned only after its write landed.
  expectNewestOnDisk(app, 4);
}

TEST(OverlappedPersist, AnExceptionOutOfRunStillFinishesTheWriteInFlight) {
  TempDir tmp;
  rts::Runtime rt({2, 1});
  OverlapGravity app;
  app.dir = tmp.path + "/ckpt";
  app.abort_at = 3;
  const int threads_before = threadCount();
  EXPECT_THROW(app.run(rt, makeParticles(uniformCube(1000, 5))), AppAbort);
  EXPECT_EQ(threadCount(), threads_before);
  expectNewestOnDisk(app, 2);
}

TEST(OverlappedPersist, FailedBackgroundWriteThrowsFromRunAndLeavesNoThread) {
  TempDir tmp;
  rts::Runtime rt({2, 1});
  OverlapGravity app;
  app.dir = tmp.path + "/ckpt";
  // Step 4 is the last checkpoint, so its failed write can surface only
  // from run()'s final wait (or, if step 3's write was still in flight
  // at the sabotage, from the wait at checkpoint 4).
  app.sabotage_at = 4;
  const int threads_before = threadCount();
  try {
    app.run(rt, makeParticles(uniformCube(1000, 5)));
    FAIL() << "run() finished although the checkpoint directory vanished";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("DurableStore"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(threadCount(), threads_before);
}

}  // namespace
}  // namespace paratreet
