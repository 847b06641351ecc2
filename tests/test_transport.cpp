// Transport suite: the rts::Transport seam under Runtime::send(). The
// frame codec must round-trip and reject corrupt frames with the same
// strictness as the snapshot loader; transport selection must validate
// and plumb like every other Configuration knob; the Message envelope and
// the legacy positional send() must both deliver; and the TCP backend —
// each logical rank a forked OS process confirming frames with receipts —
// must produce physics bitwise-identical to the in-process backend,
// survive the chaos schedule exactly-once, carry checkpoint buddy copies
// as real wire payloads, and feed a kill -9 of a live rank process into
// the PR-4 checkpoint recovery protocol unchanged.
//
// The gravity setup reuses the bitwise-reproducible kd config from
// test_chaos.cpp / test_checkpoint.cpp: two Subtrees and two Partitions
// on 2 procs x 1 worker, fetch_depth shipping a whole remote subtree.
//
// The TCP tests fork rank processes, which TSan cannot follow (the
// sanitizer's shadow state does not survive fork-from-multithreaded);
// they GTEST_SKIP under TSan and the CI TSan job stays on inproc.

#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "core/driver.hpp"
#include "rts/checkpoint.hpp"
#include "rts/runtime.hpp"
#include "rts/transport.hpp"

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

#define SKIP_UNDER_TSAN()                                                \
  do {                                                                   \
    if (PARATREET_TSAN) {                                                \
      GTEST_SKIP() << "tcp transport forks rank processes, which TSan "  \
                      "cannot follow; the CI TSan job runs inproc";      \
    }                                                                    \
  } while (0)

namespace paratreet {
namespace {

// --- frame codec -----------------------------------------------------------

rts::FrameHeader sampleHeader(std::uint32_t payload_bytes) {
  rts::FrameHeader h;
  h.kind = static_cast<std::uint16_t>(rts::MessageKind::kCheckpoint);
  h.from = 1;
  h.to = 0;
  h.payload_bytes = payload_bytes;
  h.seq = 0xDEADBEEFCAFEull;
  h.declared_bytes = std::uint64_t{1} << 22;  // modeled size > wire size
  return h;
}

TEST(FrameCodec, RoundTripPreservesHeaderAndPayload) {
  std::vector<std::byte> payload(48);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 7);
  }
  const rts::FrameHeader h = sampleHeader(48);
  const auto wire = rts::encodeFrame(h, payload.data(), payload.size());
  ASSERT_EQ(wire.size(), sizeof(rts::FrameHeader) + payload.size());

  const auto back =
      rts::decodeFrameHeader(wire.data(), wire.size(), 1u << 20);
  EXPECT_EQ(back.magic, rts::FrameHeader::kMagic);
  EXPECT_EQ(back.kind, h.kind);
  EXPECT_EQ(back.from, 1);
  EXPECT_EQ(back.to, 0);
  EXPECT_EQ(back.payload_bytes, 48u);
  EXPECT_EQ(back.seq, h.seq);
  EXPECT_EQ(back.declared_bytes, h.declared_bytes);
  EXPECT_EQ(0, std::memcmp(wire.data() + sizeof(rts::FrameHeader),
                           payload.data(), payload.size()));
}

TEST(FrameCodec, EncodeStampsACrcThatCoversHeaderAndPayload) {
  std::vector<std::byte> payload(64, std::byte{0x11});
  const auto wire =
      rts::encodeFrame(sampleHeader(64), payload.data(), payload.size());
  const auto h = rts::decodeFrameHeader(wire.data(), wire.size(), 1u << 20);
  EXPECT_NE(h.crc32c, 0u);
  EXPECT_TRUE(rts::frameCrcValid(h, wire.data() + sizeof(rts::FrameHeader),
                                 payload.size()));

  // One flipped payload bit breaks the checksum.
  auto flipped = wire;
  flipped[sizeof(rts::FrameHeader) + 17] ^= std::byte{0x04};
  EXPECT_FALSE(rts::frameCrcValid(
      h, flipped.data() + sizeof(rts::FrameHeader), payload.size()));

  // So does tampering with a header field the framing checks can't see
  // (seq): the CRC covers the metadata end-to-end, not just the payload.
  rts::FrameHeader tampered = h;
  tampered.seq ^= 1;
  EXPECT_FALSE(rts::frameCrcValid(
      tampered, wire.data() + sizeof(rts::FrameHeader), payload.size()));
}

TEST(FrameCodec, EncodeRejectsPayloadLengthMismatch) {
  std::vector<std::byte> payload(8);
  EXPECT_THROW(rts::encodeFrame(sampleHeader(16), payload.data(),
                                payload.size()),
               std::invalid_argument);
}

TEST(FrameCodec, DecodeRejectsTruncatedBuffer) {
  const auto wire = rts::encodeFrame(sampleHeader(0), nullptr, 0);
  try {
    rts::decodeFrameHeader(wire.data(), sizeof(rts::FrameHeader) - 1,
                           1u << 20);
    FAIL() << "truncated buffer decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("transport frame corrupt"),
              std::string::npos)
        << e.what();
  }
}

TEST(FrameCodec, DecodeRejectsBadMagic) {
  auto wire = rts::encodeFrame(sampleHeader(0), nullptr, 0);
  wire[0] = static_cast<std::byte>(0xFF);
  EXPECT_THROW(rts::decodeFrameHeader(wire.data(), wire.size(), 1u << 20),
               std::runtime_error);
}

TEST(FrameCodec, DecodeRejectsUnknownKind) {
  rts::FrameHeader h = sampleHeader(0);
  h.kind = static_cast<std::uint16_t>(rts::kNumMessageKinds);
  const auto wire = rts::encodeFrame(h, nullptr, 0);
  EXPECT_THROW(rts::decodeFrameHeader(wire.data(), wire.size(), 1u << 20),
               std::runtime_error);
}

TEST(FrameCodec, DecodeRejectsOversizedPayloadClaim) {
  std::vector<std::byte> payload(128);
  const auto wire = rts::encodeFrame(sampleHeader(128), payload.data(),
                                     payload.size());
  // A cap below the claimed payload marks the frame corrupt even though
  // the bytes are all present.
  EXPECT_THROW(rts::decodeFrameHeader(wire.data(), wire.size(), 64),
               std::runtime_error);
}

// --- configuration plumbing ------------------------------------------------

TEST(TransportConfigSuite, KindStringsRoundTrip) {
  EXPECT_EQ(rts::toString(rts::TransportKind::kInProc), "inproc");
  EXPECT_EQ(rts::toString(rts::TransportKind::kTcp), "tcp");
  rts::TransportKind k{};
  EXPECT_TRUE(rts::fromString("tcp", k));
  EXPECT_EQ(k, rts::TransportKind::kTcp);
  EXPECT_TRUE(rts::fromString("inproc", k));
  EXPECT_EQ(k, rts::TransportKind::kInProc);
  EXPECT_FALSE(rts::fromString("mpi", k));
  EXPECT_FALSE(rts::fromString("", k));
}

TEST(TransportConfigSuite, ValidateNamesTheOffendingField) {
  rts::TransportConfig t;
  EXPECT_EQ(t.validate(), "");

  t.port = 70000;
  EXPECT_NE(t.validate().find("port"), std::string::npos);

  t = {};
  t.host.clear();
  EXPECT_NE(t.validate().find("host"), std::string::npos);

  t = {};
  t.spawn_timeout_ms = 0.0;
  EXPECT_NE(t.validate().find("spawn_timeout_ms"), std::string::npos);

  t = {};
  t.max_frame_bytes = 16;
  EXPECT_NE(t.validate().find("max_frame_bytes"), std::string::npos);
}

TEST(TransportConfigSuite, ConfigurationValidateChainsTransportErrors) {
  Configuration conf;
  EXPECT_EQ(conf.validate(), "");
  conf.transport.port = -3;
  const std::string err = conf.validate();
  EXPECT_NE(err.find("Configuration.transport."), std::string::npos) << err;
  EXPECT_NE(err.find("port"), std::string::npos) << err;
}

TEST(TransportConfigSuite, MakeTransportBuildsTheSelectedBackend) {
  EXPECT_STREQ(rts::makeTransport({})->name(), "inproc");
  rts::TransportConfig t;
  t.kind = rts::TransportKind::kTcp;
  EXPECT_STREQ(rts::makeTransport(t)->name(), "tcp");
}

TEST(TransportConfigSuite, MakeTransportRejectsAnInvalidConfig) {
  rts::TransportConfig t;
  t.max_frame_bytes = 1;
  EXPECT_THROW(rts::makeTransport(t), std::invalid_argument);
}

// --- the Message envelope --------------------------------------------------

TEST(SendEnvelope, MessageAndLegacyOverloadBothDeliver) {
  obs::MetricsRegistry counts;  // declared first: outlives the runtime
  rts::Runtime rt({2, 1});
  rt.attachMetrics(&counts);
  std::atomic<int> envelope{0};
  std::atomic<int> legacy{0};

  rts::Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.bytes = 64;
  msg.kind = rts::MessageKind::kRequest;
  msg.on_receive = [&] { envelope.fetch_add(1); };
  rt.send(std::move(msg));
  rt.send(1, 0, 32, [&] { legacy.fetch_add(1); });
  rt.drain();

  EXPECT_EQ(envelope.load(), 1);
  EXPECT_EQ(legacy.load(), 1);
  EXPECT_EQ(counts.counter("rts.messages").value(), 2u);
  EXPECT_EQ(counts.counter("rts.message_bytes").value(), 96u);
}

TEST(SendEnvelope, SelfSendRunsOnTheSendersRank) {
  rts::Runtime rt({2, 1});
  std::atomic<int> proc_seen{-1};
  rts::Message msg;
  msg.from = 1;
  msg.to = 1;
  msg.bytes = 8;
  msg.on_receive = [&] { proc_seen = rts::Runtime::currentProc(); };
  rt.send(std::move(msg));
  rt.drain();
  EXPECT_EQ(proc_seen.load(), 1);
}

// --- gravity harness (bitwise-reproducible kd config) ----------------------

/// Multi-iteration leapfrog gravity; `overrides` carries the checkpoint /
/// fault knobs and — when kill_at_iteration >= 0 — the driver SIGKILLs
/// rank `kill_rank`'s OS process at the start of that traversal, faulting
/// a live rank for real rather than through the modeled crash schedule.
class TransportGravity : public Driver<CentroidData, KdTreeType> {
 public:
  Configuration overrides;
  int traversal_calls = 0;
  rts::Runtime* rt = nullptr;
  int kill_rank = -1;
  int kill_at_iteration = -1;
  bool killed = false;

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
  void traversal(int iter) override {
    ++traversal_calls;
    if (iter == kill_at_iteration && !killed) {
      killed = true;
      auto& tcp = dynamic_cast<rts::TcpTransport&>(rt->transport());
      const pid_t pid = tcp.rankPid(kill_rank);
      ASSERT_GT(pid, 0) << "rank " << kill_rank << " process already down";
      ASSERT_EQ(0, ::kill(pid, SIGKILL));
    }
    startDown<GravityVisitor>();
  }
  void postTraversal(int) override {
    forest().forEachParticle([](Particle& p) {
      p.velocity += p.acceleration * 1e-3;
      p.position += p.velocity * 1e-3;
    });
  }
};

struct RunResult {
  std::vector<Particle> particles;
  int traversal_calls = 0;
  std::uint64_t crashes = 0;
};

RunResult runGravity(Configuration overrides,
                     rts::TransportConfig transport = {}, int kill_rank = -1,
                     int kill_at_iteration = -1) {
  rts::Runtime::Config rc;
  rc.n_procs = 2;
  rc.workers_per_proc = 1;
  rc.transport = transport;
  rts::Runtime rt(rc);
  TransportGravity app;
  app.overrides = std::move(overrides);
  app.rt = &rt;
  app.kill_rank = kill_rank;
  app.kill_at_iteration = kill_at_iteration;
  app.run(rt, makeParticles(uniformCube(600, 77)));
  return {app.forest().collect(), app.traversal_calls, rt.crashCount()};
}

rts::TransportConfig tcpConfig() {
  rts::TransportConfig t;
  t.kind = rts::TransportKind::kTcp;
  return t;
}

/// The chaos suite's seeded mixed schedule of drops, duplicates, delays,
/// reorders and frame corruption — liveness-preserving under reliable
/// delivery (a corrupted frame is CRC-nacked and retransmitted).
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
  f.corrupt_p = 0.05;
  f.drain_deadline_ms = 60000.0;
  return f;
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

// --- inproc backend --------------------------------------------------------

TEST(InProc, IsTheDefaultBackendAndAlwaysReachable) {
  rts::Runtime rt({2, 1});
  EXPECT_STREQ(rt.transport().name(), "inproc");
  EXPECT_TRUE(rt.transport().rankReachable(0));
  EXPECT_TRUE(rt.transport().rankReachable(1));
}

TEST(InProc, GravityRunsAreBitwiseReproducible) {
  const RunResult a = runGravity(Configuration{});
  const RunResult b = runGravity(Configuration{});
  EXPECT_EQ(a.traversal_calls, 6);
  EXPECT_EQ(b.traversal_calls, 6);
  expectBitwiseEqual(a.particles, b.particles);
}

// --- tcp backend -----------------------------------------------------------

TEST(Tcp, DeliversFramesWithReceiptsAndReportsLiveness) {
  SKIP_UNDER_TSAN();
  rts::Runtime::Config rc;
  rc.n_procs = 2;
  rc.workers_per_proc = 1;
  rc.transport = tcpConfig();
  rts::Runtime rt(rc);

  auto& tcp = dynamic_cast<rts::TcpTransport&>(rt.transport());
  EXPECT_STREQ(tcp.name(), "tcp");
  EXPECT_GT(tcp.boundPort(), 0);
  EXPECT_TRUE(tcp.rankReachable(0));
  EXPECT_TRUE(tcp.rankReachable(1));
  EXPECT_GT(tcp.rankPid(0), 0);
  EXPECT_GT(tcp.rankPid(1), 0);
  EXPECT_NE(tcp.rankPid(0), tcp.rankPid(1));

  std::atomic<int> delivered{0};
  const auto payload = std::make_shared<const std::vector<std::byte>>(
      std::vector<std::byte>(256, std::byte{0x5A}));
  for (int i = 0; i < 8; ++i) {
    rts::Message msg;
    msg.from = i % 2;
    msg.to = 1 - i % 2;
    msg.bytes = payload->size();
    msg.payload = payload;
    msg.on_receive = [&] { delivered.fetch_add(1); };
    rt.send(std::move(msg));
  }
  rt.drain();

  EXPECT_EQ(delivered.load(), 8);
  // Every send became a frame on the wire, and after drain() every frame
  // has its delivery receipt back.
  EXPECT_GE(tcp.framesSent(), 8u);
  EXPECT_EQ(tcp.framesSent(), tcp.framesDelivered());
  EXPECT_NE(tcp.describe().find("tcp("), std::string::npos);
}

TEST(Tcp, GravityPhysicsMatchesInProcBitwise) {
  SKIP_UNDER_TSAN();
  const RunResult inproc = runGravity(Configuration{});
  const RunResult tcp = runGravity(Configuration{}, tcpConfig());
  EXPECT_EQ(inproc.traversal_calls, 6);
  EXPECT_EQ(tcp.traversal_calls, 6);
  expectBitwiseEqual(inproc.particles, tcp.particles);
}

TEST(Tcp, ReliableLayerDeliversExactlyOnceOverTheWire) {
  SKIP_UNDER_TSAN();
  rts::Runtime::Config rc;
  rc.n_procs = 2;
  rc.workers_per_proc = 1;
  rc.transport = tcpConfig();
  rc.fault = mixedSchedule(7);
  rts::Runtime rt(rc);

  std::atomic<int> delivered{0};
  for (int i = 0; i < 100; ++i) {
    rt.send(i % 2, 1 - i % 2, 16, [&] { delivered.fetch_add(1); });
  }
  rt.drain();

  // Drops force retransmits, duplicates force dedup, and CRC-nacked
  // corrupt frames force retransmits too — yet each payload ran exactly
  // once.
  EXPECT_EQ(delivered.load(), 100);
  auto& tcp = dynamic_cast<rts::TcpTransport&>(rt.transport());
  // Physical traffic exceeds the logical count: surviving copies,
  // retransmissions, injected duplicates and acks all crossed the wire.
  EXPECT_GT(tcp.framesSent(), 100u);
  // Corrupt-nacked frames were sent but never delivered; every other
  // frame got its receipt back. Nothing is unaccounted for.
  EXPECT_GT(tcp.framesCorrupt(), 0u);
  EXPECT_EQ(tcp.framesSent(), tcp.framesDelivered() + tcp.framesCorrupt());
}

TEST(Tcp, ChaosScheduleStillProducesFaultFreePhysics) {
  SKIP_UNDER_TSAN();
  const RunResult clean = runGravity(Configuration{});
  Configuration chaotic;
  chaotic.fault = mixedSchedule(20260806ull);
  const RunResult chaos = runGravity(chaotic, tcpConfig());
  EXPECT_EQ(chaos.traversal_calls, 6);
  expectBitwiseEqual(clean.particles, chaos.particles);
}

std::vector<std::byte> tag(int rank, int step) {
  return {static_cast<std::byte>(0xA0 + rank),
          static_cast<std::byte>(0xB0 + step)};
}

TEST(Tcp, CheckpointBuddyCopiesTravelAsRealFramePayloads) {
  SKIP_UNDER_TSAN();
  rts::Runtime::Config rc;
  rc.n_procs = 3;
  rc.workers_per_proc = 1;
  rc.transport = tcpConfig();
  rts::Runtime rt(rc);
  auto& tcp = dynamic_cast<rts::TcpTransport&>(rt.transport());
  const std::uint64_t frames_before = tcp.framesSent();

  rts::CheckpointStore store;
  store.init(&rt, nullptr);
  for (int r = 0; r < 3; ++r) store.commit(r, 0, tag(r, 0));
  rt.drain();  // buddy copies are runtime messages — here, real frames
  store.seal(0);
  ASSERT_TRUE(store.sealed(0));
  // One kCheckpoint frame per rank carried its chunk to the buddy.
  EXPECT_GE(tcp.framesSent(), frames_before + 3);

  store.markLost(1);
  EXPECT_EQ(store.latestRestorableStep(), 0);
  EXPECT_EQ(store.assemble(0)[1], tag(1, 0));  // from rank 2's buddy copy
}

TEST(Tcp, KillNineOfARankProcessRecoversViaCheckpointsBitwise) {
  SKIP_UNDER_TSAN();
  const RunResult clean = runGravity(Configuration{});

  Configuration conf;
  conf.checkpoint_every = 2;  // generations sealed after iterations 1, 3
  conf.recovery_mode = RecoveryMode::kRestart;
  conf.fault.drain_deadline_ms = 4000.0;
  const RunResult crashed =
      runGravity(conf, tcpConfig(), /*kill_rank=*/1, /*kill_at_iteration=*/3);

  // The SIGKILL surfaces as EOF on rank 1's socket, the rank is marked
  // crashed, the drain watchdog fires, and restart recovery rewinds to
  // the iteration-1 checkpoint: iterations re-run, then physics matches
  // the fault-free run bitwise (rank count restored, same accumulation
  // order).
  EXPECT_EQ(clean.traversal_calls, 6);
  EXPECT_GT(crashed.traversal_calls, 6);
  EXPECT_EQ(crashed.crashes, 1u);
  expectBitwiseEqual(clean.particles, crashed.particles);
}

}  // namespace
}  // namespace paratreet
