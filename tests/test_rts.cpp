#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rts/profiler.hpp"
#include "rts/reliable.hpp"
#include "rts/runtime.hpp"
#include "util/timer.hpp"

namespace paratreet::rts {
namespace {

TEST(Runtime, RunsEnqueuedTasks) {
  Runtime rt({2, 2});
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    rt.enqueue(i % 2, [&counter] { counter.fetch_add(1); });
  }
  rt.drain();
  EXPECT_EQ(counter.load(), 100);
}

TEST(Runtime, TasksRunOnTheirProc) {
  Runtime rt({3, 2});
  std::atomic<int> wrong{0};
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 20; ++i) {
      rt.enqueue(p, [p, &wrong] {
        if (Runtime::currentProc() != p) wrong.fetch_add(1);
        if (Runtime::currentWorker() < 0 || Runtime::currentWorker() >= 2) {
          wrong.fetch_add(1);
        }
      });
    }
  }
  rt.drain();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Runtime, CurrentProcOffWorkerIsMinusOne) {
  EXPECT_EQ(Runtime::currentProc(), -1);
  EXPECT_EQ(Runtime::currentWorker(), -1);
}

TEST(Runtime, TasksCanSpawnTasks) {
  Runtime rt({2, 1});
  std::atomic<int> counter{0};
  // A chain of 50 tasks bouncing between procs.
  std::function<void(int)> bounce = [&](int depth) {
    counter.fetch_add(1);
    if (depth < 49) {
      rt.enqueue(depth % 2, [&bounce, depth] { bounce(depth + 1); });
    }
  };
  rt.enqueue(0, [&bounce] { bounce(0); });
  rt.drain();
  EXPECT_EQ(counter.load(), 50);
}

TEST(Runtime, DrainWaitsForNestedSpawns) {
  Runtime rt({1, 2});
  std::atomic<int> counter{0};
  rt.enqueue(0, [&] {
    for (int i = 0; i < 10; ++i) {
      rt.enqueue(0, [&] {
        for (int j = 0; j < 10; ++j) {
          rt.enqueue(0, [&] { counter.fetch_add(1); });
        }
      });
    }
  });
  rt.drain();
  EXPECT_EQ(counter.load(), 100);
}

TEST(Runtime, DrainIsReusable) {
  Runtime rt({2, 1});
  std::atomic<int> c{0};
  rt.enqueue(0, [&] { c.fetch_add(1); });
  rt.drain();
  EXPECT_EQ(c.load(), 1);
  rt.enqueue(1, [&] { c.fetch_add(1); });
  rt.drain();
  EXPECT_EQ(c.load(), 2);
}

TEST(Runtime, SendCountsMessagesAndBytes) {
  obs::MetricsRegistry counts;  // declared first: outlives the runtime
  Runtime rt({2, 1});
  rt.attachMetrics(&counts);
  rt.send(0, 1, 128, [] {});
  rt.send(1, 0, 64, [] {});
  rt.drain();
  EXPECT_EQ(counts.counter("rts.messages").value(), 2u);
  EXPECT_EQ(counts.counter("rts.message_bytes").value(), 192u);
  counts.resetAll();  // quiescent: the per-iteration idiom
  EXPECT_EQ(counts.counter("rts.messages").value(), 0u);
}

TEST(Runtime, RejectsNonPositiveProcsOrWorkers) {
  for (const int bad : {0, -1}) {
    EXPECT_THROW(Runtime({bad, 1}), std::invalid_argument) << bad;
    EXPECT_THROW(Runtime({1, bad}), std::invalid_argument) << bad;
    EXPECT_THROW(Runtime({bad, bad}), std::invalid_argument) << bad;
  }
}

TEST(Runtime, SendDeliversToDestination) {
  Runtime rt({3, 1});
  std::atomic<int> delivered_on{-1};
  rt.send(0, 2, 10, [&] { delivered_on = Runtime::currentProc(); });
  rt.drain();
  EXPECT_EQ(delivered_on.load(), 2);
}

TEST(Runtime, CommModelDelaysDelivery) {
  Runtime::Config config;
  config.n_procs = 2;
  config.workers_per_proc = 1;
  config.comm.latency_us = 20000;  // 20 ms
  Runtime rt(config);
  paratreet::WallTimer timer;
  std::atomic<double> arrival{0.0};
  rt.send(0, 1, 1, [&] { arrival = timer.seconds(); });
  rt.drain();
  EXPECT_GE(arrival.load(), 0.015);
}

TEST(Runtime, CommModelSkipsLocalSends) {
  Runtime::Config config;
  config.n_procs = 2;
  config.workers_per_proc = 1;
  config.comm.latency_us = 50000;
  Runtime rt(config);
  paratreet::WallTimer timer;
  std::atomic<double> arrival{99.0};
  rt.send(1, 1, 1, [&] { arrival = timer.seconds(); });
  rt.drain();
  EXPECT_LT(arrival.load(), 0.04);
}

TEST(Runtime, BandwidthTermScalesWithBytes) {
  CommModel model{100.0, 0.5};
  EXPECT_DOUBLE_EQ(model.costUs(0), 100.0);
  EXPECT_DOUBLE_EQ(model.costUs(1000), 600.0);
  EXPECT_TRUE(model.enabled());
  EXPECT_FALSE(CommModel{}.enabled());
}

TEST(Runtime, Broadcast) {
  Runtime rt({4, 1});
  std::mutex m;
  std::set<int> seen;
  rt.broadcast([&](int proc) {
    std::lock_guard lock(m);
    seen.insert(proc);
  });
  rt.drain();
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Runtime, ManyProcsManyWorkersStress) {
  Runtime rt({4, 3});
  std::atomic<std::uint64_t> sum{0};
  for (int i = 0; i < 2000; ++i) {
    rt.enqueue(i % 4, [&sum, i] { sum.fetch_add(static_cast<std::uint64_t>(i)); });
  }
  rt.drain();
  EXPECT_EQ(sum.load(), 2000ull * 1999 / 2);
}

TEST(Profiler, AccumulatesPerActivity) {
  ActivityProfiler prof;
  prof.record(Activity::kLocalTraversal, 0.5);
  prof.record(Activity::kLocalTraversal, 0.25);
  prof.record(Activity::kCacheRequest, 0.125);
  EXPECT_NEAR(prof.seconds(Activity::kLocalTraversal), 0.75, 1e-6);
  EXPECT_NEAR(prof.seconds(Activity::kCacheRequest), 0.125, 1e-6);
  EXPECT_EQ(prof.count(Activity::kLocalTraversal), 2u);
  EXPECT_NEAR(prof.totalSeconds(), 0.875, 1e-6);
  prof.reset();
  EXPECT_DOUBLE_EQ(prof.totalSeconds(), 0.0);
}

TEST(Profiler, ScopeRecordsElapsed) {
  ActivityProfiler prof;
  {
    ActivityScope scope(&prof, Activity::kTreeBuild);
    paratreet::WallTimer t;
    while (t.seconds() < 0.01) {
    }
  }
  EXPECT_GE(prof.seconds(Activity::kTreeBuild), 0.009);
  EXPECT_EQ(prof.count(Activity::kTreeBuild), 1u);
}

TEST(Profiler, NullProfilerScopeIsNoop) {
  ActivityScope scope(nullptr, Activity::kOther);
  SUCCEED();
}

TEST(Profiler, TimelineBinsActivity) {
  ActivityProfiler prof;
  prof.enableTimeline(0.02);
  {
    ActivityScope scope(&prof, Activity::kLocalTraversal);
    paratreet::WallTimer t;
    while (t.seconds() < 0.005) {
    }
  }
  // Wait past the first bin, then record a different activity.
  paratreet::WallTimer wait;
  while (wait.seconds() < 0.025) {
  }
  {
    ActivityScope scope(&prof, Activity::kCacheInsertion);
    paratreet::WallTimer t;
    while (t.seconds() < 0.005) {
    }
  }
  EXPECT_TRUE(prof.timelineEnabled());
  EXPECT_GT(prof.timelineSeconds(0, Activity::kLocalTraversal), 0.004);
  EXPECT_DOUBLE_EQ(prof.timelineSeconds(0, Activity::kCacheInsertion), 0.0);
  const std::size_t last = prof.timelineLastBin();
  EXPECT_GE(last, 1u);
  EXPECT_GT(prof.timelineSeconds(last, Activity::kCacheInsertion), 0.004);
  prof.reset();
  EXPECT_DOUBLE_EQ(prof.timelineSeconds(0, Activity::kLocalTraversal), 0.0);
}

TEST(Profiler, TimelineClampsToLastBin) {
  ActivityProfiler prof;
  prof.enableTimeline(1e-9);  // absurdly fine bins: everything clamps
  {
    paratreet::WallTimer warm;
    while (warm.seconds() < 0.001) {
    }
  }
  {
    ActivityScope scope(&prof, Activity::kOther);
    paratreet::WallTimer t;
    while (t.seconds() < 0.001) {
    }
  }
  EXPECT_EQ(prof.timelineLastBin(), ActivityProfiler::kMaxBins - 1);
}

TEST(Profiler, ActivityNamesAligned) {
  EXPECT_EQ(kActivityNames[static_cast<std::size_t>(Activity::kTreeBuild)],
            "tree build");
  EXPECT_EQ(kActivityNames.size(), kNumActivities);
}

TEST(Runtime, ConcurrentSendsFromWorkers) {
  obs::MetricsRegistry counts;
  Runtime rt({3, 2});
  rt.attachMetrics(&counts);
  std::atomic<int> received{0};
  rt.broadcast([&](int proc) {
    for (int i = 0; i < 50; ++i) {
      rt.send(proc, (proc + 1) % 3, 8, [&received] { received.fetch_add(1); });
    }
  });
  rt.drain();
  EXPECT_EQ(received.load(), 150);
  EXPECT_EQ(counts.counter("rts.messages").value(), 150u);
}

TEST(Runtime, EnqueueRejectsOutOfRangeProc) {
  Runtime rt({2, 1});
  EXPECT_THROW(rt.enqueue(2, [] {}), std::out_of_range);
  EXPECT_THROW(rt.enqueue(-1, [] {}), std::out_of_range);
  try {
    rt.enqueue(7, [] {});
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The message must name the offending rank and the valid range.
    EXPECT_NE(std::string(e.what()).find("rank 7"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("[0, 2)"), std::string::npos)
        << e.what();
  }
  rt.drain();  // a rejected enqueue must not leak a pending count
}

TEST(Runtime, SendRejectsOutOfRangeRanks) {
  obs::MetricsRegistry counts;
  Runtime rt({2, 1});
  rt.attachMetrics(&counts);
  EXPECT_THROW(rt.send(0, 5, 8, [] {}), std::out_of_range);
  EXPECT_THROW(rt.send(-3, 1, 8, [] {}), std::out_of_range);
  // Rejected sends are not counted.
  EXPECT_EQ(counts.counter("rts.messages").value(), 0u);
  rt.drain();
}

TEST(DelayedTask, EqualReadyTimesBreakTiesFifo) {
  // The comparator orders the delayed priority_queue earliest-first, and
  // by insertion sequence when ready-times collide (FIFO delivery).
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = t0 + std::chrono::microseconds(50);
  detail::DelayedTask early{t0, 7, nullptr};
  detail::DelayedTask late{t1, 1, nullptr};
  detail::DelayedTask first{t0, 2, nullptr};
  // operator< is inverted for the max-heap: "less" = delivered later.
  EXPECT_LT(late, early);            // later ready-time pops after
  EXPECT_LT(early, first);           // same ready-time: higher seq pops after
  EXPECT_FALSE(first < first);       // irreflexive

  std::priority_queue<detail::DelayedTask> q;
  std::vector<int> order;
  for (int seq : {3, 1, 2}) {
    q.push(detail::DelayedTask{t0, static_cast<std::uint64_t>(seq),
                               [&order, seq] { order.push_back(seq); }});
  }
  q.push(detail::DelayedTask{t0 - std::chrono::microseconds(10), 9,
                             [&order] { order.push_back(9); }});
  while (!q.empty()) {
    q.top().task();
    q.pop();
  }
  EXPECT_EQ(order, (std::vector<int>{9, 1, 2, 3}));
}

TEST(CommModel, DelayedMessagesDeliverFifoAtEqualCost) {
  // Same byte count => same modeled delay; delivery must preserve the
  // send order even though it goes through the delayed queue.
  Runtime::Config cfg;
  cfg.n_procs = 2;
  cfg.workers_per_proc = 1;
  cfg.comm.latency_us = 200.0;
  Runtime rt(cfg);
  std::vector<int> order;
  std::mutex mutex;
  for (int i = 0; i < 32; ++i) {
    rt.send(0, 1, 8, [i, &order, &mutex] {
      std::lock_guard lock(mutex);
      order.push_back(i);
    });
  }
  rt.drain();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// --- reliable-layer abandonment racing in-flight retransmits ---------------

/// A dead rank's retransmit chains must retire on their next timer instead
/// of spinning forever: with every copy dropped the chains would otherwise
/// retransmit until the (huge) retry budget ran out, and drain() here
/// would block for minutes.
TEST(Reliable, AbandonRankRetiresInflightRetransmitChains) {
  Runtime rt({2, 1});
  FaultConfig fc;
  fc.enabled = true;
  fc.drop_p = 1.0;  // every physical copy is lost: pure retransmit chains
  fc.max_transport_retries = 1000000;
  fc.retry_backoff_us = 100.0;
  fc.retry_backoff_cap_us = 200.0;
  FaultInjector injector(fc);
  ReliableLayer layer(rt, injector);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    layer.send(0, 1, 64, [&ran] { ran.fetch_add(1); });
  }
  // Let several retransmission timers fire while the chains are live.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(layer.inflight(), 8u);
  layer.abandonRank(1);
  rt.drain();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(layer.inflight(), 0u);
  EXPECT_EQ(layer.acked(), 0u);
  EXPECT_GT(layer.retries(), 0u);
}

/// A copy already "on the wire" (queued for delivery) when its destination
/// rank is abandoned must be discarded without running the payload and
/// without acking — an ack would tell the sender the dead rank processed
/// the message.
TEST(Reliable, CopyOnTheWireToAbandonedRankIsDiscardedWithoutAck) {
  Runtime rt({2, 1});
  FaultConfig fc;
  fc.enabled = true;
  fc.retry_backoff_us = 500.0;
  fc.retry_backoff_cap_us = 1000.0;
  fc.max_transport_retries = 3;
  FaultInjector injector(fc);
  ReliableLayer layer(rt, injector);
  std::atomic<bool> ran{false};
  // Park proc 1's only worker so the delivery task sits queued — the copy
  // is in flight when the destination dies.
  std::atomic<bool> hold{true};
  rt.enqueue(1, [&hold] {
    while (hold.load()) std::this_thread::yield();
  });
  layer.send(0, 1, 64, [&ran] { ran.store(true); });
  layer.abandonRank(1);
  hold.store(false);
  rt.drain();
  EXPECT_FALSE(ran.load());       // payload must not run on the dead rank
  EXPECT_EQ(layer.acked(), 0u);   // and no late ack may claim it was processed
  EXPECT_EQ(layer.inflight(), 0u);  // the ack timer retired the entry instead
}

/// abandonAll() (runtime teardown) racing live retransmit timers: every
/// pending entry is released as its timer fires, from every sender at once.
TEST(Reliable, AbandonAllRacingRetransmitTimersReleasesEverything) {
  Runtime rt({3, 1});
  FaultConfig fc;
  fc.enabled = true;
  fc.drop_p = 1.0;
  fc.max_transport_retries = 1000000;
  fc.retry_backoff_us = 100.0;
  fc.retry_backoff_cap_us = 200.0;
  FaultInjector injector(fc);
  ReliableLayer layer(rt, injector);
  std::atomic<int> ran{0};
  for (int i = 0; i < 12; ++i) {
    layer.send(i % 3, (i + 1) % 3, 64, [&ran] { ran.fetch_add(1); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  layer.abandonAll();
  rt.drain();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(layer.inflight(), 0u);
}

/// End-to-end over the runtime: a rank crashes with reliable delivery
/// active, recovery abandons its traffic, and the restarted incarnation
/// must never execute a pre-crash message — while new traffic flows.
TEST(Runtime, RecoveredRankDoesNotResurrectAbandonedMessages) {
  Runtime::Config cfg;
  cfg.n_procs = 2;
  cfg.workers_per_proc = 1;
  cfg.fault.enabled = true;
  cfg.fault.drop_p = 0.2;  // engage the reliable-delivery layer
  cfg.fault.seed = 7;
  cfg.fault.max_transport_retries = 10;
  cfg.fault.retry_backoff_us = 200.0;
  cfg.fault.retry_backoff_cap_us = 400.0;
  cfg.fault.drain_deadline_ms = 250.0;
  Runtime rt(cfg);
  rt.scheduleCrash(1, 0);
  std::atomic<bool> old_ran{false};
  rt.send(0, 1, 64, [&old_ran] { old_ran.store(true); });
  EXPECT_THROW(rt.drain(), QuiescenceTimeout);
  EXPECT_EQ(rt.crashedRanks(), std::vector<int>{1});
  rt.recoverCrashedRanks(/*restart=*/true);
  EXPECT_TRUE(rt.crashedRanks().empty());
  EXPECT_TRUE(rt.rankAlive(1));
  std::atomic<bool> new_ran{false};
  rt.send(0, 1, 64, [&new_ran] { new_ran.store(true); });
  rt.drain();
  EXPECT_FALSE(old_ran.load());
  EXPECT_TRUE(new_ran.load());
  EXPECT_EQ(rt.crashCount(), 1u);
}

TEST(CommModel, DrainWaitsOutInFlightDelayedMessages) {
  Runtime::Config cfg;
  cfg.n_procs = 2;
  cfg.workers_per_proc = 1;
  cfg.comm.latency_us = 20000.0;  // 20 ms on the modeled wire
  Runtime rt(cfg);
  std::atomic<bool> arrived{false};
  WallTimer timer;
  rt.send(0, 1, 8, [&arrived] { arrived.store(true); });
  rt.drain();
  // drain() must block until the delayed message matured and ran.
  EXPECT_TRUE(arrived.load());
  EXPECT_GE(timer.seconds(), 0.018);
}

}  // namespace
}  // namespace paratreet::rts
