#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "observability/instrumentation.hpp"
#include "observability/metrics.hpp"
#include "observability/report.hpp"
#include "observability/trace.hpp"

namespace paratreet {
namespace {

// --- metrics: aggregation across concurrent workers -------------------------

TEST(Metrics, CounterAggregatesConcurrentIncrements) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.ops");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, HistogramAggregatesConcurrentObservations) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test.latency", {1.0, 10.0, 100.0});
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) {
        h.observe(0.5);    // bucket le=1
        h.observe(5.0);    // bucket le=10
        h.observe(50.0);   // bucket le=100
        h.observe(500.0);  // overflow bucket
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * 4000u);
  ASSERT_EQ(snap.counts.size(), 4u);
  for (const auto count : snap.counts) EXPECT_EQ(count, kThreads * 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 500.0);
  EXPECT_NEAR(snap.sum, kThreads * 1000 * 555.5, 1e-6);
}

TEST(Metrics, RegistryReturnsSameInstrumentForSameName) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same");
  obs::Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.findCounter("same"), &a);
  EXPECT_EQ(reg.findCounter("absent"), nullptr);
  // Histogram bounds of the first registration win.
  obs::Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("h", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Metrics, ResetAllZeroesEverything) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.resetAll();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.histogram("h", {1.0}).snapshot().count, 0u);
}

// --- tracing ----------------------------------------------------------------

TEST(Trace, SpanNestingRecordsContainedIntervals) {
  obs::TraceBuffer buf(64);
  {
    obs::TraceSpan outer(&buf, "outer", "test", 0, 0);
    {
      obs::TraceSpan inner(&buf, "inner", "test", 0, 0);
    }
  }
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on scope exit: inner first, outer second.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_GE(outer.start_us + outer.duration_us,
            inner.start_us + inner.duration_us);
}

TEST(Trace, BufferDropsWhenFullWithoutBlocking) {
  obs::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span(&buf, "s", "test");
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  buf.reset();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(Trace, NullBufferSpanIsNoOp) {
  obs::TraceSpan span(nullptr, "ghost", "test");  // must not crash
}

TEST(Trace, ConcurrentRecordingLosesNothingUnderCapacity) {
  obs::TraceBuffer buf(1 << 14);
  constexpr int kThreads = 8;
  constexpr int kSpans = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buf, t] {
      for (int i = 0; i < kSpans; ++i) {
        obs::TraceSpan span(&buf, "work", "test", t, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(buf.size(), static_cast<std::size_t>(kThreads) * kSpans);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(Trace, ConcurrentTotalsSumExactlyWhileTheRingDrops) {
  obs::TraceBuffer buf(16);
  constexpr int kThreads = 4;
  constexpr int kSpans = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buf, t] {
      obs::TraceEvent ev;
      ev.name = "work";
      for (int i = 0; i < kSpans; ++i) buf.record(ev, t + 1);  // ns
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(buf.totalCount("work"), std::uint64_t{kThreads} * kSpans);
  // Thread t adds t+1 ns per span: kSpans * (1+2+3+4) ns in all.
  EXPECT_DOUBLE_EQ(buf.totalSeconds("work"), kSpans * 10 * 1e-9);
  EXPECT_EQ(buf.dropped(), std::uint64_t{kThreads} * kSpans - 16);
}

TEST(Trace, NamesEqualAsTextShareOneTotal) {
  const char a[] = "same.name";
  const char b[] = "same.name";
  ASSERT_NE(static_cast<const void*>(a), static_cast<const void*>(b));
  obs::TraceBuffer buf(8);
  { obs::TraceSpan span(&buf, a, "test"); }
  { obs::TraceSpan span(&buf, b, "test"); }
  EXPECT_EQ(buf.totalCount(a), 2u);
  EXPECT_EQ(buf.totalCount("same.name"), 2u);
  int names = 0;
  buf.forEachTotal([&](const char*, double, std::uint64_t) { ++names; });
  EXPECT_EQ(names, 1);
}

TEST(Trace, SpanTotalsKeepNanosecondResolution) {
  // Sub-microsecond spans truncate to 0 us as events but not in totals.
  obs::TraceBuffer buf(4);
  obs::TraceEvent ev;
  ev.name = "tiny";
  buf.record(ev, 400);
  buf.record(ev, 300);
  EXPECT_EQ(buf.snapshot()[0].duration_us, 0);
  EXPECT_DOUBLE_EQ(buf.totalSeconds("tiny"), 700e-9);
  // A record() without an exact duration counts its microsecond field.
  ev.duration_us = 2;
  buf.record(ev);
  EXPECT_DOUBLE_EQ(buf.totalSeconds("tiny"), 2700e-9);
  EXPECT_EQ(buf.totalCount("tiny"), 3u);
}

TEST(Trace, ResetZeroesTotals) {
  obs::TraceBuffer buf(4);
  { obs::TraceSpan span(&buf, "s", "test"); }
  ASSERT_EQ(buf.totalCount("s"), 1u);
  buf.reset();
  EXPECT_EQ(buf.totalCount("s"), 0u);
  EXPECT_EQ(buf.totalSeconds("s"), 0.0);
  int names = 0;
  buf.forEachTotal([&](const char*, double, std::uint64_t) { ++names; });
  EXPECT_EQ(names, 0);
}

TEST(Trace, TotalsTableOverflowIsCountedAndReported) {
  constexpr std::size_t kExtra = 5;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < obs::TraceBuffer::kMaxSpanNames + kExtra; ++i) {
    names.push_back("name." + std::to_string(i));
  }
  obs::TraceBuffer buf(1024);
  for (const auto& name : names) {
    obs::TraceSpan span(&buf, name.c_str(), "test");
  }
  EXPECT_EQ(buf.totalsOverflow(), kExtra);
  EXPECT_EQ(buf.size(), names.size());  // the ring still kept every event
  std::size_t totaled = 0;
  buf.forEachTotal([&](const char*, double, std::uint64_t count) {
    EXPECT_EQ(count, 1u);
    ++totaled;
  });
  EXPECT_EQ(totaled, obs::TraceBuffer::kMaxSpanNames);
  Instrumentation instr;
  instr.trace = &buf;
  EXPECT_NE(obs::Reporter(instr).toJson().find("\"totals_overflow\":5"),
            std::string::npos);
}

// --- JSON export ------------------------------------------------------------

/// Minimal structural JSON check: quotes balance, braces/brackets nest.
bool structurallyValidJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Report, JsonExportRoundTrip) {
  Observability ob;
  ob.metrics.counter("cache.hits").add(12);
  ob.metrics.histogram("rts.queue_depth", {1.0, 2.0}).observe(1.5);
  ob.profiler.record(rts::Activity::kTreeBuild, 0.5);
  {
    obs::TraceSpan span(&ob.trace, "traverse.top_down", "traversal", 1, 2);
  }

  obs::Reporter reporter(ob.handle());
  const std::string json = reporter.toJson();
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"paratreet.observability.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cache.hits\":12"), std::string::npos);
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
  // The span's exact total: one count under its name in "spans".
  EXPECT_NE(json.find("\"spans\":{\"traverse.top_down\":{\"seconds\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\":1}"), std::string::npos) << json;
  EXPECT_NE(json.find("rts.queue_depth"), std::string::npos);
  EXPECT_NE(json.find("\"tree build\""), std::string::npos);
  EXPECT_NE(json.find("\"traverse.top_down\""), std::string::npos);

  // File round-trip: what writeJson() puts on disk is toJson() verbatim.
  const std::string path = ::testing::TempDir() + "obs_report.json";
  reporter.writeJson(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), json + "\n");
  std::remove(path.c_str());

  const std::string chrome = reporter.toChromeTrace();
  EXPECT_TRUE(structurallyValidJson(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":2"), std::string::npos);
}

TEST(Report, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  obs::MetricsRegistry reg;
  reg.counter("weird\"name").add(1);
  Instrumentation instr;
  instr.metrics = &reg;
  const std::string json = obs::Reporter(instr).toJson();
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
}

// --- enum parsing -----------------------------------------------------------

TEST(Config, FromStringRoundTripsEveryEnum) {
  for (TreeType t : {TreeType::eOct, TreeType::eKd, TreeType::eLongest}) {
    TreeType out;
    EXPECT_TRUE(fromString(toString(t), out));
    EXPECT_EQ(out, t);
  }
  for (CacheModel m :
       {CacheModel::kWaitFree, CacheModel::kXWrite, CacheModel::kPerThread,
        CacheModel::kSingleInserter}) {
    CacheModel out;
    EXPECT_TRUE(fromString(toString(m), out));
    EXPECT_EQ(out, m);
  }
  for (LbScheme s : {LbScheme::kNone, LbScheme::kSfc, LbScheme::kGreedy}) {
    LbScheme out;
    EXPECT_TRUE(fromString(toString(s), out));
    EXPECT_EQ(out, s);
  }
  for (DecompType d : {DecompType::eSfc, DecompType::eOct, DecompType::eKd,
                       DecompType::eLongest}) {
    DecompType out;
    EXPECT_TRUE(fromString(toString(d), out));
    EXPECT_EQ(out, d);
  }
  TreeType t;
  EXPECT_FALSE(fromString("quadtree", t));
  CacheModel m;
  EXPECT_FALSE(fromString("waitfree", m));  // case-sensitive
  LbScheme s;
  EXPECT_FALSE(fromString("", s));
  DecompType d;
  EXPECT_FALSE(fromString("hilbert", d));
}

// --- Configuration::validate ------------------------------------------------

TEST(Config, ValidateAcceptsDefaults) {
  Configuration conf;
  EXPECT_EQ(conf.validate(), "");
}

TEST(Config, ValidateRejectsNonsensicalValues) {
  const auto expectRejects = [](auto mutate, const char* field) {
    Configuration conf;
    mutate(conf);
    const std::string err = conf.validate();
    EXPECT_FALSE(err.empty()) << field;
    EXPECT_NE(err.find(field), std::string::npos) << err;
  };
  expectRejects([](Configuration& c) { c.bucket_size = 0; }, "bucket_size");
  expectRejects([](Configuration& c) { c.bucket_size = -4; }, "bucket_size");
  expectRejects([](Configuration& c) { c.fetch_depth = 0; }, "fetch_depth");
  expectRejects([](Configuration& c) { c.lb_period = -1; }, "lb_period");
  expectRejects([](Configuration& c) { c.num_iterations = -1; },
                "num_iterations");
  expectRejects([](Configuration& c) { c.min_partitions = 0; },
                "min_partitions");
  expectRejects([](Configuration& c) { c.min_subtrees = 0; }, "min_subtrees");
  expectRejects([](Configuration& c) { c.share_levels = -2; }, "share_levels");
}

// --- end-to-end through Driver/Forest ---------------------------------------

struct CountData {
  double mass = 0.0;
  CountData() = default;
  CountData(const Particle* ps, int n) {
    for (int i = 0; i < n; ++i) mass += ps[i].mass;
  }
  CountData& operator+=(const CountData& o) {
    mass += o.mass;
    return *this;
  }
};

/// Opens everything down to the leaves so remote fetches must happen.
struct SumVisitor {
  bool open(const SpatialNode<CountData>&, SpatialNode<CountData>&) const {
    return true;
  }
  void node(const SpatialNode<CountData>&, SpatialNode<CountData>&) const {}
  void leaf(const SpatialNode<CountData>& src,
            SpatialNode<CountData>& tgt) const {
    for (int i = 0; i < tgt.n_particles; ++i) {
      tgt.particle(i).density += src.data.mass;
    }
  }
};

class SumMain : public Driver<CountData, OctTreeType> {
 public:
  int bucket_size = 8;
  void configure(Configuration& conf) override {
    conf.num_iterations = 2;
    conf.min_partitions = 4;
    conf.min_subtrees = 4;
    conf.bucket_size = bucket_size;
  }
  void traversal(int) override { startDown<SumVisitor>(); }
};

TEST(Observability, DriverEmitsMetricsSpansAndActivities) {
  rts::Runtime rt({2, 2});
  Observability ob;
  SumMain app;
  app.run(rt, makeParticles(uniformCube(400, 17)), ob.handle());

  // Cache counters flowed into the registry (2 procs => remote fetches).
  const obs::Counter* misses = ob.metrics.findCounter("cache.misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(misses->value(), 0u);
  ASSERT_NE(ob.metrics.findCounter("cache.fills"), nullptr);
  EXPECT_GT(ob.metrics.findCounter("cache.fills")->value(), 0u);

  // Runtime scheduler metrics.
  EXPECT_GT(ob.metrics.counter("rts.tasks_executed").value(), 0u);
  EXPECT_GT(ob.metrics.counter("rts.messages").value(), 0u);
  EXPECT_GT(ob.metrics.counter("rts.worker.p0.w0.busy_ns").value(), 0u);
  EXPECT_GT(ob.metrics.histogram("rts.queue_depth", {1.0}).snapshot().count,
            0u);

  // Phase span totals accumulated across both iterations: one build and
  // traversal per iteration, one decompose per iteration (the first from
  // run(), the second from flush()).
  EXPECT_GT(ob.trace.totalSeconds("build"), 0.0);
  EXPECT_GT(ob.trace.totalSeconds("traverse.top_down"), 0.0);
  EXPECT_GT(ob.trace.totalSeconds("decompose"), 0.0);
  EXPECT_EQ(ob.trace.totalCount("build"), 2u);
  EXPECT_EQ(ob.trace.totalCount("traverse.top_down"), 2u);
  EXPECT_EQ(ob.trace.totalCount("decompose"), 2u);

  // At least one span per traversal, plus per-iteration driver spans.
  std::size_t traversal_spans = 0, iteration_spans = 0;
  for (const auto& ev : ob.trace.snapshot()) {
    if (std::string_view(ev.category) == "traversal") ++traversal_spans;
    if (std::string_view(ev.name) == "iteration") ++iteration_spans;
  }
  EXPECT_GE(traversal_spans, 2u);  // one per iteration
  EXPECT_EQ(iteration_spans, 2u);

  // Activity profiler still fed through the same handle.
  EXPECT_GT(ob.profiler.seconds(rts::Activity::kTreeBuild), 0.0);

  // And the whole thing serializes.
  const std::string json = obs::Reporter(ob.handle()).toJson();
  EXPECT_TRUE(structurallyValidJson(json));
  EXPECT_NE(json.find("cache.misses"), std::string::npos);
  EXPECT_NE(json.find("\"traverse.top_down\":{\"seconds\":"),
            std::string::npos);
}

/// Per-name span counts of one Forest decompose/build/traverse sequence
/// recorded into a TraceBuffer of `capacity` events.
std::map<std::string, std::uint64_t> forestSpanCounts(std::size_t capacity,
                                                      std::uint64_t* dropped) {
  rts::Runtime rt({1, 2});
  obs::TraceBuffer trace(capacity);
  Configuration conf;
  conf.min_partitions = 4;
  conf.min_subtrees = 4;
  Forest<CountData, OctTreeType> forest(
      rt, conf, Instrumentation{nullptr, nullptr, &trace});
  forest.load(makeParticles(uniformCube(300, 29)));
  forest.decompose();
  forest.build();
  forest.traverse<SumVisitor>(SumVisitor{}, TraversalStyle::kTransposed,
                              EvalKernel::kBatched);
  std::map<std::string, std::uint64_t> counts;
  trace.forEachTotal([&](const char* name, double, std::uint64_t count) {
    counts[name] = count;
  });
  *dropped = trace.dropped();
  return counts;
}

TEST(Trace, TotalsAreExactWhateverTheRingCapacity) {
  std::uint64_t dropped_large = 0, dropped0 = 0, dropped1 = 0;
  const auto large = forestSpanCounts(1 << 16, &dropped_large);
  ASSERT_EQ(dropped_large, 0u);
  EXPECT_EQ(large.at("build"), 1u);
  EXPECT_EQ(large.at("build.leaf_share"), 1u);
  std::uint64_t events = 0;
  for (const auto& [name, count] : large) events += count;
  EXPECT_EQ(forestSpanCounts(0, &dropped0), large);
  EXPECT_EQ(dropped0, events);
  EXPECT_EQ(forestSpanCounts(1, &dropped1), large);
  EXPECT_EQ(dropped1, events - 1);
}

/// SumMain with its Configuration overridden and the batched kernel, so
/// the kernel-phase spans and seal counters appear too.
class DocumentedNamesMain : public SumMain {
 public:
  Configuration overrides;
  void configure(Configuration& conf) override {
    conf = overrides;
    SumMain::configure(conf);
  }
  void traversal(int) override {
    startDown<SumVisitor>({}, TraversalStyle::kTransposed,
                          EvalKernel::kBatched);
  }
};

/// Every counter, histogram and span name one run reports, per-worker
/// names folded to their documented `rts.worker.p<P>.w<W>.` pattern.
std::set<std::string> reportedNames(const Configuration& overrides) {
  rts::Runtime rt({2, 1});
  Observability ob;
  DocumentedNamesMain app;
  app.overrides = overrides;
  app.run(rt, makeParticles(uniformCube(400, 31)), ob.handle());
  std::set<std::string> names;
  const std::regex worker(R"(^rts\.worker\.p\d+\.w\d+\.)");
  auto add = [&](const std::string& name) {
    names.insert(std::regex_replace(name, worker, "rts.worker.p<P>.w<W>."));
  };
  ob.metrics.forEachCounter([&](const obs::Counter& c) { add(c.name()); });
  ob.metrics.forEachHistogram([&](const obs::Histogram& h) { add(h.name()); });
  ob.trace.forEachTotal(
      [&](const char* name, double, std::uint64_t) { add(name); });
  return names;
}

TEST(Observability, EveryReportedNameIsDocumentedInTheReadme) {
  std::ifstream in(PARATREET_README);
  ASSERT_TRUE(in.good()) << PARATREET_README;
  std::stringstream text;
  text << in.rdbuf();
  const std::string readme = text.str();
  const std::size_t begin = readme.find("\n## Observability\n");
  ASSERT_NE(begin, std::string::npos);
  const std::string section =
      readme.substr(begin, readme.find("\n## ", begin + 1) - begin);

  Configuration durable;
  durable.checkpoint_every = 1;
  durable.checkpoint_dir = ::testing::TempDir() + "obs_names_ckpt";
  std::filesystem::remove_all(durable.checkpoint_dir);
  Configuration crash;
  crash.checkpoint_every = 1;
  crash.fault.crash_step = 1;
  crash.fault.crash_rank = 1;
  crash.fault.crash_after_tasks = 3;
  crash.fault.drain_deadline_ms = 2000.0;
  std::set<std::string> names = reportedNames(durable);
  const std::set<std::string> crash_names = reportedNames(crash);
  names.insert(crash_names.begin(), crash_names.end());
  EXPECT_TRUE(names.count("checkpoint.persist")) << "durable run persisted";
  EXPECT_TRUE(names.count("recovery")) << "crash run recovered";
  for (const auto& name : names) {
    EXPECT_NE(section.find("`" + name + "`"), std::string::npos)
        << name << " is reported but not documented in README "
        << "\"Observability\"";
  }
  std::filesystem::remove_all(durable.checkpoint_dir);
}

TEST(Observability, DriverRejectsInvalidConfiguration) {
  rts::Runtime rt({1, 1});
  SumMain app;
  app.bucket_size = 0;
  EXPECT_THROW(app.run(rt, makeParticles(uniformCube(50, 3)), Instrumentation{}),
               std::invalid_argument);
}

// A profiler-only Instrumentation (no registry, no trace) is the
// migration target of the removed ActivityProfiler* overloads.
TEST(Observability, ProfilerOnlyInstrumentationWorks) {
  rts::Runtime rt({2, 1});
  rts::ActivityProfiler profiler;
  SumMain app;
  app.run(rt, makeParticles(uniformCube(200, 5)),
          Instrumentation{&profiler, nullptr, nullptr});
  EXPECT_GT(profiler.seconds(rts::Activity::kTreeBuild), 0.0);
}

}  // namespace
}  // namespace paratreet
