// bench_step: run one workload's fixed multi-step simulation through
// Driver::run() and write the raw measurements as JSON — step intervals,
// set-up times, check results and, with --trace, span and counter totals
// over the timed steps. run.py builds this binary, runs it once per
// workload and turns the raw file into the named metrics (README.md).
//
// Usage: bench_step --workload=<gravity|sph|disk|gravity_durable>
//                   --seed=<n> [--trace] --out=<json>
//                   [--n=<particles>] [--steps=<timed steps>]
//                   [--seconds=<s>] [--setups=<k>] [--work-dir=<dir>]
//
// Without --trace: one run of 2 warm-up steps + at least --steps timed
// steps lasting at least --seconds, with the correctness checks in its
// last step, then --setups - 1 more runs that stop at the first timed
// step, for the set-up time. Nothing is instrumented.
// With --trace: an uninstrumented reference run, then the same run with
// a MetricsRegistry and a TraceBuffer attached, and on gravity a 1x1 run
// for the speed-up. Exit status is 1 when a run fails or a check fails.

#include <sys/resource.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "../bench_util.hpp"
#include "core/batch_eval.hpp"
#include "harness.hpp"
#include "workloads.hpp"

using namespace paratreet;
using namespace paratreet::bench_step;

namespace {

/// Capacity of the traced run's own TraceBuffer.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 22;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string out;
  std::size_t n = 0;  ///< 0: the workload's size
  int steps = -1;     ///< -1: 40 untraced, 10 traced
  double seconds = 0.0;
  int setups = 5;
  std::string work_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_step: %s\nusage: bench_step --workload=<gravity|sph|"
               "disk|gravity_durable> --seed=<n> [--trace] --out=<json> "
               "[--n=<particles>] [--steps=<k>] [--seconds=<s>] "
               "[--setups=<k>] [--work-dir=<dir>]\n",
               why.c_str());
  std::exit(2);
}

/// The numeric value of `--<name>=` if present; anything but a whole
/// number (or, for double, a decimal number) is a usage error.
template <typename T>
void numberFlag(bench::ArgParser& args, std::string_view name, T& out) {
  std::string v;
  if (!args.flag(name, v)) return;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (v.empty() || ec != std::errc{} || ptr != end) {
    usage(std::string(name) + " expects a number, got '" + v + "'");
  }
}

Options parseArgs(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  Options o;
  o.trace = args.boolFlag("--trace");
  args.flag("--workload=", o.workload);
  args.flag("--out=", o.out);
  args.flag("--work-dir=", o.work_dir);
  numberFlag(args, "--seed=", o.seed);
  numberFlag(args, "--n=", o.n);
  numberFlag(args, "--steps=", o.steps);
  numberFlag(args, "--seconds=", o.seconds);
  numberFlag(args, "--setups=", o.setups);
  // The parser strips every flag it knows; anything left is unknown.
  if (argc > 1) usage("unknown argument '" + std::string(argv[1]) + "'");
  if (o.workload.empty()) usage("--workload= is required");
  if (o.out.empty()) usage("--out= is required");
  if (o.steps < 0) o.steps = o.trace ? 10 : 40;
  if (o.steps < 1 || o.setups < 1) usage("--steps and --setups must be >= 1");
  return o;
}

struct JobSpec {
  int procs = kProcs;
  int workers = kWorkers;
  LoopSpec loop;
  bool traced = false;
};

struct JobResult {
  std::string name;
  double setup_s = 0.0;
  std::vector<double> step_s;
  double timed_wall_s = 0.0;
  std::vector<Check> checks;
  std::string error;
  bool traced = false;
  SpanTotals spans;
  CounterMap counters;
};

/// One Driver::run() of the app `make_app` builds. Set-up time starts
/// just before the runtime is constructed; the input is copied first.
template <typename MakeApp>
JobResult runJob(const JobSpec& job, const std::vector<Particle>& input,
                 rts::Runtime::Config rc, MakeApp make_app) {
  JobResult r;
  // Declared before the runtime so they outlive its worker threads.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TraceBuffer> trace;
  if (job.traced) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    trace = std::make_unique<obs::TraceBuffer>(kTraceCapacity);
  }
  const Instrumentation instr{nullptr, metrics.get(), trace.get()};
  Loop loop(job.loop, metrics.get());
  std::vector<Particle> particles = input;
  rc.n_procs = job.procs;
  rc.workers_per_proc = job.workers;
  try {
    loop.start();
    rts::Runtime rt(rc);
    auto app = make_app(loop, trace.get());
    try {
      app->run(rt, std::move(particles), instr);
    } catch (const StopRun&) {
    }
    if (!job.loop.setup_only) {
      if (!loop.finished()) {
        throw std::runtime_error("Driver::run() returned before the loop "
                                 "finished its timed steps");
      }
      r.checks = app->checks();
      app->afterRun(r.checks);
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.setup_s = loop.setupSeconds();
  if (loop.finished()) {
    r.step_s = loop.stepSeconds();
    r.timed_wall_s = loop.timedWallSeconds();
    if (job.traced) {
      r.traced = true;
      r.spans = summarizeSpans(*trace, loop.timedBegin(), loop.timedEnd(),
                               "bench");
      r.counters = loop.counterDeltas();
    }
  }
  return r;
}

/// A fresh checkpoint directory under `parent`, so every run persists
/// into an empty one.
std::string makeTempDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string tmpl = parent + "/ckpt_XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + parent);
  }
  return tmpl;
}

/// Workloads and their particle counts.
constexpr std::pair<std::string_view, std::size_t> kWorkloads[] = {
    {"gravity", 60000},
    {"sph", 100000},
    {"disk", 250000},
    {"gravity_durable", 30000},
};

std::vector<Particle> makeInput(std::string_view workload, std::size_t n,
                                std::uint64_t seed) {
  if (workload == "sph") return clusteredGas(n, seed);
  if (workload == "disk") return makeParticles(planetesimalDisk(n, seed));
  return makeParticles(plummer(n, seed, 0.25));
}

/// One job of `workload`. The durable workload persists into a fresh
/// directory under `work_dir`.
JobResult runWorkload(std::string_view workload, const JobSpec& job,
                      const std::vector<Particle>& input, std::uint64_t seed,
                      const std::string& work_dir) {
  if (workload == "gravity") {
    return runJob(job, input, {}, [&](Loop& loop, obs::TraceBuffer* trace) {
      return std::make_unique<GravityApp>(loop, trace, seed,
                                          EvalKernel::kBatched, std::nullopt);
    });
  }
  if (workload == "sph") {
    rts::Runtime::Config rc;
    rc.comm = sphInterconnect();
    return runJob(job, input, rc, [&](Loop& loop, obs::TraceBuffer* trace) {
      return std::make_unique<SphApp>(loop, trace, seed);
    });
  }
  if (workload == "disk") {
    return runJob(job, input, {}, [&](Loop& loop, obs::TraceBuffer* trace) {
      return std::make_unique<DiskApp>(loop, trace, seed);
    });
  }
  GravityApp::Durable durable;
  durable.dir = makeTempDir(work_dir);
  durable.transport.kind = rts::TransportKind::kTcp;
  durable.transport.heartbeat_interval_ms = 100.0;
  rts::Runtime::Config rc;
  rc.transport = durable.transport;
  JobResult r = runJob(job, input, rc, [&](Loop& loop, obs::TraceBuffer* trace) {
    return std::make_unique<GravityApp>(loop, trace, seed, EvalKernel::kVisitor,
                                        durable);
  });
  std::error_code ec;
  std::filesystem::remove_all(durable.dir, ec);
  return r;
}

void writeJob(JsonWriter& j, const JobResult& r) {
  j.beginObject();
  j.string("name", r.name);
  j.number("setup_s", r.setup_s);
  j.numbers("step_s", r.step_s);
  j.number("timed_wall_s", r.timed_wall_s);
  j.string("error", r.error);
  j.beginArray("checks");
  for (const Check& c : r.checks) {
    j.beginObject();
    j.string("name", c.name);
    j.number("value", c.value);
    j.number("limit", c.limit);
    j.boolean("passed", c.passed);
    j.string("detail", c.detail);
    j.endObject();
  }
  j.endArray();
  if (r.traced) {
    j.beginObject("spans");
    for (const auto& [name, e] : r.spans.by_name) {
      j.beginObject(name.c_str());
      j.number("total_s", e.total_s);
      j.number("self_s", e.self_s);
      j.integer("count", e.count);
      j.endObject();
    }
    j.endObject();
    j.integer("trace_dropped", r.spans.dropped);
    j.integer("trace_recorded", r.spans.recorded);
    j.beginObject("counters");
    for (const auto& [name, v] : r.counters) j.integer(name.c_str(), v);
    j.endObject();
  }
  j.endObject();
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parseArgs(argc, argv);
  std::size_t n = 0;
  for (const auto& [name, size] : kWorkloads) {
    if (o.workload == name) n = o.n > 0 ? o.n : size;
  }
  if (n == 0) usage("unknown workload '" + o.workload + "'");
  const std::vector<Particle> input = makeInput(o.workload, n, o.seed);

  LoopSpec timed;
  timed.min_steps = o.steps;
  std::vector<JobResult> jobs;
  auto run = [&](const char* name, const JobSpec& spec) {
    jobs.push_back(runWorkload(o.workload, spec, input, o.seed, o.work_dir));
    jobs.back().name = name;
  };
  if (!o.trace) {
    JobSpec main_job;
    main_job.loop = timed;
    main_job.loop.seconds = o.seconds;
    run("main", main_job);
    JobSpec setup_job;
    setup_job.loop = timed;
    setup_job.loop.setup_only = true;
    setup_job.loop.check = false;
    for (int s = 1; s < o.setups; ++s) run("setup_only", setup_job);
  } else {
    JobSpec reference;
    reference.loop = timed;
    run("reference", reference);
    JobSpec traced = reference;
    traced.traced = true;
    run("traced", traced);
    if (o.workload == "gravity") {
      // A 6-step run of the same problem on one worker.
      JobSpec serial;
      serial.procs = 1;
      serial.workers = 1;
      serial.loop.warmup = 1;
      serial.loop.min_steps = std::min(5, o.steps);
      serial.loop.check = false;
      run("serial_1x1", serial);
    }
  }

  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_step: cannot write %s\n", o.out.c_str());
    return 1;
  }
  JsonWriter j(f);
  j.beginObject();
  j.string("schema", "bench_step.raw.v1");
  j.string("workload", o.workload);
  j.integer("seed", o.seed);
  j.boolean("trace", o.trace);
  j.integer("n_particles", input.size());
  j.integer("procs", kProcs);
  j.integer("workers", kWorkers);
  j.number("flops_per_pp", flopsPerPairInteraction<GravityVisitor>());
  j.number("flops_per_pn", flopsPerNodeInteraction<GravityVisitor>());
  j.number("peak_rss_mb", peakRssMb());
  j.beginArray("jobs");
  for (const JobResult& r : jobs) writeJob(j, r);
  j.endArray();
  j.endObject();
  std::fputc('\n', f);
  const bool written = std::fclose(f) == 0;

  bool ok = written;
  for (const JobResult& r : jobs) {
    if (!r.error.empty()) {
      std::fprintf(stderr, "bench_step: %s run failed: %s\n", r.name.c_str(),
                   r.error.c_str());
      ok = false;
    }
    for (const Check& c : r.checks) {
      if (!c.passed) {
        std::fprintf(stderr, "bench_step: check %s failed: %g (limit %g)\n",
                     c.name.c_str(), c.value, c.limit);
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}
