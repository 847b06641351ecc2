// Fig 3: comparison of the shared-memory cache 'WaitFree' against the
// per-thread 'Sequential' model and the exclusive-write 'XWrite' model,
// Barnes-Hut gravity on a clustered dataset.
//
// The paper ran 80M particles on up to ~12k Stampede2 cores; here the
// dataset is a clustered volume sized by --n (default 30k) and the core
// axis is logical processes x workers over the modeled interconnect. For
// each configuration we report the average traversal time plus the
// mechanism metrics behind the Fig 3 separation: fetches (communication
// volume, where Sequential loses) and insertion serialization (where
// XWrite loses).
//
// Extra series beyond the paper: the kSingleInserter ablation, and a
// fetch-depth ablation for the WaitFree model (DESIGN.md section 5).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "bench_util.hpp"
#include "core/forest.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace paratreet;

namespace {

struct Result {
  double avg_iteration_s = 0.0;
  std::uint64_t fetches = 0;
  std::uint64_t bytes = 0;
  std::uint64_t lock_wait_us = 0;
  std::size_t cached_nodes = 0;
};

Result run(std::size_t n, int procs, int workers, CacheModel model,
           int fetch_depth, int iterations) {
  rts::Runtime::Config rc;
  rc.n_procs = procs;
  rc.workers_per_proc = workers;
  rc.comm = bench::defaultInterconnect();
  rts::Runtime rt(rc);

  Configuration conf;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = DecompType::eSfc;
  conf.cache_model = model;
  conf.fetch_depth = fetch_depth;
  conf.min_partitions = 4 * procs * workers;
  conf.min_subtrees = 2 * procs;
  conf.bucket_size = 16;

  obs::MetricsRegistry counts;
  Forest<CentroidData, OctTreeType> forest(
      rt, conf, Instrumentation{nullptr, &counts, nullptr});
  forest.load(makeParticles(clustered(n, 42, 24, 0.02)));
  forest.decompose();

  Result result;
  RunningStats time;
  // One untimed warmup iteration (thread pools, allocator, page faults),
  // left out of the counts.
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  forest.flush();
  counts.resetAll();
  for (int it = 0; it < iterations; ++it) {
    forest.build();
    WallTimer timer;
    forest.traverse<GravityVisitor>(GravityVisitor{});
    time.add(timer.seconds());
    result.cached_nodes = forest.cachedNodeCount();
    forest.flush();
  }
  // Totals over the measured iterations.
  result.fetches = counts.counter("cache.misses").value();
  result.bytes = counts.counter("cache.bytes_received").value();
  result.lock_wait_us = counts.counter("cache.lock_wait_ns").value() / 1000;
  result.avg_iteration_s = time.mean();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::size_t n = args.positional<std::size_t>(1, 20000, 1);
  const int iterations = args.positional(2, 2, 1);

  bench::printHeader("Fig 3",
                     "software-cache models, Barnes-Hut on a clustered volume");
  std::printf("dataset: %zu clustered particles, %d iterations averaged, "
              "modeled interconnect\n\n",
              n, iterations);

  const std::vector<std::pair<int, int>> grid = {{1, 2}, {2, 2}, {2, 4}, {4, 4}};
  struct Series {
    CacheModel model;
    const char* label;
  };
  const std::vector<Series> series = {
      {CacheModel::kWaitFree, "WaitFree"},
      {CacheModel::kXWrite, "XWrite"},
      {CacheModel::kPerThread, "Sequential"},       // per-thread caches
      {CacheModel::kSingleInserter, "SingleInserter (ablation)"},
  };

  std::printf("%-28s %10s %12s %12s %14s %13s %12s\n", "model", "cores",
              "avg iter (s)", "fetches", "recv bytes", "lock wait us",
              "cached nodes");
  for (const auto& [procs, workers] : grid) {
    double max_time = 0.0;
    std::vector<Result> results;
    for (const auto& s : series) {
      results.push_back(run(n, procs, workers, s.model, 3, iterations));
      max_time = std::max(max_time, results.back().avg_iteration_s);
    }
    for (std::size_t i = 0; i < series.size(); ++i) {
      std::printf("%-28s %6dx%-3d %12.4f %12llu %14llu %13llu %12zu\n",
                  series[i].label, procs, workers,
                  results[i].avg_iteration_s,
                  static_cast<unsigned long long>(results[i].fetches),
                  static_cast<unsigned long long>(results[i].bytes),
                  static_cast<unsigned long long>(results[i].lock_wait_us),
                  results[i].cached_nodes);
    }
    std::printf("\n");
  }

  std::printf("fetch-depth ablation (WaitFree, %dx%d cores):\n", 4, 4);
  std::printf("%-28s %12s %14s %14s\n", "fetch_depth", "avg iter (s)",
              "fetches", "recv bytes");
  for (int depth : {1, 2, 3, 5, 8}) {
    const auto r = run(n, 4, 4, CacheModel::kWaitFree, depth, iterations);
    std::printf("%-28d %12.4f %14llu %14llu\n", depth, r.avg_iteration_s,
                static_cast<unsigned long long>(r.fetches),
                static_cast<unsigned long long>(r.bytes));
  }

  std::printf("\nExpected shape (paper): WaitFree fastest; XWrite loses to "
              "insertion serialization as cores grow;\nSequential "
              "(per-thread) needs more fetches/memory and falls behind "
              "when communication binds the critical path.\n");
  return 0;
}
