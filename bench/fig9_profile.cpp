// Fig 9: time profile of CPU activity during the parallel Barnes-Hut
// traversal (the paper's Projections profile at 1536 CPUs).
//
// We record per-activity busy time with the built-in ActivityProfiler
// over the same categories the paper labels: tree build, (node-)local
// traversals, cache requests, cache insertions, traversal resumptions and
// the resumed remote traversals. The expected shape: the bulk of
// traversal time is node-local (thanks to node-wide tree aggregation and
// spatial decomposition), with small slices for the cache machinery.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "apps/gravity/gravity.hpp"
#include "bench_util.hpp"
#include "core/forest.hpp"

using namespace paratreet;

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::string metrics_out = args.metricsOut();
  const std::size_t n = args.positional<std::size_t>(1, 40000, 1);
  const int procs = args.positional(2, 4, 1);
  const int workers = args.positional(3, 2, 1);

  bench::printHeader("Fig 9", "activity profile of the parallel BH traversal");
  std::printf("dataset: %zu uniform particles, %d procs x %d workers, "
              "modeled interconnect\n\n",
              n, procs, workers);

  rts::Runtime::Config rc;
  rc.n_procs = procs;
  rc.workers_per_proc = workers;
  rc.comm = bench::defaultInterconnect();
  rts::Runtime rt(rc);
  Observability ob;
  rts::ActivityProfiler& profiler = ob.profiler;
  rt.attachMetrics(&ob.metrics);

  Configuration conf;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = DecompType::eSfc;
  conf.min_partitions = 4 * procs * workers;
  conf.min_subtrees = 2 * procs;
  conf.bucket_size = 16;

  Forest<CentroidData, OctTreeType> forest(rt, conf, ob.handle());
  forest.load(makeParticles(uniformCube(n, 2022)));
  forest.decompose();
  profiler.enableTimeline(0.02);
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});

  const double total = profiler.totalSeconds();
  std::printf("%-24s %10s %8s %10s\n", "activity", "busy (s)", "share",
              "events");
  double max_share = 0;
  for (std::size_t i = 0; i < rts::kNumActivities; ++i) {
    const auto a = static_cast<rts::Activity>(i);
    max_share = std::max(max_share, profiler.seconds(a) / total);
  }
  for (std::size_t i = 0; i < rts::kNumActivities; ++i) {
    const auto a = static_cast<rts::Activity>(i);
    const double share = total > 0 ? profiler.seconds(a) / total : 0;
    std::printf("%-24s %10.4f %7.1f%% %10llu  |%s\n",
                std::string(rts::kActivityNames[i]).c_str(),
                profiler.seconds(a), 100.0 * share,
                static_cast<unsigned long long>(profiler.count(a)),
                std::string(static_cast<std::size_t>(share / max_share * 40),
                            '#')
                    .c_str());
  }

  // Projections-style timeline: utilization share per activity over the
  // iteration, one row per time bin (b=build, L=local traversal,
  // r=requests, i=insertions, R=remote/resumed traversal).
  const std::size_t last = profiler.timelineLastBin();
  const double capacity =
      procs * workers * profiler.timelineBinSeconds();  // busy-seconds/bin max
  std::printf("\nutilization timeline (%.0f ms bins, %d workers):\n",
              1e3 * profiler.timelineBinSeconds(), procs * workers);
  std::printf("%8s  %-60s %s\n", "t (ms)", "busy share by activity", "util");
  const char glyph[rts::kNumActivities] = {'b', 'L', 'r', 'i', '.', 'R', '?'};
  for (std::size_t bin = 0; bin <= last; ++bin) {
    char bar[61];
    int pos = 0;
    double busy = 0.0;
    for (std::size_t a = 0; a < rts::kNumActivities && pos < 60; ++a) {
      const double share =
          profiler.timelineSeconds(bin, static_cast<rts::Activity>(a)) /
          capacity;
      busy += share;
      const int cells = static_cast<int>(share * 60 + 0.5);
      for (int c = 0; c < cells && pos < 60; ++c) bar[pos++] = glyph[a];
    }
    bar[pos] = '\0';
    std::printf("%8.0f  %-60s %3.0f%%\n",
                1e3 * profiler.timelineBinSeconds() * static_cast<double>(bin),
                bar, 100.0 * std::min(busy, 1.0));
  }

  // The registry is fresh and the run is one iteration, so its totals are
  // that iteration's.
  std::printf("\ncache: %llu requests, %llu fills, %llu paused traversals\n",
              static_cast<unsigned long long>(
                  ob.metrics.counter("cache.misses").value()),
              static_cast<unsigned long long>(
                  ob.metrics.counter("cache.fills").value()),
              static_cast<unsigned long long>(
                  ob.metrics.counter("cache.pauses").value()));
  std::printf("\nExpected shape (paper): local traversal dominates; cache "
              "requests/insertions/resumptions are thin slices appearing "
              "towards the end of the iteration.\n");

  rt.attachMetrics(nullptr);
  bench::writeMetricsReport(ob.handle(), metrics_out);
  return 0;
}
