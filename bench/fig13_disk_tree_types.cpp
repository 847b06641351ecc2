// Fig 13: average iteration time for the longest-dimension tree and
// decomposition vs ParaTreeT's octree vs ChaNGa's octree, simulating a
// protoplanetary disk (paper: 50M particles on Stampede2 SKX).
//
// An iteration is tree build + Barnes-Hut gravity + collision detection,
// as in the paper. The octree wastes branching on the thin z dimension
// and inherits the disk's load imbalance; the longest-dimension tree
// splits in the disk plane at particle medians. The load-imbalance metric
// (max/mean bucket load per partition) is reported alongside the times.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/collision/collision.hpp"
#include "apps/gravity/gravity.hpp"
#include "baselines/changa/changa.hpp"
#include "bench_util.hpp"
#include "core/dispatch.hpp"
#include "core/forest.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace paratreet;

namespace {

constexpr double kDt = 0.01;

GravityParams diskGravity() {
  GravityParams g;
  g.G = kGravAuMsunYr;
  g.softening = 1e-5;
  return g;
}

struct Result {
  double avg_iter = 0.0;
  double imbalance = 1.0;  ///< max/mean particles per partition
};

/// One measured series: the runtime `tree` value selects the statically
/// typed Forest via the shared dispatchTreeType() utility, with the
/// tree-consistent decomposition — no per-tree-type template duplication.
Result runParaTreeT(const InitialConditions& ic, TreeType tree, int procs,
                    int workers, int iterations,
                    Instrumentation instr = {}) {
  return dispatchTreeType(tree, [&](auto policy) {
    using TreeT = decltype(policy);
    rts::Runtime::Config rc{procs, workers, bench::defaultInterconnect()};
    rts::Runtime rt(rc);
    if (instr.metrics != nullptr) rt.attachMetrics(instr.metrics);
    Configuration conf;
    conf.tree_type = tree;
    conf.decomp_type = treeConsistentDecomp(tree);
    conf.min_partitions = 4 * procs * workers;
    conf.min_subtrees = 2 * procs;
    conf.bucket_size = 16;
    Forest<CentroidData, TreeT> forest(rt, conf, instr);
    forest.load(makeParticles(ic));
    forest.decompose();
    Result r;
    RunningStats time;
    for (int it = 0; it < iterations; ++it) {
      WallTimer timer;
      forest.build();
      forest.template traverse<GravityVisitor>(GravityVisitor{diskGravity()});
      forest.template traverse<CollisionVisitor>(CollisionVisitor{kDt});
      time.add(timer.seconds());
      // Load imbalance across partitions.
      std::size_t max_load = 0, total = 0;
      for (int p = 0; p < forest.numPartitions(); ++p) {
        const std::size_t load = forest.partition(p).particleCount();
        max_load = std::max(max_load, load);
        total += load;
      }
      r.imbalance = static_cast<double>(max_load) * forest.numPartitions() /
                    std::max<std::size_t>(total, 1);
      forest.flush();
    }
    if (instr.metrics != nullptr) rt.attachMetrics(nullptr);
    r.avg_iter = time.mean();
    return r;
  });
}

Result runChanga(const InitialConditions& ic, int procs, int workers,
                 int iterations) {
  rts::Runtime::Config rc{procs, workers, bench::defaultInterconnect()};
  rts::Runtime rt(rc);
  baselines::ChangaConfig config;
  config.n_pieces = 4 * procs * workers;
  config.bucket_size = 16;
  config.gravity = diskGravity();
  baselines::ChangaSolver solver(rt, config);
  solver.load(makeParticles(ic));
  Result r;
  RunningStats time;
  for (int it = 0; it < iterations; ++it) {
    WallTimer timer;
    solver.build();
    solver.traverseGravity();
    solver.traverseCollisions(kDt);
    time.add(timer.seconds());
  }
  r.avg_iter = time.mean();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::string metrics_out = args.metricsOut();
  const std::size_t n = args.positional<std::size_t>(1, 10000, 1);
  const int iterations = args.positional(2, 2, 1);
  // With --metrics-out, every ParaTreeT series accumulates into one
  // registry (counters are process-global sums across the whole sweep).
  Observability ob;
  const Instrumentation instr =
      metrics_out.empty() ? Instrumentation{} : ob.handle();

  bench::printHeader("Fig 13",
                     "disk iteration time: longest-dimension tree vs octrees");
  std::printf("dataset: planetesimal disk of %zu bodies, iteration = build + "
              "gravity + collisions, %d iterations averaged\n\n",
              n, iterations);

  DiskParams disk;
  const auto ic = planetesimalDisk(n, 13, disk);

  std::printf("%-26s %-10s %14s %12s\n", "series", "cores", "avg iter (s)",
              "imbalance");
  const std::vector<std::pair<int, int>> grid = {{1, 2}, {2, 2}, {2, 4}, {4, 4}};
  for (const auto& [procs, workers] : grid) {
    const auto longest = runParaTreeT(ic, TreeType::eLongest, procs, workers,
                                      iterations, instr);
    const auto oct =
        runParaTreeT(ic, TreeType::eOct, procs, workers, iterations, instr);
    const auto changa = runChanga(ic, procs, workers, iterations);
    std::printf("%-26s %4dx%-5d %14.4f %12.2f\n", "ParaTreeT longest-dim",
                procs, workers, longest.avg_iter, longest.imbalance);
    std::printf("%-26s %4dx%-5d %14.4f %12.2f\n", "ParaTreeT octree", procs,
                workers, oct.avg_iter, oct.imbalance);
    std::printf("%-26s %4dx%-5d %14.4f %12s\n", "ChaNGa octree", procs,
                workers, changa.avg_iter, "-");
    std::printf("  -> longest-dim vs oct: %.2fx, vs ChaNGa: %.2fx\n\n",
                oct.avg_iter / longest.avg_iter,
                changa.avg_iter / longest.avg_iter);
  }

  std::printf("Expected shape (paper): octree decomposition is load-"
              "imbalanced on the thin disk and cancels scaling\nbenefits at "
              "unfortunate configurations; the longest-dimension tree "
              "balances and wins, especially at scale.\n");
  bench::writeMetricsReport(instr, metrics_out);
  return 0;
}
