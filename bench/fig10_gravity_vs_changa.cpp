// Fig 10: ParaTreeT vs ChaNGa average iteration times for monopole
// Barnes-Hut gravity with SFC decomposition and octrees (paper: 80M
// uniform particles on Summit; here: --n uniform particles on logical
// processes over the modeled interconnect).
//
// Three series, as in the paper:
//   ParaTreeT  — transposed traversal + wait-free cache + Partitions-
//                Subtrees build;
//   BasicTrav  — ParaTreeT modified to the standard per-bucket DFS
//                (the cache-efficiency ablation);
//   ChaNGa     — the mini-ChaNGa baseline: per-bucket DFS, hash-table
//                cache, per-worker duplicate fetches, branch-node merge.
//
// Also reported: the tree-build synchronization metrics that the
// Partitions-Subtrees model eliminates (mini-ChaNGa's boundary nodes).

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "baselines/changa/changa.hpp"
#include "bench_util.hpp"
#include "core/forest.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace paratreet;

namespace {

GravityParams monopoleParams() {
  GravityParams p;
  p.use_quadrupole = false;  // the paper's Fig 10 is monopole BH
  p.softening = 1e-3;
  return p;
}

struct Series {
  double avg_iter = 0.0;
  double build = 0.0;
  std::uint64_t comm_bytes = 0;
};

Series runParaTreeT(std::size_t n, int procs, int workers,
                    TraversalStyle style, int iterations, EvalKernel kernel) {
  rts::Runtime::Config rc{procs, workers, bench::defaultInterconnect()};
  obs::MetricsRegistry counts;  // declared first: outlives the runtime
  rts::Runtime rt(rc);
  rt.attachMetrics(&counts);
  Configuration conf;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = DecompType::eSfc;
  conf.min_partitions = 4 * procs * workers;
  conf.min_subtrees = 2 * procs;
  conf.bucket_size = 16;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(n, 7)));
  forest.decompose();
  Series s;
  RunningStats iter_time;
  for (int it = 0; it < iterations; ++it) {
    counts.resetAll();
    WallTimer timer;
    forest.build();
    const double build_s = timer.seconds();
    forest.traverse<GravityVisitor>(GravityVisitor{monopoleParams()}, style,
                                    kernel);
    iter_time.add(timer.seconds());
    s.build += build_s;
    s.comm_bytes += counts.counter("rts.message_bytes").value();
    forest.flush();
  }
  s.avg_iter = iter_time.mean();
  s.build /= iterations;
  s.comm_bytes /= static_cast<std::uint64_t>(iterations);
  return s;
}

Series runChanga(std::size_t n, int procs, int workers, int iterations,
                 std::uint64_t* boundary_nodes) {
  rts::Runtime::Config rc{procs, workers, bench::defaultInterconnect()};
  obs::MetricsRegistry counts;  // declared first: outlives the runtime
  rts::Runtime rt(rc);
  rt.attachMetrics(&counts);
  baselines::ChangaConfig config;
  config.n_pieces = 4 * procs * workers;
  config.bucket_size = 16;
  config.gravity = monopoleParams();
  baselines::ChangaSolver solver(rt, config);
  solver.load(makeParticles(uniformCube(n, 7)));
  Series s;
  RunningStats iter_time;
  for (int it = 0; it < iterations; ++it) {
    counts.resetAll();
    solver.resetStats();
    WallTimer timer;
    solver.build();
    const double build_s = timer.seconds();
    solver.traverseGravity();
    iter_time.add(timer.seconds());
    s.build += build_s;
    s.comm_bytes += counts.counter("rts.message_bytes").value();
    *boundary_nodes = solver.stats().boundary_nodes.load();
  }
  s.avg_iter = iter_time.mean();
  s.build /= iterations;
  s.comm_bytes /= static_cast<std::uint64_t>(iterations);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const EvalKernel kernel = args.kernel();
  const std::size_t n = args.positional<std::size_t>(1, 20000, 1);
  const int iterations = args.positional(2, 2, 1);

  bench::printHeader("Fig 10",
                     "ParaTreeT vs ChaNGa, monopole BH, SFC + octree");
  std::printf("dataset: %zu uniform particles, %d iterations averaged, "
              "modeled interconnect, %s kernel\n\n",
              n, iterations,
              kernel == EvalKernel::kBatched ? "batched" : "visitor");

  std::printf("%-12s %-10s %14s %12s %14s %16s\n", "series", "cores",
              "avg iter (s)", "build (s)", "comm bytes", "boundary nodes");
  const std::vector<std::pair<int, int>> grid = {{1, 2}, {2, 2}, {2, 4}, {4, 4}};
  for (const auto& [procs, workers] : grid) {
    const auto pt = runParaTreeT(n, procs, workers,
                                 TraversalStyle::kTransposed, iterations,
                                 kernel);
    const auto bt = runParaTreeT(n, procs, workers, TraversalStyle::kPerBucket,
                                 iterations, kernel);
    std::uint64_t boundary = 0;
    const auto ch = runChanga(n, procs, workers, iterations, &boundary);
    auto row = [&](const char* name, const Series& s, std::uint64_t b) {
      std::printf("%-12s %4dx%-5d %14.4f %12.4f %14llu %16llu\n", name, procs,
                  workers, s.avg_iter, s.build,
                  static_cast<unsigned long long>(s.comm_bytes),
                  static_cast<unsigned long long>(b));
    };
    row("ParaTreeT", pt, 0);
    row("BasicTrav", bt, 0);
    row("ChaNGa", ch, boundary);
    std::printf("  -> ChaNGa/ParaTreeT iteration-time ratio: %.2fx\n\n",
                ch.avg_iter / pt.avg_iter);
  }

  std::printf("Expected shape (paper): ParaTreeT 2-3x faster than ChaNGa "
              "across the range;\nBasicTrav sits between them (loses the "
              "loop-transposition cache efficiency);\nParaTreeT builds "
              "without boundary-node merging (0 vs ChaNGa's growing "
              "count).\n");
  return 0;
}
