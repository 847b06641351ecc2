// Two-point correlation via the dual-tree traversal (the paper's cell()
// interface, Section II.A.2): counts particle pairs per log-spaced
// separation bin for a clustered and a uniform dataset, and prints the
// clustering excess DD_clustered / DD_uniform — the raw ingredient of the
// n-point correlation functions the paper lists among cosmology's
// analysis algorithms.
//
// Usage: two_point [n_particles] [n_procs] [workers]

#include <cstdio>
#include <cstdlib>

#include "apps/statistics/two_point.hpp"
#include "bench/bench_util.hpp"
#include "core/forest.hpp"
#include "util/timer.hpp"

using namespace paratreet;

namespace {

void pairCounts(rts::Runtime& rt, const InitialConditions& ic,
                PairHistogram& histogram) {
  Configuration conf;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = DecompType::eSfc;
  conf.min_partitions = 4 * rt.numProcs();
  conf.min_subtrees = 2 * rt.numProcs();
  conf.bucket_size = 16;
  Forest<PairCountData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(ic));
  forest.decompose();
  forest.build();
  forest.traverseDualTree<TwoPointVisitor>(TwoPointVisitor{&histogram});
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::size_t n = args.positional<std::size_t>(1, 10000, 1);
  const int procs = args.positional(2, 2, 1);
  const int workers = args.positional(3, 2, 1);

  rts::Runtime rt({procs, workers});
  const double r_min = 0.01, r_max = 0.5;
  const std::size_t bins = 12;

  std::printf("two-point pair counts, %zu particles, r in [%.2f, %.2f), "
              "%zu log bins\n\n",
              n, r_min, r_max, bins);

  PairHistogram clustered_dd(r_min, r_max, bins);
  PairHistogram uniform_dd(r_min, r_max, bins);
  WallTimer timer;
  pairCounts(rt, clustered(n, 5, 12, 0.03), clustered_dd);
  const double t_clustered = timer.seconds();
  timer.reset();
  pairCounts(rt, uniformCube(n, 5), uniform_dd);
  const double t_uniform = timer.seconds();

  std::printf("%-12s %16s %16s %10s\n", "r (center)", "DD clustered",
              "DD uniform", "excess");
  for (std::size_t b = 0; b < bins; ++b) {
    const double ratio =
        uniform_dd.count(b) > 0
            ? static_cast<double>(clustered_dd.count(b)) /
                  static_cast<double>(uniform_dd.count(b))
            : 0.0;
    std::printf("%-12.4f %16lld %16lld %9.2fx\n", clustered_dd.binCenter(b),
                static_cast<long long>(clustered_dd.count(b)),
                static_cast<long long>(uniform_dd.count(b)), ratio);
  }
  std::printf("\ntraversal time: clustered %.3fs, uniform %.3fs\n",
              t_clustered, t_uniform);
  std::printf("Expected: strong pair excess at small separations for the "
              "clustered dataset, converging to ~1x at large r.\n");
  return 0;
}
