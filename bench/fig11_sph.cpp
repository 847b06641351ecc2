// Fig 11: Gadget-2 vs ParaTreeT average iteration times for smoothed-
// particle hydrodynamics with octrees (paper: 33M-particle cosmological
// volume on Stampede2 SKX; here: --n clustered gas particles on logical
// processes over the modeled interconnect).
//
// Both solvers do the same SPH computation on the same octree + SFC
// decomposition; the difference the paper credits for its ~10x is
// algorithmic: ParaTreeT fetches a fixed number of neighbours with one
// k-nearest-neighbours traversal, while Gadget-2 converges a smoothing
// length per particle with repeated fixed-ball traversals.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/sph/sph.hpp"
#include "baselines/gadget/gadget_sph.hpp"
#include "bench_util.hpp"
#include "core/forest.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace paratreet;

namespace {

struct Result {
  double avg_iter = 0.0;
  int rounds = 1;
};

template <typename Fn>
Result timeIterations(Forest<SphData, OctTreeType>& forest, int iterations,
                      Fn&& one_iteration) {
  Result r;
  RunningStats time;
  for (int it = 0; it < iterations; ++it) {
    forest.build();
    WallTimer timer;
    r.rounds = one_iteration();
    time.add(timer.seconds());
    forest.flush();
  }
  r.avg_iter = time.mean();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::size_t n = args.positional<std::size_t>(1, 10000, 1);
  const int iterations = args.positional(2, 2, 1);
  const int k = args.positional(3, 32, 1);

  bench::printHeader("Fig 11", "SPH: ParaTreeT (kNN) vs Gadget-2 (fixed-ball)");
  std::printf("dataset: %zu clustered gas particles, k=%d, %d iterations "
              "averaged, modeled interconnect\n\n",
              n, k, iterations);

  SphParams params;
  params.k_neighbors = k;

  std::printf("%-12s %-10s %14s %18s %10s\n", "series", "cores",
              "avg iter (s)", "traversal rounds", "speedup");
  const std::vector<std::pair<int, int>> grid = {{1, 2}, {2, 2}, {2, 4}, {4, 4}};
  for (const auto& [procs, workers] : grid) {
    rts::Runtime::Config rc{procs, workers, bench::defaultInterconnect()};
    rts::Runtime rt(rc);
    Configuration conf;
    conf.tree_type = TreeType::eOct;
    conf.decomp_type = DecompType::eSfc;
    conf.min_partitions = 4 * procs * workers;
    conf.min_subtrees = 2 * procs;
    conf.bucket_size = 16;

    Forest<SphData, OctTreeType> forest(rt, conf);
    forest.load(makeParticles(clustered(n, 5, 12, 0.04)));
    forest.decompose();

    // Like for like with Gadget-2, which starts every step from a
    // uniform-density guess: a fresh solver per iteration searches from
    // an infinite ball.
    const Result pt = timeIterations(forest, iterations, [&] {
      SphSolver<SphData, OctTreeType> cold(forest, params);
      cold.step();
      return cold.lastPass().traversals;
    });

    // The simulation case: one solver across steps, so every search
    // ball starts from the previous step's bound (the first, untimed
    // step is cold).
    SphSolver<SphData, OctTreeType> pt_solver(forest, params);
    forest.build();
    pt_solver.step();
    forest.flush();
    const Result warm = timeIterations(forest, iterations, [&] {
      pt_solver.step();
      return pt_solver.lastPass().traversals;
    });

    baselines::GadgetSphSolver<SphData, OctTreeType> gd_solver(forest, params);
    const Result gd = timeIterations(forest, iterations, [&] {
      gd_solver.step();
      return gd_solver.stats().density_rounds + 1;  // + force sweep
    });

    std::printf("%-12s %4dx%-5d %14.4f %18d %10s\n", "ParaTreeT", procs,
                workers, pt.avg_iter, pt.rounds, "1.00x");
    std::printf("%-12s %4dx%-5d %14.4f %18d %9.2fx\n", "  warm ball", procs,
                workers, warm.avg_iter, warm.rounds,
                warm.avg_iter / pt.avg_iter);
    std::printf("%-12s %4dx%-5d %14.4f %18d %9.2fx\n", "Gadget-2", procs,
                workers, gd.avg_iter, gd.rounds, gd.avg_iter / pt.avg_iter);
    std::printf("\n");
  }

  std::printf("Expected shape (paper): ParaTreeT sustains a large advantage "
              "(~10x at scale) because the kNN\ntraversal replaces the "
              "fixed-ball convergence loop's repeated tree sweeps.\n"
              "Both series are timed cold; the \"warm ball\" row is "
              "ParaTreeT seeding each search from\nthe previous step "
              "(time column relative to the cold ParaTreeT row).\n");
  return 0;
}
