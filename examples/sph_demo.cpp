// Smoothed-particle hydrodynamics demo (paper Section III.B): density and
// pressure forces on a clustered gas volume, computed two ways —
//
//   1. ParaTreeT's pipeline: one k-nearest-neighbour (up-and-down)
//      traversal, then density & symmetric pressure forces over the
//      recorded neighbour lists;
//   2. the Gadget-2-style baseline: converge a smoothing length per
//      particle with repeated fixed-ball traversals.
//
// Prints both results and the work difference that Fig 11 quantifies.
//
// Usage: sph_demo [n_particles] [k_neighbors] [n_procs] [workers]

#include <cstdio>
#include <cstdlib>

#include "apps/sph/sph.hpp"
#include "baselines/gadget/gadget_sph.hpp"
#include "bench/bench_util.hpp"
#include "core/forest.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace paratreet;

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::size_t n = args.positional<std::size_t>(1, 8000, 1);
  const int k = args.positional(2, 32, 1);
  const int procs = args.positional(3, 2, 1);
  const int workers = args.positional(4, 2, 1);

  rts::Runtime rt({procs, workers});
  Configuration conf;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = DecompType::eSfc;
  conf.min_partitions = 4 * procs * workers;
  conf.min_subtrees = 2 * procs;
  conf.bucket_size = 16;

  Forest<SphData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(clustered(n, 7, 8, 0.05)));
  forest.decompose();
  forest.build();

  SphParams params;
  params.k_neighbors = k;

  std::printf("SPH on %zu clustered gas particles, k=%d, %d procs x %d workers\n\n",
              n, k, procs, workers);

  // --- ParaTreeT: kNN + neighbour lists ------------------------------------
  WallTimer timer;
  SphSolver<SphData, OctTreeType> solver(forest, params);
  const auto pt_fields = solver.step();
  const double pt_time = timer.seconds();

  RunningStats pt_rho;
  for (double rho : pt_fields.density) pt_rho.add(rho);
  std::printf("ParaTreeT kNN pipeline:   %.3fs   density mean %.3f "
              "(min %.3f, max %.3f)\n",
              pt_time, pt_rho.mean(), pt_rho.min(), pt_rho.max());

  // --- Gadget-2-style fixed-ball baseline ----------------------------------
  timer.reset();
  baselines::GadgetSphSolver<SphData, OctTreeType> gadget(forest, params);
  gadget.step();
  const double gd_time = timer.seconds();
  const auto gd = forest.collect();
  RunningStats gd_rho;
  for (const auto& p : gd) gd_rho.add(p.density);
  std::printf("Gadget-2 fixed-ball:      %.3fs   density mean %.3f "
              "(%d convergence rounds, %zu unconverged)\n",
              gd_time, gd_rho.mean(), gadget.stats().density_rounds,
              gadget.stats().final_unconverged);

  std::printf("\nkNN does the neighbour search in ONE traversal; the "
              "fixed-ball method re-traversed %d times.\n",
              gadget.stats().density_rounds + 1);

  // Agreement between the two density estimates.
  RunningStats rel;
  for (std::size_t i = 0; i < gd.size(); ++i) {
    if (pt_fields.density[i] > 0) {
      rel.add(std::abs(gd[static_cast<std::size_t>(i)].density -
                       pt_fields.density[i]) /
              pt_fields.density[i]);
    }
  }
  std::printf("density agreement (mean relative difference): %.2f%%\n",
              100.0 * rel.mean());
  return 0;
}
