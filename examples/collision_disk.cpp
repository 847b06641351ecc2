// Planet-formation case study (paper Section IV): a planetesimal disk
// with a giant-planet perturber, evolved with Barnes-Hut gravity +
// swept-sphere collision detection on the longest-dimension tree. Body
// radii are inflated so collisions appear within a short demo run; the
// full-scale experiment is bench/fig12_collision_profile.
//
// Usage: collision_disk [n_bodies] [n_steps] [n_procs] [workers]

#include <cstdio>
#include <cstdlib>

#include "apps/collision/disk_sim.hpp"
#include "bench/bench_util.hpp"
#include "util/histogram.hpp"
#include "util/timer.hpp"

using namespace paratreet;

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::size_t n = args.positional<std::size_t>(1, 5000, 1);
  const int steps = args.positional(2, 40, 1);
  const int procs = args.positional(3, 2, 1);
  const int workers = args.positional(4, 2, 1);

  rts::Runtime rt({procs, workers});
  Configuration conf;
  conf.tree_type = TreeType::eLongest;  // the Section IV disk tree
  conf.decomp_type = DecompType::eLongest;
  conf.min_partitions = 4 * procs * workers;
  conf.min_subtrees = 2 * procs;
  conf.bucket_size = 16;

  DiskParams disk;
  disk.inner_radius = 2.0;
  disk.outer_radius = 4.0;
  disk.body_radius = 4e-3;  // inflated ~10^4 x so the demo shows impacts

  PlanetesimalSim<LongestDimTreeType> sim(rt, conf, disk, n, /*seed=*/11);

  std::printf("planetesimal disk: %zu bodies + star + Jupiter, dt=0.01 yr, "
              "%d steps\n\n",
              n, steps);
  WallTimer timer;
  for (int s = 0; s < steps; ++s) {
    const std::size_t hits = sim.step(0.01);
    if (hits > 0) {
      std::printf("  t=%5.2f yr: %zu collision%s (bodies left: %zu)\n",
                  sim.timeYr(), hits, hits == 1 ? "" : "s", sim.bodyCount());
    }
  }
  const double elapsed = timer.seconds();

  std::printf("\n%zu collisions in %.1f simulated years (%.3fs wall, "
              "%.1f ms/step)\n",
              sim.collisions().size(), sim.timeYr(), elapsed,
              1e3 * elapsed / steps);

  if (!sim.collisions().empty()) {
    Histogram profile(disk.inner_radius, disk.outer_radius, 10);
    for (const auto& c : sim.collisions()) profile.add(c.radius_au);
    std::printf("\ncollision profile vs heliocentric distance:\n");
    for (std::size_t b = 0; b < profile.bins(); ++b) {
      std::printf("  %.2f AU | %-40s %zu\n", profile.binCenter(b),
                  std::string(std::min<std::size_t>(profile.count(b), 40), '#')
                      .c_str(),
                  profile.count(b));
    }
  }
  return 0;
}
