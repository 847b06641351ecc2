// Fig 12: planetesimal collision profile as a function of distance from
// the star and of orbital period, with resonance locations marked.
//
// The paper evolved 10M 50-km planetesimals for 2,000 years on Bridges2;
// a single node cannot do that, so this bench evolves a smaller disk
// (--n bodies) with inflated body radii and an enhanced perturber mass so
// the dynamics (resonant eccentricity pumping -> collisions concentrated
// near resonances, gaps carved at them) express within a short run. The
// 3:1, 2:1 and 5:3 mean-motion resonances with the perturber are marked
// in the output exactly as the paper's dashed lines.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/collision/disk_sim.hpp"
#include "bench_util.hpp"
#include "util/histogram.hpp"
#include "util/timer.hpp"

using namespace paratreet;

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::size_t n = args.positional<std::size_t>(1, 4000, 1);
  const int steps = args.positional(2, 1000, 1);
  const double dt = args.positional(3, 0.05);

  bench::printHeader("Fig 12", "planetesimal collision profile near resonances");

  DiskParams disk;
  disk.inner_radius = 2.0;
  disk.outer_radius = 4.0;
  disk.planet_mass = 5e-3;   // enhanced perturber: faster resonant pumping
  disk.body_radius = 1.5e-3; // inflated radii: collisions within the run
  disk.eccentricity_sigma = 2e-3;

  // Mean-motion resonance radii: a_res = a_planet * (m/n)^(2/3) for the
  // paper's marked 3:1, 2:1 and 5:3 commensurabilities.
  const double r31 = disk.planet_a * std::pow(1.0 / 3.0, 2.0 / 3.0);
  const double r21 = disk.planet_a * std::pow(1.0 / 2.0, 2.0 / 3.0);
  const double r53 = disk.planet_a * std::pow(3.0 / 5.0, 2.0 / 3.0);

  std::printf("disk: %zu bodies in [%.1f, %.1f] AU, perturber %.0f M_J at "
              "%.1f AU, dt=%.3f yr, %d steps\n",
              n, disk.inner_radius, disk.outer_radius,
              disk.planet_mass / 9.54e-4, disk.planet_a, dt, steps);
  std::printf("resonances: 3:1 at %.2f AU, 2:1 at %.2f AU, 5:3 at %.2f AU\n\n",
              r31, r21, r53);

  rts::Runtime::Config rc{2, 2, {}};
  rts::Runtime rt(rc);
  Configuration conf;
  conf.tree_type = TreeType::eLongest;
  conf.decomp_type = DecompType::eLongest;
  conf.min_partitions = 16;
  conf.min_subtrees = 4;
  conf.bucket_size = 16;

  PlanetesimalSim<LongestDimTreeType> sim(rt, conf, disk, n, /*seed=*/2021);
  WallTimer timer;
  for (int s = 0; s < steps; ++s) {
    sim.step(dt);
    if ((s + 1) % 50 == 0) {
      std::printf("  t=%6.2f yr: %zu collisions so far, %zu bodies\n",
                  sim.timeYr(), sim.collisions().size(), sim.bodyCount());
    }
  }
  std::printf("\nevolved %.0f yr in %.1fs wall; %zu collisions recorded\n\n",
              sim.timeYr(), timer.seconds(), sim.collisions().size());

  // Radial collision profile (the paper's solid curve).
  const std::size_t bins = 24;
  Histogram radial(disk.inner_radius, disk.outer_radius, bins);
  Histogram period(std::pow(disk.inner_radius, 1.5),
                   std::pow(disk.outer_radius, 1.5), bins);
  for (const auto& c : sim.collisions()) {
    radial.add(c.radius_au);
    period.add(c.period_yr);
  }

  std::size_t max_count = 1;
  for (std::size_t b = 0; b < bins; ++b) {
    max_count = std::max(max_count, radial.count(b));
  }
  std::printf("collisions vs distance from star (| marks resonances):\n");
  for (std::size_t b = 0; b < bins; ++b) {
    const double r = radial.binCenter(b);
    const double half = radial.width() / 2;
    const char* mark = "   ";
    if (std::abs(r - r31) <= half) mark = "3:1";
    else if (std::abs(r - r21) <= half) mark = "2:1";
    else if (std::abs(r - r53) <= half) mark = "5:3";
    std::printf("  %5.2f AU %s %-44s %zu\n", r, mark,
                std::string(radial.count(b) * 40 / max_count, '#').c_str(),
                radial.count(b));
  }

  std::printf("\ncollisions vs orbital period (dotted curve in the paper):\n");
  std::size_t max_p = 1;
  for (std::size_t b = 0; b < bins; ++b) max_p = std::max(max_p, period.count(b));
  for (std::size_t b = 0; b < bins; ++b) {
    std::printf("  %5.2f yr  %-44s %zu\n", period.binCenter(b),
                std::string(period.count(b) * 40 / max_p, '#').c_str(),
                period.count(b));
  }

  std::printf("\nExpected shape (paper): collisions concentrate toward the "
              "high-eccentricity region near the 2:1\nresonance, and the "
              "perturber carves visible structure at the marked "
              "resonances.\n");
  return 0;
}
