// k-nearest-neighbour search with the up-and-down traversal (paper
// Section II.A.2): every particle finds its k nearest peers in one
// traversal, with the search ball shrinking as candidates arrive. Spot
// checks a few queries against brute force.
//
// Usage: knn_search [n_particles] [k] [n_procs] [workers]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/sph/knn.hpp"
#include "apps/sph/sph.hpp"
#include "bench/bench_util.hpp"
#include "core/forest.hpp"
#include "util/timer.hpp"

using namespace paratreet;

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const std::size_t n = args.positional<std::size_t>(1, 20000, 1);
  const int k = args.positional(2, 8, 1);
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
  auto particles = makeParticles(clustered(n, 3, 16, 0.03));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();

  NeighborStore store(n, k);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });

  WallTimer timer;
  forest.traverseUpAndDown(KNearestVisitor<SphData>{&store});
  const double elapsed = timer.seconds();
  std::printf("kNN (k=%d) over %zu particles: %.3fs (%.2f us/query)\n\n", k, n,
              elapsed, 1e6 * elapsed / static_cast<double>(n));

  // Spot-check a few queries against brute force.
  int checked = 0, correct = 0;
  for (std::size_t q = 0; q < n; q += n / 7 + 1) {
    std::vector<double> d2(n);
    for (std::size_t j = 0; j < n; ++j) {
      d2[j] = distanceSquared(reference[q].position, reference[j].position);
    }
    std::nth_element(d2.begin(), d2.begin() + k - 1, d2.end());
    const double expect_ball = d2[static_cast<std::size_t>(k - 1)];

    auto heap = store.neighbors(static_cast<std::int32_t>(q));
    const auto far =
        std::max_element(heap.begin(), heap.end(),
                         [](const Neighbor& a, const Neighbor& b) {
                           return a.d2 < b.d2;
                         });
    const double got_ball = far != heap.end() ? far->d2 : -1.0;
    const bool ok = std::abs(got_ball - expect_ball) < 1e-12;
    std::printf("  query %6zu: kth-neighbour d = %.5f  %s\n", q,
                std::sqrt(got_ball), ok ? "[matches brute force]" : "[MISMATCH]");
    ++checked;
    correct += ok;
  }
  std::printf("\n%d/%d spot checks match brute force\n", correct, checked);
  return correct == checked ? 0 : 1;
}
