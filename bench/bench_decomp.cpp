// Decomposition microbench: the parallel decomposition pipeline across
// worker counts, timed through the Forest's own decompose phase (box
// reduction + key assignment + splitter finding + scatter). Results go
// to BENCH_decomp.json (override with --out=<path>).
//
// Every partition decomposition type is swept over {1, 2, 4, 8}
// workers (the Subtrees stay octree), and each point reports its
// speedup over the same type at 1 worker. Every run's per-particle
// (partition, subtree) assignment is also checked against the oracle:
// the serial findSplitters() reference of the same decomposition for
// the Partitions and of eOct for the Subtrees, run on a keyed copy of
// the input. The bench exits nonzero on any divergence, so a perf run
// doubles as an equivalence gate.

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/forest.hpp"
#include "apps/gravity/centroid_data.hpp"
#include "util/distributions.hpp"
#include "util/timer.hpp"

using namespace paratreet;

namespace {

/// Per-particle (partition, subtree) assignment, indexed by order.
using Assignment = std::vector<std::pair<int, int>>;

struct CaseResult {
  std::string decomp;     ///< partition decomposition type name
  int workers = 1;        ///< total worker threads (procs x workers_per_proc)
  double decompose_s = 0.0;
  double speedup = 1.0;   ///< 1-worker time / this time, same decomp type
};

Configuration makeConfig(DecompType type) {
  Configuration conf;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = type;
  // Fixed piece counts across the sweep: the worker count scales the
  // executor, never the problem, so the series is a clean scaling curve
  // and every point is assignment-comparable to the oracle.
  conf.min_partitions = 32;
  conf.min_subtrees = 8;
  conf.bucket_size = 16;
  return conf;
}

/// Assignment gathered from the scattered Subtree buckets after
/// decompose().
Assignment assignments(Forest<CentroidData, OctTreeType>& forest,
                       std::size_t n) {
  Assignment out(n, {-1, -1});
  for (int s = 0; s < forest.numSubtrees(); ++s) {
    for (const auto& p : forest.subtree(s).particles) {
      out[static_cast<std::size_t>(p.order)] = {p.partition, p.subtree};
    }
  }
  return out;
}

/// The oracle: the serial findSplitters() reference over a copy of
/// `base` keyed in the Forest's `universe`.
Assignment oracleAssignments(DecompType type, std::vector<Particle> ps,
                             const OrientedBox& universe) {
  const Configuration conf = makeConfig(type);
  assignKeys(ps, universe);
  makeDecomposition(type)->findSplitters(std::span<Particle>(ps), universe,
                                         conf.min_partitions,
                                         Decomposition::Target::kPartition);
  makeDecomposition(DecompType::eOct)
      ->findSplitters(std::span<Particle>(ps), universe, conf.min_subtrees,
                      Decomposition::Target::kSubtree);
  Assignment out(ps.size(), {-1, -1});
  for (const auto& p : ps) {
    out[static_cast<std::size_t>(p.order)] = {p.partition, p.subtree};
  }
  return out;
}

/// Best-of-`reps` decompose seconds for one (type, procs) point; the
/// last run's assignment and universe are returned for the oracle check.
double runCase(DecompType type, int procs, const std::vector<Particle>& base,
               int reps, Assignment& assign_out, OrientedBox& universe_out) {
  rts::Runtime rt({procs, 1});
  Forest<CentroidData, OctTreeType> forest(rt, makeConfig(type));
  forest.load(base);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    forest.decompose();
    best = std::min(best, timer.seconds());
  }
  assign_out = assignments(forest, base.size());
  universe_out = forest.universe();
  return best;
}

void writeJson(const std::string& path, std::size_t n, int reps,
               const std::vector<CaseResult>& cases, bool match) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  std::fprintf(f,
               "{\n  \"n\": %zu,\n  \"reps\": %d,\n"
               "  \"assignments_match\": %s,\n  \"cases\": [\n",
               n, reps, match ? "true" : "false");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"decomp\": \"%s\", \"workers\": %d, "
                 "\"decompose_s\": %.6f, \"speedup_vs_1_worker\": %.3f}%s\n",
                 c.decomp.c_str(), c.workers, c.decompose_s, c.speedup,
                 i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_decomp.json";
  bench::ArgParser args(argc, argv);
  args.flag("--out=", out);
  const std::size_t n = args.positional<std::size_t>(1, 200000, 1);
  const int reps = args.positional(2, 5, 1);
  const std::vector<int> worker_counts{1, 2, 4, 8};

  bench::printHeader("Decomposition",
                     "parallel pipeline across worker counts");
  std::printf("dataset: %zu Plummer particles, best of %d reps\n\n", n, reps);

  const auto base = makeParticles(plummer(n, 99));
  std::vector<CaseResult> cases;
  bool match = true;

  for (auto type : {DecompType::eSfc, DecompType::eOct, DecompType::eKd,
                    DecompType::eLongest}) {
    std::printf("%s:\n", toString(type).c_str());
    double one_worker_s = 0.0;
    Assignment oracle;
    for (const int workers : worker_counts) {
      Assignment assign;
      OrientedBox universe;
      CaseResult c;
      c.decomp = toString(type);
      c.workers = workers;
      c.decompose_s = runCase(type, workers, base, reps, assign, universe);
      if (workers == 1) one_worker_s = c.decompose_s;
      c.speedup = one_worker_s / c.decompose_s;
      cases.push_back(c);
      bench::printBar("w=" + std::to_string(workers), c.decompose_s * 1e3,
                      one_worker_s * 1e3, "ms");
      // Equivalence gate: the per-particle check nails the assignment
      // bit-for-bit at every worker count. The universe is the same
      // bounding box at every worker count, so one oracle run serves all.
      if (oracle.empty()) oracle = oracleAssignments(type, base, universe);
      if (assign != oracle) {
        std::fprintf(stderr,
                     "FAIL: %s (w=%d) assignment differs from the serial "
                     "findSplitters() oracle\n",
                     toString(type).c_str(), workers);
        match = false;
      }
    }
    std::printf("\n");
  }

  writeJson(out, n, reps, cases, match);
  std::printf("results written to %s\n", out.c_str());
  return match ? 0 : 1;
}
