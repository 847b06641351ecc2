// Decomposition microbench: the serial full-sort decomposition pipeline
// (--decomp-impl=sort) against the parallel histogram pipeline
// (--decomp-impl=histogram) across worker counts, timed through the
// Forest's own decompose phase (box reduction + key assignment +
// splitter finding + scatter). Results go to BENCH_decomp.json
// (override with --out=<path>).
//
// Every partition decomposition type is swept (the Subtrees stay
// octree). The serial sort path is worker-count independent (it runs on
// the caller), so it is measured once at 1 worker as the baseline; the
// histogram path is swept over {1, 2, 4, 8} workers. The two paths are
// also cross-checked for *identical* per-particle partition and subtree
// assignment — the bench exits nonzero on any divergence, so a perf run
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

struct CaseResult {
  std::string decomp;     ///< partition decomposition type name
  std::string impl;       ///< "sort" or "histogram"
  int workers = 1;        ///< total worker threads (procs x workers_per_proc)
  double decompose_s = 0.0;
  double speedup = 1.0;   ///< serial-sort time / this time, same decomp type
};

Configuration makeConfig(DecompType type, DecompImpl impl) {
  Configuration conf;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = type;
  conf.decomp_impl = impl;
  // Fixed piece counts across the sweep: the worker count scales the
  // executor, never the problem, so the series is a clean scaling curve
  // and every point is assignment-comparable to the serial baseline.
  conf.min_partitions = 32;
  conf.min_subtrees = 8;
  conf.bucket_size = 16;
  return conf;
}

/// Per-particle (partition, subtree) assignment keyed by order, gathered
/// from the scattered Subtree buckets after decompose().
std::vector<std::pair<int, int>> assignments(
    Forest<CentroidData, OctTreeType>& forest, std::size_t n) {
  std::vector<std::pair<int, int>> out(n, {-1, -1});
  for (int s = 0; s < forest.numSubtrees(); ++s) {
    for (const auto& p : forest.subtree(s).particles) {
      out[static_cast<std::size_t>(p.order)] = {p.partition, p.subtree};
    }
  }
  return out;
}

/// Best-of-`reps` decompose seconds for one (type, impl, procs) point;
/// also returns the assignment for cross-checking.
double runCase(DecompType type, DecompImpl impl, int procs,
               const std::vector<Particle>& base, int reps,
               std::vector<std::pair<int, int>>& assign_out) {
  rts::Runtime rt({procs, 1});
  Configuration conf = makeConfig(type, impl);
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(base);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    forest.decompose();
    best = std::min(best, timer.seconds());
  }
  assign_out = assignments(forest, base.size());
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
                 "    {\"decomp\": \"%s\", \"impl\": \"%s\", \"workers\": %d, "
                 "\"decompose_s\": %.6f, \"speedup_vs_serial_sort\": %.3f}%s\n",
                 c.decomp.c_str(), c.impl.c_str(), c.workers, c.decompose_s,
                 c.speedup, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_decomp.json";
  bench::ArgParser args(argc, argv);
  args.flag("--out=", out);
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200000;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 5;
  const std::vector<int> worker_counts{1, 2, 4, 8};

  bench::printHeader("Decomposition",
                     "serial full-sort vs parallel histogram pipeline");
  std::printf("dataset: %zu Plummer particles, best of %d reps\n\n", n, reps);

  const auto base = makeParticles(plummer(n, 99));
  std::vector<CaseResult> cases;
  bool match = true;

  for (auto type : {DecompType::eSfc, DecompType::eOct, DecompType::eKd,
                    DecompType::eLongest}) {
    std::vector<std::pair<int, int>> sort_assign;
    CaseResult sort_case;
    sort_case.decomp = toString(type);
    sort_case.impl = toString(DecompImpl::kSort);
    sort_case.workers = 1;
    sort_case.decompose_s = runCase(type, DecompImpl::kSort, 1, base, reps,
                                    sort_assign);
    cases.push_back(sort_case);

    std::printf("%s:\n", toString(type).c_str());
    bench::printBar("sort (serial)", sort_case.decompose_s * 1e3,
                    sort_case.decompose_s * 1e3, "ms");
    for (const int workers : worker_counts) {
      std::vector<std::pair<int, int>> hist_assign;
      CaseResult c;
      c.decomp = toString(type);
      c.impl = toString(DecompImpl::kHistogram);
      c.workers = workers;
      c.decompose_s = runCase(type, DecompImpl::kHistogram, workers, base,
                              reps, hist_assign);
      c.speedup = sort_case.decompose_s / c.decompose_s;
      cases.push_back(c);
      bench::printBar("histogram w=" + std::to_string(workers),
                      c.decompose_s * 1e3, sort_case.decompose_s * 1e3, "ms");
      // Equivalence gate: the per-particle check nails the assignment
      // bit-for-bit at every worker count.
      if (hist_assign != sort_assign) {
        std::fprintf(stderr,
                     "FAIL: %s histogram (w=%d) assignment differs from "
                     "sort\n",
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
