// Kernel microbench: particle-particle interaction throughput of the
// batched SoA gravity kernel (EvalKernel::kBatched: the lane evaluator
// streaming GravityVisitor's pair and node terms) against the per-pair
// visitor-callback path, on the *same* recorded interaction lists. Also
// times one small end-to-end gravity traversal per kernel for context.
// Results go to BENCH_kernels.json (override with --out=<path>).
//
// Equivalence gate: on every case the batched forces must match the
// visitor path's to 1e-12 relative (both run the same terms; only the
// lane-blocked summation order differs), else the bench exits 1.
//
// List shapes measured, monopole only at bucket 64:
//   direct_sum — opening angle ~0 opens everything, so every bucket's
//                list is pure direct (pp) work: the headline SoA number;
//   bh_theta07 — theta = 0.7 Barnes-Hut mix of node and leaf work.
// The node phase alone is timed at the bench_step gravity shape (theta
// 0.7, quadrupole on, bucket 16) on lists holding only the node
// approximations: the batched node term against per-node node() calls.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "bench_util.hpp"
#include "core/batch_eval.hpp"
#include "core/forest.hpp"
#include "core/interaction_list.hpp"
#include "tree/builder.hpp"
#include "util/distributions.hpp"
#include "util/timer.hpp"

using namespace paratreet;

namespace {

const OrientedBox kUniverse{Vec3(0), Vec3(1)};

/// Per-pair gravity with no terms: BatchEvaluator falls back to replaying
/// node()/leaf() in recorded order, which is exactly the inline
/// visitor-callback code on the same input — the baseline side of the
/// comparison.
struct PairwiseGravityVisitor {
  GravityParams params{};

  bool open(const SpatialNode<CentroidData>& s,
            SpatialNode<CentroidData>& t) const {
    return GravityVisitor{params}.open(s, t);
  }
  void node(const SpatialNode<CentroidData>& s,
            SpatialNode<CentroidData>& t) const {
    GravityVisitor{params}.node(s, t);
  }
  void leaf(const SpatialNode<CentroidData>& s,
            SpatialNode<CentroidData>& t) const {
    GravityVisitor{params}.leaf(s, t);
  }
};

struct ListSet {
  std::vector<Node<CentroidData>*> buckets;
  InteractionArena<CentroidData> arena;
  std::vector<InteractionList<CentroidData>> lists;
  std::uint64_t pp = 0;  ///< particle-particle interactions recorded
  std::uint64_t pn = 0;  ///< particle-node interactions recorded
};

/// Record `bucket`'s interactions with the subtree at `node`; with
/// `nodes_only` the opened leaves are left out of the list.
void recordWalk(Node<CentroidData>* node, Node<CentroidData>* bucket,
                const GravityVisitor& v, InteractionList<CentroidData>& list,
                ListSet& set, bool nodes_only) {
  if (node == nullptr || node->type == NodeType::kEmptyLeaf) return;
  const auto src = SpatialNode<CentroidData>::of(*node);
  SpatialNode<CentroidData> tgt(bucket->data, bucket->box, bucket->key,
                                bucket->n_particles, bucket->particles);
  if (!v.open(src, tgt)) {
    list.addNode(set.arena.intern(*node));
    set.pn += static_cast<std::uint64_t>(bucket->n_particles);
    return;
  }
  if (node->leaf()) {
    if (nodes_only) return;
    list.addLeaf(set.arena.intern(*node), node->n_particles);
    set.pp += static_cast<std::uint64_t>(node->n_particles) *
              static_cast<std::uint64_t>(bucket->n_particles);
    return;
  }
  for (int c = 0; c < node->n_children; ++c) {
    recordWalk(node->child(c), bucket, v, list, set, nodes_only);
  }
}

/// Record every bucket's interaction lists under the given opening angle.
ListSet recordLists(Node<CentroidData>* root, const GravityParams& params,
                    bool nodes_only = false) {
  ListSet set;
  forEachLeaf(root, [&](Node<CentroidData>* l) {
    if (l->type == NodeType::kLeaf) set.buckets.push_back(l);
  });
  set.lists.resize(set.buckets.size());
  const GravityVisitor v{params};
  for (std::size_t b = 0; b < set.buckets.size(); ++b) {
    recordWalk(root, set.buckets[b], v, set.lists[b], set, nodes_only);
  }
  return set;
}

void zeroResults(ListSet& set) {
  for (auto* bucket : set.buckets) {
    for (int i = 0; i < bucket->n_particles; ++i) {
      bucket->particles[i].acceleration = Vec3{};
      bucket->particles[i].potential = 0.0;
    }
  }
}

/// Every bucket particle's acceleration and potential, in bucket order.
std::vector<Particle> results(const ListSet& set) {
  std::vector<Particle> out;
  for (const auto* bucket : set.buckets) {
    out.insert(out.end(), bucket->particles,
               bucket->particles + bucket->n_particles);
  }
  return out;
}

/// Largest per-particle relative difference of `got` from `want`, over
/// acceleration (vector norm) and potential.
double maxRelErr(const std::vector<Particle>& want,
                 const std::vector<Particle>& got) {
  double worst = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Vec3& a = want[i].acceleration;
    worst = std::max(worst, (got[i].acceleration - a).length() / a.length());
    worst = std::max(worst, std::abs(got[i].potential - want[i].potential) /
                                std::abs(want[i].potential));
  }
  return worst;
}

/// Drain every bucket's lists through `eval` once; returns wall seconds.
template <typename Visitor>
double drainOnce(ListSet& set, const Visitor& visitor,
                 BatchScratch<CentroidData>& scratch) {
  BatchEvaluator<CentroidData, Visitor> eval(visitor, scratch, set.arena);
  WallTimer timer;
  for (std::size_t b = 0; b < set.buckets.size(); ++b) {
    Node<CentroidData>* bucket = set.buckets[b];
    eval.evaluate(set.lists[b],
                  SpatialNode<CentroidData>(bucket->data, bucket->box,
                                            bucket->key, bucket->n_particles,
                                            bucket->particles));
  }
  return timer.seconds();
}

/// Best-of-`reps` drain time (seconds) for one visitor type. The pools
/// stay warm across reps — the steady state the persistent-gather design
/// targets. The buckets keep the last rep's forces.
template <typename Visitor>
double bestDrain(ListSet& set, const Visitor& visitor, int reps) {
  BatchScratch<CentroidData> scratch;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    zeroResults(set);
    best = std::min(best, drainOnce(set, visitor, scratch));
  }
  return best;
}

struct CaseResult {
  std::string name;
  double theta = 0.0;
  std::uint64_t pp = 0;
  std::uint64_t pn = 0;
  double visitor_s = 0.0;
  double batched_s = 0.0;
  double max_rel_err = 0.0;  ///< batched forces against the visitor's

  double visitorGpairs() const { return pp / visitor_s / 1e9; }
  double batchedGpairs() const { return pp / batched_s / 1e9; }
  double speedup() const { return visitor_s / batched_s; }
};

CaseResult runCase(const char* name, Node<CentroidData>* root, double theta,
                   int reps) {
  GravityParams params;
  params.use_quadrupole = false;
  params.softening = 1e-3;
  params.theta = theta;
  ListSet set = recordLists(root, params);
  CaseResult r;
  r.name = name;
  r.theta = theta;
  r.pp = set.pp;
  r.pn = set.pn;
  r.visitor_s = bestDrain(set, PairwiseGravityVisitor{params}, reps);
  const auto want = results(set);
  r.batched_s = bestDrain(set, GravityVisitor{params}, reps);
  r.max_rel_err = maxRelErr(want, results(set));
  return r;
}

/// The node phase alone: particle-node interaction throughput of
/// the batched node term against per-node node() calls on the same
/// node-only lists.
struct NodePhaseResult {
  double theta = 0.0;
  int bucket_size = 0;
  std::uint64_t pn = 0;
  double visitor_s = 0.0;
  double batched_s = 0.0;
  double max_rel_err = 0.0;

  double visitorGpn() const { return pn / visitor_s / 1e9; }
  double batchedGpn() const { return pn / batched_s / 1e9; }
  double speedup() const { return visitor_s / batched_s; }
};

NodePhaseResult runNodePhase(Node<CentroidData>* root, double theta,
                             int bucket_size, int reps) {
  GravityParams params;
  params.softening = 1e-3;
  params.theta = theta;
  ListSet set = recordLists(root, params, /*nodes_only=*/true);
  NodePhaseResult r;
  r.theta = theta;
  r.bucket_size = bucket_size;
  r.pn = set.pn;
  r.visitor_s = bestDrain(set, PairwiseGravityVisitor{params}, reps);
  const auto want = results(set);
  r.batched_s = bestDrain(set, GravityVisitor{params}, reps);
  r.max_rel_err = maxRelErr(want, results(set));
  return r;
}

/// One end-to-end traversal measurement: best-iteration traverse seconds
/// plus (batched kernel only) that iteration's record/overlap/straggler
/// drain breakdown from the metrics registry.
struct E2eResult {
  double traverse_s = 0.0;
  double record_s = 0.0;       ///< walk-side list recording
  double overlap_s = 0.0;      ///< drain work overlapped with the walk
  double finish_drain_s = 0.0; ///< straggler drain after quiescence
  std::uint64_t sealed_early = 0;
  std::uint64_t sealed_total = 0;
};

/// End-to-end traversal seconds through the Forest for one kernel choice
/// (1 proc so the number is pure compute + traversal, no modeled comm).
E2eResult endToEndTraverse(std::size_t n, EvalKernel kernel, int iterations,
                           double theta) {
  rts::Runtime::Config rc{1, 1, {}};
  rts::Runtime rt(rc);
  Configuration conf;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = DecompType::eSfc;
  conf.min_partitions = 4;
  conf.min_subtrees = 2;
  conf.bucket_size = 16;
  GravityParams params;
  params.use_quadrupole = false;
  params.softening = 1e-3;
  params.theta = theta;
  Observability ob;
  Forest<CentroidData, OctTreeType> forest(rt, conf, ob.handle());
  forest.load(makeParticles(uniformCube(n, 7)));
  forest.decompose();
  E2eResult best;
  best.traverse_s = std::numeric_limits<double>::infinity();
  auto span_s = [&](const char* name) { return ob.trace.totalSeconds(name); };
  for (int it = 0; it < iterations; ++it) {
    forest.build();
    const double rec0 = span_s("kernel.record_phase");
    const double ovl0 = span_s("kernel.drain_overlap");
    const double fin0 = span_s("kernel.batch_eval");
    const std::uint64_t se0 = ob.metrics.counter("kernel.sealed_early").value();
    const std::uint64_t st0 = ob.metrics.counter("kernel.sealed_total").value();
    WallTimer timer;
    forest.traverse<GravityVisitor>(GravityVisitor{params},
                                    TraversalStyle::kTransposed, kernel);
    const double traverse_s = timer.seconds();
    if (traverse_s < best.traverse_s) {
      best.traverse_s = traverse_s;
      best.record_s = span_s("kernel.record_phase") - rec0;
      best.overlap_s = span_s("kernel.drain_overlap") - ovl0;
      best.finish_drain_s = span_s("kernel.batch_eval") - fin0;
      best.sealed_early =
          ob.metrics.counter("kernel.sealed_early").value() - se0;
      best.sealed_total =
          ob.metrics.counter("kernel.sealed_total").value() - st0;
    }
    forest.flush();
  }
  return best;
}

struct E2eCase {
  double theta = 0.0;
  E2eResult visitor;
  E2eResult batched;
  double speedup() const { return visitor.traverse_s / batched.traverse_s; }
};

void writeJson(const std::string& path, std::size_t n, int bucket_size,
               const std::vector<CaseResult>& cases,
               const NodePhaseResult& node_phase,
               const std::vector<E2eCase>& e2e, const E2eCase& headline) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  std::fprintf(f, "{\n  \"n\": %zu,\n  \"bucket_size\": %d,\n  \"cases\": [\n",
               n, bucket_size);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"theta\": %g, \"pp_interactions\": %llu, "
        "\"pn_interactions\": %llu, \"visitor_s\": %.6f, \"batched_s\": %.6f, "
        "\"visitor_gpairs_per_s\": %.4f, \"batched_gpairs_per_s\": %.4f, "
        "\"pp_throughput_speedup\": %.3f, \"max_rel_err\": %.3g}%s\n",
        c.name.c_str(), c.theta, static_cast<unsigned long long>(c.pp),
        static_cast<unsigned long long>(c.pn), c.visitor_s, c.batched_s,
        c.visitorGpairs(), c.batchedGpairs(), c.speedup(), c.max_rel_err,
        i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"node_phase\": {\"theta\": %g, \"bucket_size\": %d, "
      "\"quadrupole\": true, \"pn_interactions\": %llu, "
      "\"visitor_s\": %.6f, \"batched_s\": %.6f, "
      "\"visitor_gpn_per_s\": %.4f, \"batched_gpn_per_s\": %.4f, "
      "\"pn_throughput_speedup\": %.3f, \"max_rel_err\": %.3g},\n",
      node_phase.theta, node_phase.bucket_size,
      static_cast<unsigned long long>(node_phase.pn), node_phase.visitor_s,
      node_phase.batched_s, node_phase.visitorGpn(), node_phase.batchedGpn(),
      node_phase.speedup(), node_phase.max_rel_err);
  std::fprintf(f, "  \"end_to_end_sweep\": [\n");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const E2eCase& c = e2e[i];
    std::fprintf(
        f,
        "    {\"theta\": %g, \"visitor_traverse_s\": %.6f, "
        "\"batched_traverse_s\": %.6f, \"speedup\": %.3f, "
        "\"batched_record_s\": %.6f, \"batched_overlap_s\": %.6f, "
        "\"batched_finish_drain_s\": %.6f, \"sealed_early\": %llu, "
        "\"sealed_total\": %llu}%s\n",
        c.theta, c.visitor.traverse_s, c.batched.traverse_s, c.speedup(),
        c.batched.record_s, c.batched.overlap_s, c.batched.finish_drain_s,
        static_cast<unsigned long long>(c.batched.sealed_early),
        static_cast<unsigned long long>(c.batched.sealed_total),
        i + 1 < e2e.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"end_to_end\": {\"visitor_traverse_s\": %.6f, "
               "\"batched_traverse_s\": %.6f, \"speedup\": %.3f}\n}\n",
               headline.visitor.traverse_s, headline.batched.traverse_s,
               headline.speedup());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_kernels.json";
  bench::ArgParser args(argc, argv);
  args.flag("--out=", out);
  const std::size_t n = args.positional<std::size_t>(1, 30000, 1);
  const int reps = args.positional(2, 5, 1);
  const int bucket_size = 64;  // long contiguous spans: the SoA regime

  bench::printHeader("Kernels",
                     "batched SoA vs visitor-callback interaction throughput");
  std::printf("dataset: %zu uniform particles, bucket size %d, best of %d "
              "reps\n\n",
              n, bucket_size, reps);

  auto ps = makeParticles(uniformCube(n, 12345));
  assignKeys(ps, kUniverse);
  auto node_ps = ps;  // the node-phase tree owns its own particle order
  NodeArena<CentroidData> arena;
  BuildOptions opts;
  opts.bucket_size = bucket_size;
  auto* root = buildTree<CentroidData>(OctTreeType{}, arena,
                                       std::span<Particle>(ps), kUniverse,
                                       opts);

  std::vector<CaseResult> cases;
  // theta -> 0 opens every node: pure particle-particle lists. The theta
  // sweep moves the mix towards node-approximation work.
  cases.push_back(runCase("direct_sum", root, 1e-6, reps));
  cases.push_back(runCase("bh_theta05", root, 0.5, reps));
  cases.push_back(runCase("bh_theta07", root, 0.7, reps));
  cases.push_back(runCase("bh_theta10", root, 1.0, reps));

  std::printf("%-12s %8s %14s %14s %16s %16s %9s %12s\n", "case", "theta",
              "pp pairs", "pn pairs", "visitor Gpair/s", "batched Gpair/s",
              "speedup", "max rel err");
  for (const auto& c : cases) {
    std::printf("%-12s %8g %14llu %14llu %16.3f %16.3f %8.2fx %12.2e\n",
                c.name.c_str(), c.theta,
                static_cast<unsigned long long>(c.pp),
                static_cast<unsigned long long>(c.pn), c.visitorGpairs(),
                c.batchedGpairs(), c.speedup(), c.max_rel_err);
  }

  const int node_bucket_size = 16;
  NodeArena<CentroidData> node_arena;
  BuildOptions node_opts;
  node_opts.bucket_size = node_bucket_size;
  auto* node_root = buildTree<CentroidData>(OctTreeType{}, node_arena,
                                            std::span<Particle>(node_ps),
                                            kUniverse, node_opts);
  const NodePhaseResult node_phase =
      runNodePhase(node_root, 0.7, node_bucket_size, reps);
  std::printf("\nnode phase (theta 0.7, quadrupole, bucket %d): %llu pn "
              "pairs, visitor %.3f Gpn/s, batched %.3f Gpn/s (%.2fx), max "
              "rel err %.2e\n",
              node_bucket_size,
              static_cast<unsigned long long>(node_phase.pn),
              node_phase.visitorGpn(), node_phase.batchedGpn(),
              node_phase.speedup(), node_phase.max_rel_err);

  const std::size_t e2e_n = std::min<std::size_t>(n, 20000);
  const double e2e_thetas[] = {0.5, 0.7, 1.0};
  std::vector<E2eCase> e2e;
  std::printf("\nend-to-end traverse (n=%zu):\n", e2e_n);
  for (const double theta : e2e_thetas) {
    E2eCase c;
    c.theta = theta;
    c.visitor = endToEndTraverse(e2e_n, EvalKernel::kVisitor, 2, theta);
    c.batched = endToEndTraverse(e2e_n, EvalKernel::kBatched, 2, theta);
    std::printf("  theta=%.1f: visitor %.4fs, batched %.4fs (%.2fx)  "
                "[record %.4fs, overlap %.4fs, straggler drain %.4fs, "
                "%llu/%llu buckets sealed early]\n",
                theta, c.visitor.traverse_s, c.batched.traverse_s, c.speedup(),
                c.batched.record_s, c.batched.overlap_s,
                c.batched.finish_drain_s,
                static_cast<unsigned long long>(c.batched.sealed_early),
                static_cast<unsigned long long>(c.batched.sealed_total));
    e2e.push_back(c);
  }
  const E2eCase& headline = e2e[1];  // theta = 0.7, the comparison anchor

  writeJson(out, n, bucket_size, cases, node_phase, e2e, headline);
  std::printf("results written to %s\n", out.c_str());

  constexpr double kTolerance = 1e-12;
  bool match = node_phase.max_rel_err <= kTolerance;
  if (!match) {
    std::fprintf(stderr,
                 "FAIL: node phase batched forces differ from the visitor "
                 "path by %.3g relative (> %g)\n",
                 node_phase.max_rel_err, kTolerance);
  }
  for (const auto& c : cases) {
    if (c.max_rel_err <= kTolerance) continue;
    std::fprintf(stderr,
                 "FAIL: %s batched forces differ from the visitor path by "
                 "%.3g relative (> %g)\n",
                 c.name.c_str(), c.max_rel_err, kTolerance);
    match = false;
  }
  return match ? 0 : 1;
}
