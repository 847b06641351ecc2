// Micro-benchmarks (google-benchmark) for the framework's hot paths:
// Morton key generation, tree build across tree types, Data accumulation,
// the force kernels, region serialization (the cache-fill payload), the
// CRC-32C bodies (frames and checkpoints), and the two traversal orders. These are the primitives whose costs compose
// into the figure-level results; useful for regression tracking.

#include <benchmark/benchmark.h>

#include "apps/gravity/gravity.hpp"
#include "core/forest.hpp"
#include "core/serialization.hpp"
#include "tree/builder.hpp"
#include "tree/validate.hpp"
#include "util/crc32c.hpp"
#include "util/distributions.hpp"
#include "util/small_vector.hpp"

using namespace paratreet;

namespace {

const OrientedBox kUniverse{Vec3(0), Vec3(1)};

std::vector<Particle> particleSet(std::size_t n) {
  auto ps = makeParticles(uniformCube(n, 12345));
  assignKeys(ps, kUniverse);
  return ps;
}

void BM_MortonKey(benchmark::State& state) {
  auto ps = particleSet(1024);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const auto& p : ps) {
      acc ^= keys::mortonKey(p.position, kUniverse);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MortonKey);

template <typename TreeT>
void BM_TreeBuild(benchmark::State& state) {
  auto ps = particleSet(static_cast<std::size_t>(state.range(0)));
  BuildOptions opts;
  opts.bucket_size = 16;
  for (auto _ : state) {
    auto copy = ps;
    NodeArena<CentroidData> arena;
    auto* root = buildTree<CentroidData>(TreeT{}, arena,
                                         std::span<Particle>(copy), kUniverse,
                                         opts);
    benchmark::DoNotOptimize(root);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_TEMPLATE(BM_TreeBuild, OctTreeType)->Arg(1000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_TreeBuild, KdTreeType)->Arg(1000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_TreeBuild, LongestDimTreeType)->Arg(1000)->Arg(10000);

void BM_CentroidAccumulate(benchmark::State& state) {
  auto ps = particleSet(256);
  for (auto _ : state) {
    CentroidData total;
    for (std::size_t i = 0; i < ps.size(); i += 16) {
      total += CentroidData(ps.data() + i, 16);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CentroidAccumulate);

void BM_GravExactKernel(benchmark::State& state) {
  auto ps = particleSet(64);
  GravityParams params;
  for (auto _ : state) {
    Vec3 a{};
    double phi = 0;
    for (const auto& p : ps) gravExact(p, Vec3(2, 2, 2), params, a, phi);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_GravExactKernel);

void BM_GravApproxKernel(benchmark::State& state) {
  auto ps = particleSet(64);
  const CentroidData data(ps.data(), 64);
  GravityParams params;
  for (auto _ : state) {
    Vec3 a{};
    double phi = 0;
    gravApprox(data, Vec3(2, 2, 2), params, a, phi);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GravApproxKernel);

void BM_SerializeRegion(benchmark::State& state) {
  auto ps = particleSet(10000);
  NodeArena<CentroidData> arena;
  BuildOptions opts;
  opts.bucket_size = 16;
  auto* root = buildTree<CentroidData>(OctTreeType{}, arena,
                                       std::span<Particle>(ps), kUniverse,
                                       opts);
  for (auto _ : state) {
    auto block = serializeRegion(root, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_SerializeRegion)->Arg(2)->Arg(4);

void BM_SmallVectorPush(benchmark::State& state) {
  for (auto _ : state) {
    SmallVector<std::uint32_t, 8> v;
    for (std::uint32_t i = 0; i < 32; ++i) v.push_back(i);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_SmallVectorPush);

/// CRC-32C throughput of one body over a frame-sized (64 KiB) and a
/// checkpoint-generation-sized (5 MiB) buffer.
void BM_Crc32c(benchmark::State& state,
               std::uint32_t (*body)(const void*, std::size_t, std::uint32_t),
               bool needs_sse42) {
#if defined(PARATREET_CRC32C_SSE42)
  if (needs_sse42 && !util::detail::sse42Available()) {
    state.SkipWithError("this CPU has no SSE4.2 crc32 instruction");
    return;
  }
#endif
  (void)needs_sse42;
  std::vector<unsigned char> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(body(buf.data(), buf.size(), 0));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, table, util::detail::crc32cTable, false)
    ->Arg(64 << 10)->Arg(5 << 20);
#if defined(PARATREET_CRC32C_SSE42)
BENCHMARK_CAPTURE(BM_Crc32c, sse42, util::detail::crc32cSse42, true)
    ->Arg(64 << 10)->Arg(5 << 20);
#endif

/// Sequential gravity interaction sweep in the two orders, over a local
/// tree — the Table II phenomenon as a microbenchmark.
void traversalOrder(benchmark::State& state, bool transposed) {
  auto ps = particleSet(static_cast<std::size_t>(state.range(0)));
  NodeArena<CentroidData> arena;
  BuildOptions opts;
  opts.bucket_size = 16;
  auto* root = buildTree<CentroidData>(OctTreeType{}, arena,
                                       std::span<Particle>(ps), kUniverse,
                                       opts);
  std::vector<Node<CentroidData>*> buckets;
  forEachLeaf(root, [&](Node<CentroidData>* l) {
    if (l->type == NodeType::kLeaf) buckets.push_back(l);
  });
  GravityVisitor visitor;
  visitor.params.use_quadrupole = false;

  auto interact = [&](Node<CentroidData>* node, Node<CentroidData>* bucket,
                      auto&& recurse) -> void {
    auto src = SpatialNode<CentroidData>::of(*node);
    SpatialNode<CentroidData> tgt(bucket->data, bucket->box, bucket->key,
                                  bucket->n_particles, bucket->particles);
    if (node->type == NodeType::kEmptyLeaf) return;
    if (!visitor.open(src, tgt)) {
      visitor.node(src, tgt);
      return;
    }
    if (node->leaf()) {
      visitor.leaf(src, tgt);
      return;
    }
    for (int c = 0; c < node->n_children; ++c) {
      recurse(node->child(c), bucket, recurse);
    }
  };

  std::function<void(Node<CentroidData>*, std::vector<Node<CentroidData>*>)>
      transposed_walk = [&](Node<CentroidData>* node,
                            std::vector<Node<CentroidData>*> targets) {
        if (node->type == NodeType::kEmptyLeaf) return;
        auto src = SpatialNode<CentroidData>::of(*node);
        std::vector<Node<CentroidData>*> keep;
        for (auto* b : targets) {
          SpatialNode<CentroidData> tgt(b->data, b->box, b->key,
                                        b->n_particles, b->particles);
          if (visitor.open(src, tgt)) keep.push_back(b);
          else visitor.node(src, tgt);
        }
        if (keep.empty()) return;
        if (node->leaf()) {
          for (auto* b : keep) {
            SpatialNode<CentroidData> tgt(b->data, b->box, b->key,
                                          b->n_particles, b->particles);
            visitor.leaf(src, tgt);
          }
          return;
        }
        for (int c = 0; c < node->n_children; ++c) {
          transposed_walk(node->child(c), keep);
        }
      };

  for (auto _ : state) {
    if (transposed) {
      transposed_walk(root, buckets);
    } else {
      for (auto* b : buckets) interact(root, b, interact);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_TraversalTransposed(benchmark::State& state) {
  traversalOrder(state, true);
}
void BM_TraversalPerBucket(benchmark::State& state) {
  traversalOrder(state, false);
}
BENCHMARK(BM_TraversalTransposed)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraversalPerBucket)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
