// Dataset generator: builds one of the synthetic particle distributions
// that stand in for the paper's simulation snapshots and writes it as a
// ParaTreeT snapshot (Configuration::input_file format), optionally with
// a CSV sidecar for plotting.
//
// Usage: make_dataset <uniform|plummer|clustered|disk> <n> <seed> <out> [--csv]

#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "util/distributions.hpp"
#include "util/snapshot.hpp"

using namespace paratreet;

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  const bool csv = args.boolFlag("--csv");
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: %s <uniform|plummer|clustered|disk> <n> <seed> "
                 "<out.ptreet> [--csv]\n",
                 argv[0]);
    return 1;
  }
  const std::string kind = argv[1];
  const std::size_t n = args.positional<std::size_t>(2, 0, 1);
  const std::uint64_t seed = args.positional<std::uint64_t>(3, 0);
  const std::string out = argv[4];

  InitialConditions ic;
  if (kind == "uniform") ic = uniformCube(n, seed);
  else if (kind == "plummer") ic = plummer(n, seed);
  else if (kind == "clustered") ic = clustered(n, seed);
  else if (kind == "disk") ic = planetesimalDisk(n, seed);
  else {
    std::fprintf(stderr, "unknown dataset kind: %s\n", kind.c_str());
    return 1;
  }

  saveSnapshot(out, ic);
  if (csv) exportCsv(out + ".csv", ic);

  const auto box = ic.boundingBox();
  double mass = 0;
  for (double m : ic.masses) mass += m;
  std::printf("wrote %zu particles (%s, seed %llu) to %s\n", ic.size(),
              kind.c_str(), static_cast<unsigned long long>(seed),
              out.c_str());
  std::printf("bounding box: [%g, %g, %g] .. [%g, %g, %g]\n",
              box.lesser_corner.x, box.lesser_corner.y, box.lesser_corner.z,
              box.greater_corner.x, box.greater_corner.y, box.greater_corner.z);
  std::printf("total mass: %g\n", mass);
  return 0;
}
