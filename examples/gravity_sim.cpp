// Barnes-Hut gravity simulation of a Plummer star cluster, written
// exactly in the paper's Fig 8 style: a Driver subclass + the stock
// CentroidData / GravityVisitor pair. Integrates with leapfrog
// (kick-drift-kick) and reports energy conservation per step.
//
// Usage: gravity_sim [n_particles] [n_steps] [n_procs] [workers]
//                    [--checkpoint-every=K] [--checkpoint-dir=<path>]
//                    [--checkpoint-keep=K] [--resume] [--fault-torn-write]
//                    [--crash-at-step=N]
//                    [--wedge-at-step=N] [--heartbeat-ms=T]
//                    [--recovery-mode=restart|shrink] [--chaos-seed=<n>]
//                    [--transport=inproc|tcp] [--final-out=<snap>]
//                    [--fetch-depth=D] [--subtrees=S] [--partitions=P]
//                    [--bucket-size=B] [--seed=N]
//
// --checkpoint-every / --crash-at-step exercise the rank-crash fault
// tolerance: one seeded rank dies mid-iteration N and, with
// checkpointing on, the run recovers from the newest sealed in-memory
// checkpoint generation and resumes (README "Checkpoint / recovery").
//
// --wedge-at-step demos hang detection: the seeded rank goes silent
// without dying (SIGSTOP over --transport=tcp, parked scheduling
// inproc), heartbeats notice the missed pongs and promote the wedge to
// a crash, and recovery proceeds through the same checkpoint path.
// Heartbeats default on (100 ms interval, 3 misses) when a wedge is
// scheduled; tune with --heartbeat-ms= / --miss-threshold=.
//
// --checkpoint-dir / --resume survive whole-job death (README "Cold
// restart"): every sealed generation is also persisted to disk
// crash-consistently; kill -9 the entire process tree mid-run, relaunch
// with the same arguments plus --resume, and the run continues from the
// newest verifiable generation with bitwise-identical physics.
// --final-out writes the final particle state as a util/snapshot file,
// so two runs can be diffed bitwise with cmp(1). For cross-run bitwise
// comparisons pass --fetch-depth=32 (prefetch the whole tree): at the
// default shallow depth traversals resume in cache-response arrival
// order and force sums pick up run-varying last-ulp rounding. Pair it
// with one remote subtree per rank (--subtrees=2 on 2 procs) so each
// bucket suspends at most once.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "apps/gravity/gravity.hpp"
#include "bench/bench_util.hpp"
#include "core/driver.hpp"
#include "util/timer.hpp"

using namespace paratreet;

class GravityMain : public Driver<CentroidData, OctTreeType> {
 public:
  int steps = 10;
  double dt = 1e-3;
  GravityParams params{0.7, 1e-3, 1.0, true};
  /// Checkpoint/crash/fault knobs stripped from the CLI in main().
  Configuration cli;
  /// Tree-shape knobs, CLI-overridable (--subtrees= etc.): cross-run
  /// bitwise reproducibility needs each bucket's traversal to suspend on
  /// at most ONE remote fetch (so force terms always add in the same
  /// order), which takes one remote subtree per rank plus a whole-subtree
  /// fetch depth — e.g. --subtrees=2 --fetch-depth=32 on 2 procs.
  int subtrees = 8;
  int partitions = 16;
  int bucket = 12;

  void configure(Configuration& conf) override {
    conf = cli;
    conf.num_iterations = steps;
    conf.tree_type = TreeType::eOct;
    conf.decomp_type = DecompType::eSfc;
    conf.min_partitions = partitions;
    conf.min_subtrees = subtrees;
    conf.bucket_size = bucket;
  }

  void traversal(int /*iter*/) override {
    startDown<GravityVisitor>(GravityVisitor{params});
  }

  void postTraversal(int iter) override {
    // Kick-drift (semi-implicit Euler, symplectic): v += a dt; x += v dt.
    const double step = dt;
    forest().forEachParticle([step](Particle& p) {
      p.velocity += p.acceleration * step;
      p.position += p.velocity * step;
    });
    report(iter);
  }

 private:
  void report(int iter) {
    double kinetic = 0.0, potential = 0.0;
    Vec3 momentum{};
    for (const auto& p : forest().collect()) {
      kinetic += 0.5 * p.mass * p.velocity.lengthSquared();
      potential += 0.5 * p.mass * p.potential;  // pairwise: half the sum
      momentum += p.mass * p.velocity;
    }
    const double energy = kinetic + potential;
    // A resumed run starts past step 0; its first reported step anchors
    // the drift column instead (the absolute E stays comparable).
    if (!have_initial_energy_) {
      initial_energy_ = energy;
      have_initial_energy_ = true;
    }
    std::printf("step %3d  E=%.6f  dE/E0=%+.2e  K=%.4f  W=%.4f  |P|=%.2e\n",
                iter, energy, (energy - initial_energy_) / std::abs(initial_energy_),
                kinetic, potential, momentum.length());
  }

  double initial_energy_ = 0.0;
  bool have_initial_energy_ = false;
};

int main(int argc, char** argv) {
  Configuration cli;
  bench::ArgParser args(argc, argv);
  cli.fault = args.chaos();
  args.checkpointInto(cli);
  cli.transport = args.transport();
  std::string final_out;
  args.flag("--final-out=", final_out);
  int subtrees = 8, partitions = 16, bucket = 12;
  args.numberFlag("--subtrees=", subtrees);
  args.numberFlag("--partitions=", partitions);
  args.numberFlag("--bucket-size=", bucket);
  // Initial-conditions seed: different seeds give different Plummer
  // realizations (and different compatibility hashes, so a --resume
  // against checkpoints from another seed is rejected).
  std::uint64_t ic_seed = 1;
  args.numberFlag("--seed=", ic_seed);
  if (cli.fault.wedge_step >= 0 && cli.transport.heartbeat_interval_ms <= 0.0) {
    // A wedged rank never EOFs; only heartbeats can notice it. Default
    // them on so the demo recovers instead of riding the 30 s watchdog
    // into a thrown hang diagnostic.
    cli.transport.heartbeat_interval_ms = 100.0;
    cli.transport.miss_threshold = 3;
  }
  const std::size_t n = args.positional<std::size_t>(1, 5000, 1);
  const int steps = args.positional(2, 10, 1);
  const int procs = args.positional(3, 2, 1);
  const int workers = args.positional(4, 2, 1);

  rts::Runtime::Config rt_config;
  rt_config.n_procs = procs;
  rt_config.workers_per_proc = workers;
  rt_config.transport = cli.transport;
  rts::Runtime rt(rt_config);
  GravityMain app;
  app.steps = steps;
  app.cli = cli;
  app.subtrees = subtrees;
  app.partitions = partitions;
  app.bucket = bucket;

  std::printf("Barnes-Hut gravity: %zu particles (Plummer), %d steps, "
              "%d procs x %d workers\n",
              n, steps, procs, workers);
  if (cli.transport.kind != rts::TransportKind::kInProc) {
    std::printf("transport: %s\n", rts::toString(cli.transport.kind).c_str());
  }
  if (cli.checkpoint_every > 0) {
    std::printf("checkpointing every %d step(s), recovery mode: %s\n",
                cli.checkpoint_every, toString(cli.recovery_mode).c_str());
  }
  if (!cli.checkpoint_dir.empty()) {
    std::printf("durable checkpoints under %s (keep %d)%s%s\n",
                cli.checkpoint_dir.c_str(), cli.checkpoint_keep,
                cli.resume ? ", resuming" : "",
                cli.fault.torn_write ? ", torn-write fault armed" : "");
  }
  if (cli.fault.crash_step >= 0) {
    std::printf("rank crash scheduled at step %d (victim rank %d)\n",
                cli.fault.crash_step, cli.fault.crashVictim(procs));
  }
  if (cli.fault.wedge_step >= 0) {
    std::printf("rank wedge scheduled at step %d (victim rank %d), "
                "heartbeats every %.0f ms, dead after %d misses\n",
                cli.fault.wedge_step, cli.fault.wedgeVictim(procs),
                cli.transport.heartbeat_interval_ms,
                cli.transport.miss_threshold);
  }
  WallTimer timer;
  // Phase times come from the span totals; a capacity-0 trace keeps only
  // those totals, no events. Event counts come from the registry.
  obs::TraceBuffer phases(0);
  obs::MetricsRegistry counts;
  // A cold Plummer sphere (zero velocities): it contracts under its own
  // gravity, converting potential into kinetic energy. A resumed run
  // regenerates the same ICs — they seed the compatibility hash — but
  // physics continues from the restored checkpoint, not from them.
  try {
    app.run(rt, makeParticles(plummer(n, ic_seed, 0.25)),
            Instrumentation{nullptr, &counts, &phases});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gravity_sim: %s\n", e.what());
    return 1;
  }
  const double elapsed = timer.seconds();

  if (app.resumed()) {
    std::printf("resumed from on-disk generation step %d", app.resumedFromStep());
    if (app.resumeGenerationsSkipped() > 0) {
      std::printf(" (%d newer generation(s) failed verification: %s)",
                  app.resumeGenerationsSkipped(),
                  app.resumeDiagnostic().c_str());
    }
    std::printf("\n");
  } else if (cli.resume) {
    std::printf("resume requested but no generation on disk — started fresh\n");
  }

  std::printf("total %.3fs  (decompose %.3fs, build %.3fs, traverse %.3fs)\n",
              elapsed, phases.totalSeconds("decompose"),
              phases.totalSeconds("build"),
              phases.totalSeconds("traverse.top_down"));
  std::printf("run-total cache: %llu fetches, %llu nodes inserted\n",
              static_cast<unsigned long long>(
                  counts.counter("cache.misses").value()),
              static_cast<unsigned long long>(
                  counts.counter("cache.nodes_inserted").value()));
  if (cli.fault.crash_step >= 0 || cli.fault.wedge_step >= 0) {
    // A detected wedge is promoted to a crash by the heartbeat monitor,
    // so both faults land in the same counter.
    std::printf("rank crashes survived: %llu\n",
                static_cast<unsigned long long>(rt.crashCount()));
    if (rt.crashCount() == 0) {
      std::fprintf(stderr, "expected a rank %s but none fired\n",
                   cli.fault.crash_step >= 0 ? "crash" : "wedge");
      return 1;
    }
  }
  if (!final_out.empty()) {
    // Full final state in input order as a util/snapshot: two runs that
    // agree bitwise produce byte-identical files, so CI diffs them with
    // cmp(1) to prove resume ≡ uninterrupted.
    const auto particles = app.forest().collect();
    InitialConditions ic;
    ic.positions.resize(particles.size());
    ic.velocities.resize(particles.size());
    ic.masses.resize(particles.size());
    ic.radii.resize(particles.size());
    for (const auto& p : particles) {
      const auto i = static_cast<std::size_t>(p.order);
      if (i >= particles.size()) continue;
      ic.positions[i] = p.position;
      ic.velocities[i] = p.velocity;
      ic.masses[i] = p.mass;
      ic.radii[i] = p.ball_radius;
    }
    try {
      saveSnapshot(final_out, ic);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--final-out: %s\n", e.what());
      return 1;
    }
    std::printf("final state written to %s\n", final_out.c_str());
  }
  return 0;
}
