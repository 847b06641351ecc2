#pragma once

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "rts/profiler.hpp"

namespace paratreet {

/// The instrumentation context handed to Driver::run() / Forest: a
/// non-owning bundle of the three sinks the framework can emit into. Any
/// member may be null — every emitter treats a null sink as "disabled",
/// so a default-constructed Instrumentation is a zero-overhead no-op.
///
/// One handle carries activity profiling, the metrics registry (counts:
/// counters and histograms) and structured tracing, and the caller owns
/// the sinks. Time is recorded only as trace spans: the TraceBuffer's
/// exact per-name totals are the phase times, whether or not the ring
/// kept every event. Event counts live only in the registry (cache.*,
/// rts.*, checkpoint.*); nothing in a run zeroes them, so they are
/// cumulative until the caller's MetricsRegistry::resetAll().
struct Instrumentation {
  rts::ActivityProfiler* profiler = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceBuffer* trace = nullptr;

  bool enabled() const {
    return profiler != nullptr || metrics != nullptr || trace != nullptr;
  }
};

/// Owning convenience bundle for applications and benches: declare one
/// Observability on the stack, pass handle() to run(), then report.
struct Observability {
  rts::ActivityProfiler profiler;
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;

  Instrumentation handle() {
    return Instrumentation{&profiler, &metrics, &trace};
  }
};

}  // namespace paratreet
