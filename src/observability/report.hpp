#pragma once

#include <string>

#include "observability/instrumentation.hpp"

namespace paratreet::obs {

/// End-of-run serializer: one `paratreet.observability.v2` JSON document
/// with every registered counter and histogram, the activity-profiler
/// totals, the exact per-name span totals (`spans`: the phase times) and
/// the recorded trace events (README "Observability" documents the
/// schema). The trace section doubles as a Chrome trace_event dump via
/// toChromeTrace().
class Reporter {
 public:
  explicit Reporter(Instrumentation instr) : instr_(instr) {}

  /// The full report document.
  std::string toJson() const;

  /// Only the spans, in Chrome trace_event format ("traceEvents" array of
  /// "ph":"X" complete events) — loadable in chrome://tracing / Perfetto.
  std::string toChromeTrace() const;

  /// Write toJson() to `path`; "-" (or empty) means stdout.
  void writeJson(const std::string& path) const;

  /// Write toChromeTrace() to `path`; "-" (or empty) means stdout.
  void writeChromeTrace(const std::string& path) const;

 private:
  Instrumentation instr_;
};

/// Escape a string for embedding in a JSON document (quotes not included).
std::string jsonEscape(const std::string& s);

}  // namespace paratreet::obs
