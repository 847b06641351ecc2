#include "observability/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace paratreet::obs {

namespace {

/// Shortest round-trippable representation; JSON has no Inf/NaN, so
/// non-finite values are emitted as null.
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void appendTraceEvents(std::ostringstream& out,
                       const std::vector<TraceEvent>& events) {
  out << '[';
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
        << jsonEscape(ev.category) << "\",\"ph\":\"X\",\"ts\":" << ev.start_us
        << ",\"dur\":" << ev.duration_us << ",\"pid\":" << ev.proc
        << ",\"tid\":" << ev.worker << '}';
  }
  out << ']';
}

void writeTo(const std::string& path, const std::string& content) {
  if (path.empty() || path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    std::fputc('\n', stdout);
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << content << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Reporter::toJson() const {
  std::ostringstream out;
  out << "{\"schema\":\"paratreet.observability.v2\"";

  if (instr_.metrics != nullptr) {
    out << ",\"counters\":{";
    bool first = true;
    instr_.metrics->forEachCounter([&](const Counter& c) {
      if (!first) out << ',';
      first = false;
      out << '"' << jsonEscape(c.name()) << "\":" << c.value();
    });
    out << "},\"histograms\":{";
    first = true;
    instr_.metrics->forEachHistogram([&](const Histogram& h) {
      if (!first) out << ',';
      first = false;
      const HistogramSnapshot snap = h.snapshot();
      out << '"' << jsonEscape(h.name()) << "\":{\"count\":" << snap.count
          << ",\"sum\":" << jsonNumber(snap.sum)
          << ",\"min\":" << jsonNumber(snap.min)
          << ",\"max\":" << jsonNumber(snap.max) << ",\"buckets\":[";
      for (std::size_t b = 0; b < snap.counts.size(); ++b) {
        if (b > 0) out << ',';
        out << "{\"le\":";
        if (b < snap.bounds.size()) out << jsonNumber(snap.bounds[b]);
        else out << "\"inf\"";
        out << ",\"count\":" << snap.counts[b] << '}';
      }
      out << "]}";
    });
    out << '}';
  }

  if (instr_.profiler != nullptr) {
    out << ",\"activities\":{";
    for (std::size_t i = 0; i < rts::kNumActivities; ++i) {
      const auto a = static_cast<rts::Activity>(i);
      if (i > 0) out << ',';
      out << '"' << jsonEscape(std::string(rts::kActivityNames[i]))
          << "\":{\"seconds\":" << jsonNumber(instr_.profiler->seconds(a))
          << ",\"events\":" << instr_.profiler->count(a) << '}';
    }
    out << '}';
  }

  if (instr_.trace != nullptr) {
    out << ",\"spans\":{";
    bool first = true;
    instr_.trace->forEachTotal(
        [&](const char* name, double seconds, std::uint64_t count) {
          if (!first) out << ',';
          first = false;
          out << '"' << jsonEscape(name) << "\":{\"seconds\":"
              << jsonNumber(seconds) << ",\"count\":" << count << '}';
        });
    out << "},\"trace\":{\"dropped\":" << instr_.trace->dropped()
        << ",\"totals_overflow\":" << instr_.trace->totalsOverflow()
        << ",\"events\":";
    appendTraceEvents(out, instr_.trace->snapshot());
    out << '}';
  }

  out << '}';
  return out.str();
}

std::string Reporter::toChromeTrace() const {
  std::ostringstream out;
  out << "{\"traceEvents\":";
  appendTraceEvents(out, instr_.trace != nullptr
                             ? instr_.trace->snapshot()
                             : std::vector<TraceEvent>{});
  out << '}';
  return out.str();
}

void Reporter::writeJson(const std::string& path) const {
  writeTo(path, toJson());
}

void Reporter::writeChromeTrace(const std::string& path) const {
  writeTo(path, toChromeTrace());
}

}  // namespace paratreet::obs
