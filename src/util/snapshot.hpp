#pragma once

#include <string>

#include "util/distributions.hpp"

namespace paratreet {

/// Simple binary snapshot format for particle initial conditions, filling
/// the role of the paper's `conf.input_file` (tipsy snapshots in the
/// original): a fixed header (magic, version, count) followed by packed
/// per-particle records (position, velocity, mass, radius), all
/// little-endian doubles.
///
/// Throws std::runtime_error on malformed files or I/O failure —
/// including structural corruption: a file whose byte length disagrees
/// with the header's particle count (truncated or oversized) and
/// non-finite (NaN/inf) particle positions are both rejected with errors
/// naming the offender.
///
/// saveSnapshot converts in chunks and overlaps each chunk's disk write
/// with the conversion of the next.
void saveSnapshot(const std::string& path, const InitialConditions& ic);
InitialConditions loadSnapshot(const std::string& path);

/// Strict physics-level validation for simulation inputs: rejects
/// non-finite positions and non-positive (or missing) masses, reporting
/// the offender count and first offending index for each class.
/// Driver::run() applies this to conf.input_file; bare loadSnapshot stays
/// permissive about masses so partial snapshots (positions-only, for
/// analysis tooling) remain loadable.
void validateInitialConditions(const InitialConditions& ic);

/// Text export for external analysis: one "x y z vx vy vz mass radius"
/// row per particle, with a '#' header line.
void exportCsv(const std::string& path, const InitialConditions& ic);

}  // namespace paratreet
