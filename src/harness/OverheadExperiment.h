//===-- harness/OverheadExperiment.h - §5.4 methodology -------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's overhead methodology (§5.4): run each benchmark under the
/// four instrumentation configurations (baseline, +dispatch checks,
/// +synchronization logging, full LiteRace) plus the full-logging
/// comparison point, measuring wall time and generated log volume. Logs
/// go through a SegmentedFileSink with default options (raw v2); the
/// volume counted is 32-byte records, as bytesWritten() reports it.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_HARNESS_OVERHEADEXPERIMENT_H
#define LITERACE_HARNESS_OVERHEADEXPERIMENT_H

#include "workloads/Workload.h"

#include <string>
#include <vector>

namespace literace {

/// One row of Table 5 / one bar group of Fig. 6.
struct OverheadRow {
  std::string Benchmark;
  double BaselineSec = 0.0;
  double DispatchOnlySec = 0.0;
  double SyncLoggingSec = 0.0;
  double LiteRaceSec = 0.0;
  double FullLoggingSec = 0.0;
  uint64_t LiteRaceLogBytes = 0;
  uint64_t FullLogBytes = 0;

  double liteRaceSlowdown() const { return LiteRaceSec / BaselineSec; }
  double fullLoggingSlowdown() const { return FullLoggingSec / BaselineSec; }
  double liteRaceLogMBps() const {
    return LiteRaceSec > 0
               ? static_cast<double>(LiteRaceLogBytes) / 1e6 / LiteRaceSec
               : 0.0;
  }
  double fullLogMBps() const {
    return FullLoggingSec > 0
               ? static_cast<double>(FullLogBytes) / 1e6 / FullLoggingSec
               : 0.0;
  }
};

/// Measures one benchmark under all five configurations. \p Repeats runs
/// per configuration, keeping the minimum time (the paper ran each ten
/// times). Log files are written under \p LogDir and removed afterwards.
OverheadRow runOverheadExperiment(WorkloadKind Kind,
                                  const WorkloadParams &Params,
                                  unsigned Repeats = 1,
                                  const std::string &LogDir = "/tmp");

} // namespace literace

#endif // LITERACE_HARNESS_OVERHEADEXPERIMENT_H
