//===-- bench/DetectionSuiteCommon.h - Shared bench driver -----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared driver for the detection-study bench binaries (Tables 2-4,
/// Figures 4-5): runs the §5.3 experiment over a benchmark suite with
/// parameters taken from the environment (LITERACE_SCALE,
/// LITERACE_REPEATS, LITERACE_SEED).
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_BENCH_DETECTIONSUITECOMMON_H
#define LITERACE_BENCH_DETECTIONSUITECOMMON_H

#include "harness/Tables.h"

#include <cstdio>
#include <vector>

namespace literace {

/// The eight Fig. 4 benchmark-input pairs, in paper order.
inline std::vector<WorkloadKind> detectionSuiteKinds() {
  return {WorkloadKind::ChannelWithStdLib, WorkloadKind::Channel,
          WorkloadKind::ConcRTMessaging,   WorkloadKind::ConcRTScheduling,
          WorkloadKind::Httpd1,            WorkloadKind::Httpd2,
          WorkloadKind::BrowserStart,      WorkloadKind::BrowserRender};
}

/// The six Table 4 / Fig. 5 pairs (no ConcRT).
inline std::vector<WorkloadKind> rareFrequentSuiteKinds() {
  return {WorkloadKind::ChannelWithStdLib, WorkloadKind::Channel,
          WorkloadKind::Httpd1,            WorkloadKind::Httpd2,
          WorkloadKind::BrowserStart,      WorkloadKind::BrowserRender};
}

/// Runs the detection experiment for each kind, with progress on stderr.
inline std::vector<DetectionResult>
runDetectionSuite(const std::vector<WorkloadKind> &Kinds,
                  unsigned DefaultRepeats = 1) {
  WorkloadParams Params = paramsFromEnv();
  unsigned Repeats = repeatsFromEnv(DefaultRepeats);
  std::vector<DetectionResult> Results;
  for (WorkloadKind Kind : Kinds) {
    Results.push_back(runDetectionExperiment(Kind, Params, Repeats));
    std::fprintf(stderr, "  [detection] %s done (%zu static races)\n",
                 Results.back().Benchmark.c_str(),
                 Results.back().StaticTotal);
  }
  return Results;
}

} // namespace literace

#endif // LITERACE_BENCH_DETECTIONSUITECOMMON_H
