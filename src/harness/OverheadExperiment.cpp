//===-- harness/OverheadExperiment.cpp - §5.4 methodology -----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/OverheadExperiment.h"

#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace literace;

namespace {

/// Runs one configuration once; returns {seconds, log bytes}.
std::pair<double, uint64_t> runOnce(WorkloadKind Kind,
                                    const WorkloadParams &Params,
                                    RunMode Mode,
                                    const std::string &LogPath) {
  std::unique_ptr<Workload> W = makeWorkload(Kind);
  RuntimeConfig Config;
  Config.Mode = Mode;
  Config.Seed = Params.Seed;

  // The sink literace-run writes by default: raw v2 segments.
  std::unique_ptr<SegmentedFileSink> Sink;
  if (Mode >= RunMode::SyncLogging) {
    Sink = std::make_unique<SegmentedFileSink>(LogPath,
                                               Config.TimestampCounters);
    assert(Sink->ok() && "failed to open log file");
  }

  Runtime RT(Config, Sink.get());
  W->bind(RT);

  WallTimer Timer;
  W->run(RT, Params);
  if (Sink)
    Sink->close();
  double Seconds = Timer.seconds();

  uint64_t Bytes = Sink ? Sink->bytesWritten() : 0;
  if (Sink)
    std::remove(LogPath.c_str());
  return {Seconds, Bytes};
}

} // namespace

OverheadRow literace::runOverheadExperiment(WorkloadKind Kind,
                                            const WorkloadParams &Params,
                                            unsigned Repeats,
                                            const std::string &LogDir) {
  assert(Repeats >= 1 && "need at least one run");
  OverheadRow Row;
  Row.Benchmark = makeWorkload(Kind)->name();
  const std::string LogPath =
      LogDir + "/literace_overhead_" + std::to_string(static_cast<int>(Kind)) +
      ".bin";

  struct ModeSpec {
    RunMode Mode;
    double OverheadRow::*Time;
  };
  const ModeSpec Specs[] = {
      {RunMode::Baseline, &OverheadRow::BaselineSec},
      {RunMode::DispatchOnly, &OverheadRow::DispatchOnlySec},
      {RunMode::SyncLogging, &OverheadRow::SyncLoggingSec},
      {RunMode::LiteRace, &OverheadRow::LiteRaceSec},
      {RunMode::FullLogging, &OverheadRow::FullLoggingSec},
  };

  for (const ModeSpec &Spec : Specs) {
    double Best = 0.0;
    uint64_t Bytes = 0;
    for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
      auto [Seconds, LogBytes] = runOnce(Kind, Params, Spec.Mode, LogPath);
      Best = Rep == 0 ? Seconds : std::min(Best, Seconds);
      Bytes = LogBytes;
    }
    Row.*(Spec.Time) = Best;
    if (Spec.Mode == RunMode::LiteRace)
      Row.LiteRaceLogBytes = Bytes;
    if (Spec.Mode == RunMode::FullLogging)
      Row.FullLogBytes = Bytes;
  }
  return Row;
}
