//===-- examples/channel_pipeline.cpp - Offline log analysis ----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The paper's deployment workflow on the Dryad-channel benchmark:
//   1. run the instrumented application in LiteRace mode, streaming the
//      sampled log to disk (the profiler side),
//   2. later, read the log back and run happens-before detection offline
//      (the analyzer side, §4.4),
//   3. compare what the sampler caught against a full-logging run of the
//      same workload.
//
// Usage:  ./examples/channel_pipeline [log-path]
//
//===----------------------------------------------------------------------===//

#include "detector/HBDetector.h"
#include "workloads/Channel.h"

#include <cstdio>

using namespace literace;

namespace {

/// Runs the channel workload in \p Mode, logging to \p Path. Returns the
/// races detected from the on-disk log and the function registry size.
size_t runAndDetect(RunMode Mode, const std::string &Path,
                    RaceReport &Report) {
  SegmentedFileSink Sink(Path, /*NumTimestampCounters=*/128);
  if (!Sink.ok()) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return 0;
  }
  RuntimeConfig Config;
  Config.Mode = Mode;
  Runtime RT(Config, &Sink);
  ChannelWorkload Workload(/*WithStdLib=*/true);
  Workload.bind(RT);
  WorkloadParams Params;
  Params.Scale = 0.5;
  Workload.run(RT, Params);
  Sink.close();

  const TraceReadResult Read = readTrace(Path);
  if (Read.Status != TraceReadStatus::Ok) {
    std::fprintf(stderr, "error: cannot read back %s: %s\n", Path.c_str(),
                 Read.Error.c_str());
    return 0;
  }
  const Trace &T = Read.T;
  if (!detectRaces(T, Report))
    std::fprintf(stderr, "warning: log inconsistent\n");
  std::printf("[%s] %zu events on disk (%.1f MB), %zu static races\n",
              runModeName(Mode), T.totalEvents(),
              static_cast<double>(Sink.bytesWritten()) / 1e6,
              Report.numStaticRaces());
  return Report.numStaticRaces();
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Base = Argc > 1 ? Argv[1] : "/tmp/literace_channel";

  RaceReport Sampled, Full;
  size_t SampledRaces =
      runAndDetect(RunMode::LiteRace, Base + ".literace.bin", Sampled);
  size_t FullRaces =
      runAndDetect(RunMode::FullLogging, Base + ".full.bin", Full);

  std::printf("\nRaces in the sampled (LiteRace) log:\n%s",
              Sampled.describe().c_str());
  if (FullRaces)
    std::printf("\nLiteRace found %zu of %zu races this full-logging run "
                "saw (different executions, so counts vary run to run).\n",
                SampledRaces, FullRaces);
  std::remove((Base + ".literace.bin").c_str());
  std::remove((Base + ".full.bin").c_str());
  return 0;
}
