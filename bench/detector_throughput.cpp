//===-- bench/detector_throughput.cpp - Detector backend comparison ---------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Compares the offline analysis cost of the three detector backends on
// one full-logging trace of the Dryad Channel + stdlib benchmark: the
// vector-clock happens-before detector (the paper's choice), the
// FastTrack-style epoch detector (PLDI 2009's answer to vector-clock
// cost, §6.1's [8]-adjacent line of work), and the Eraser-style lockset
// baseline — plus the streaming OnlineDetector sink, whose report must be
// byte-identical to the batch happens-before one (the exit status says
// whether it was). Reported as events/second over the identical replay.
//
// With --json[=PATH] the comparison is written as JSON (default
// BENCH_detector_throughput.json) so successive PRs can track the
// trajectory with tools/bench-compare. LITERACE_REPEATS>1 takes the best
// of N timings per backend.
//
//===----------------------------------------------------------------------===//

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LocksetDetector.h"
#include "detector/OnlineDetector.h"
#include "harness/DetectionExperiment.h"
#include "harness/Tables.h"
#include "support/TableFormatter.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace literace;

namespace {

/// One backend's best-of-N measurement, for the table and the JSON
/// snapshot. Label is a stable slug (bench-compare keys list entries on
/// it, so renaming one orphans its history).
struct BackendPoint {
  const char *Label = "";
  size_t Races = 0;
  size_t RacyAddrs = 0;
  double Seconds = 0.0;
  double EventsPerSec = 0.0;
  /// Rendered report of the last repeat.
  std::string Text;
};

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0)
      JsonPath = "BENCH_detector_throughput.json";
    else if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
  }

  WorkloadParams Params = paramsFromEnv();
  const unsigned Repeats = repeatsFromEnv(1);
  auto W = makeWorkload(WorkloadKind::ChannelWithStdLib);
  std::fprintf(stderr, "producing the trace...\n");
  ExperimentRun Run = executeExperiment(*W, Params);
  const Trace &T = Run.TraceData;
  std::fprintf(stderr, "trace: %zu events (%zu memory, %zu sync)\n",
               T.totalEvents(), T.memoryOps(), T.syncOps());

  TableFormatter Table("Detector backend throughput on one Dryad Channel "
                       "+ stdlib trace");
  Table.addRow({"Detector", "Races", "Racy addrs", "Time", "M events/s"});
  std::vector<BackendPoint> Backends;
  auto Measure = [&](const char *Name, const char *Label, auto Detect) {
    BackendPoint P;
    P.Label = Label;
    for (unsigned Rep = 0; Rep != (Repeats == 0 ? 1 : Repeats); ++Rep) {
      RaceReport Report;
      WallTimer Timer;
      bool Ok = Detect(T, Report);
      double Seconds = Timer.seconds();
      if (!Ok)
        std::fprintf(stderr, "warning: %s saw an inconsistent log\n", Name);
      if (Rep == 0 || Seconds < P.Seconds)
        P.Seconds = Seconds;
      P.Races = Report.numStaticRaces();
      P.RacyAddrs = Report.racyAddresses().size();
      P.Text = Report.describe();
    }
    P.EventsPerSec = static_cast<double>(T.totalEvents()) / P.Seconds;
    Backends.push_back(P);
    Table.addRow({Name, std::to_string(P.Races),
                  std::to_string(P.RacyAddrs),
                  TableFormatter::num(P.Seconds, 3) + "s",
                  TableFormatter::num(P.EventsPerSec / 1e6, 1)});
  };
  Measure("happens-before (vector clocks)", "hb",
          [](const Trace &Tr, RaceReport &R) { return detectRaces(Tr, R); });
  Measure("FastTrack (epochs)", "fasttrack",
          [](const Trace &Tr, RaceReport &R) {
            return detectRacesFastTrack(Tr, R);
          });
  Measure("lockset (Eraser; imprecise)", "lockset",
          [](const Trace &Tr, RaceReport &R) {
            return detectLocksetViolations(Tr, R);
          });
  Measure("online (streaming sink)", "online",
          [](const Trace &Tr, RaceReport &R) {
            OnlineDetector D(Tr.NumTimestampCounters, R);
            for (ThreadId Tid = 0; Tid != Tr.PerThread.size(); ++Tid)
              D.writeChunk(Tid, Tr.PerThread[Tid].data(),
                           Tr.PerThread[Tid].size());
            return D.finish();
          });
  Table.print();

  // The online sink drives the same HBDetector, so its report must
  // match the batch one byte for byte.
  const bool Identical = Backends.front().Text == Backends.back().Text;
  if (!Identical)
    std::fprintf(stderr, "ERROR: online report differs from batch output\n");
  std::fprintf(stderr, "host cores: %u\n",
               std::thread::hardware_concurrency());

  if (!JsonPath.empty()) {
    std::FILE *File = std::fopen(JsonPath.c_str(), "w");
    if (!File) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
      return 1;
    }
    std::fprintf(File,
                 "{\n  \"benchmark\": \"%s\",\n  \"events\": %zu,\n"
                 "  \"mem_ops\": %zu,\n  \"sync_ops\": %zu,\n"
                 "  \"host_cores\": %u,\n  \"identical_reports\": %s,\n",
                 W->name().c_str(), T.totalEvents(), T.memoryOps(),
                 T.syncOps(), std::thread::hardware_concurrency(),
                 Identical ? "true" : "false");
    std::fprintf(File, "  \"backends\": [\n");
    for (size_t I = 0; I != Backends.size(); ++I) {
      const BackendPoint &P = Backends[I];
      std::fprintf(File,
                   "    {\"backend\": \"%s\", \"seconds\": %.6f, "
                   "\"events_per_sec\": %.1f, \"static_races\": %zu, "
                   "\"racy_addrs\": %zu}%s\n",
                   P.Label, P.Seconds, P.EventsPerSec, P.Races, P.RacyAddrs,
                   I + 1 == Backends.size() ? "" : ",");
    }
    std::fprintf(File, "  ]\n}\n");
    std::fclose(File);
    std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  }
  return Identical ? 0 : 1;
}
