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
// A second section replays the same benchmark recorded under LiteRace
// itself (same seed): every sync operation logged, memory operations
// sampled, so sync events dominate the trace. It has hb, fasttrack and
// online rows and its own identical_reports check.
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
#include "runtime/Runtime.h"
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

/// Records a fresh \p Kind workload once under LiteRace (the default
/// sampler; every sync operation logged) at \p Params' seed.
Trace recordLiteRace(WorkloadKind Kind, const WorkloadParams &Params) {
  MemorySink Sink(/*NumTimestampCounters=*/128);
  RuntimeConfig Config;
  Config.Mode = RunMode::LiteRace;
  Config.Seed = Params.Seed;
  Runtime RT(Config, &Sink);
  auto W = makeWorkload(Kind);
  W->bind(RT);
  W->run(RT, Params);
  return Sink.takeTrace();
}

/// Best-of-\p Repeats timing of \p Detect over \p T, added to \p Table.
template <typename DetectFn>
BackendPoint measure(const Trace &T, unsigned Repeats, TableFormatter &Table,
                     const char *Name, const char *Label, DetectFn Detect) {
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
  Table.addRow({Name, std::to_string(P.Races), std::to_string(P.RacyAddrs),
                TableFormatter::num(P.Seconds, 3) + "s",
                TableFormatter::num(P.EventsPerSec / 1e6, 1)});
  return P;
}

bool detectHB(const Trace &T, RaceReport &R) { return detectRaces(T, R); }

bool detectFastTrack(const Trace &T, RaceReport &R) {
  return detectRacesFastTrack(T, R);
}

bool detectOnline(const Trace &T, RaceReport &R) {
  OnlineDetector D(T.NumTimestampCounters, R);
  for (ThreadId Tid = 0; Tid != T.PerThread.size(); ++Tid)
    D.writeChunk(Tid, T.PerThread[Tid].data(), T.PerThread[Tid].size());
  return D.finish();
}

/// JSON rows of \p Points, one per line, indented by \p Indent.
void printRows(std::FILE *File, const std::vector<BackendPoint> &Points,
               const char *Indent) {
  for (size_t I = 0; I != Points.size(); ++I) {
    const BackendPoint &P = Points[I];
    std::fprintf(File,
                 "%s{\"backend\": \"%s\", \"seconds\": %.6f, "
                 "\"events_per_sec\": %.1f, \"static_races\": %zu, "
                 "\"racy_addrs\": %zu}%s\n",
                 Indent, P.Label, P.Seconds, P.EventsPerSec, P.Races,
                 P.RacyAddrs, I + 1 == Points.size() ? "" : ",");
  }
}

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
  Backends.push_back(measure(T, Repeats, Table,
                             "happens-before (vector clocks)", "hb",
                             detectHB));
  Backends.push_back(measure(T, Repeats, Table, "FastTrack (epochs)",
                             "fasttrack", detectFastTrack));
  Backends.push_back(measure(T, Repeats, Table,
                             "lockset (Eraser; imprecise)", "lockset",
                             [](const Trace &Tr, RaceReport &R) {
                               return detectLocksetViolations(Tr, R);
                             }));
  Backends.push_back(measure(T, Repeats, Table, "online (streaming sink)",
                             "online", detectOnline));
  Table.print();

  std::fprintf(stderr, "recording the LiteRace trace...\n");
  const Trace Sampled = recordLiteRace(WorkloadKind::ChannelWithStdLib,
                                       Params);
  std::fprintf(stderr, "sampled trace: %zu events (%zu memory, %zu sync)\n",
               Sampled.totalEvents(), Sampled.memoryOps(),
               Sampled.syncOps());
  TableFormatter SampledTable("The same benchmark recorded under LiteRace "
                              "(sync-dominated)");
  SampledTable.addRow(
      {"Detector", "Races", "Racy addrs", "Time", "M events/s"});
  std::vector<BackendPoint> SampledRows;
  SampledRows.push_back(measure(Sampled, Repeats, SampledTable,
                                "happens-before (vector clocks)", "hb",
                                detectHB));
  SampledRows.push_back(measure(Sampled, Repeats, SampledTable,
                                "FastTrack (epochs)", "fasttrack",
                                detectFastTrack));
  SampledRows.push_back(measure(Sampled, Repeats, SampledTable,
                                "online (streaming sink)", "online",
                                detectOnline));
  SampledTable.print();

  // The online sink drives the same HBDetector, so its report must
  // match the batch one byte for byte, on either trace.
  const bool Identical = Backends.front().Text == Backends.back().Text;
  const bool SampledIdentical =
      SampledRows.front().Text == SampledRows.back().Text;
  if (!Identical)
    std::fprintf(stderr, "ERROR: online report differs from batch output\n");
  if (!SampledIdentical)
    std::fprintf(stderr, "ERROR: online report differs from batch output "
                         "on the LiteRace trace\n");
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
    printRows(File, Backends, "    ");
    std::fprintf(File, "  ],\n");
    // Not under "backends": CI gates `backends[...].events_per_sec`
    // against a committed snapshot that has no sampled rows.
    std::fprintf(File,
                 "  \"sampled_literace\": {\n    \"events\": %zu,\n"
                 "    \"mem_ops\": %zu,\n    \"sync_ops\": %zu,\n"
                 "    \"identical_reports\": %s,\n    \"rows\": [\n",
                 Sampled.totalEvents(), Sampled.memoryOps(),
                 Sampled.syncOps(), SampledIdentical ? "true" : "false");
    printRows(File, SampledRows, "      ");
    std::fprintf(File, "    ]\n  }\n}\n");
    std::fclose(File);
    std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  }
  return Identical && SampledIdentical ? 0 : 1;
}
