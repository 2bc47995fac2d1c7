//===-- tools/literace-report.cpp - Offline race analyzer CLI ---------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The "analyzer side" of the paper's offline workflow (§4.4): reads a v2
// or v2z log file produced by literace-run (or any SegmentedFileSink
// user), replays it, and reports data races. Three detector backends are
// available: the default vector-clock happens-before detector, the
// FastTrack-style epoch detector, and the Eraser-style lockset baseline
// (which may report false positives — it is included for comparison, as
// in the paper's §2).
//
// Usage:
//   literace-report <log.bin> [--detector hb|fasttrack|lockset]
//                   [--rare-threshold-memops <n>] [--quiet]
//                   [--salvage] [--strict]
//
// Damaged logs: by default (--salvage) the reader recovers every intact
// checksummed segment and the replay tolerates the resulting timestamp
// gaps, so a crashed or corrupted recording still yields a report — over
// the recovered subset of the execution, with the coverage loss printed.
// --strict restores fail-stop behavior: any imperfection is exit 1.
//
// --stats adds the trace profile and one line per stage (read, profile,
// detect, render) with its wall and CPU time, plus the bytes read and
// minor page faults taken by the read; the stages add up to the "total"
// line. The memory and sync counts come from the reader, which counts
// them as it decodes, so no stage walks the trace again to count them.
//
//===----------------------------------------------------------------------===//

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LocksetDetector.h"
#include "runtime/EventLog.h"
#include "runtime/TraceStats.h"
#include "support/Timer.h"
#include "telemetry/Metrics.h"
#include "telemetry/Timeline.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>

using namespace literace;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <log.bin> [--detector hb|fasttrack|lockset] "
               "[--suppress <file>] [--stats] [--quiet] "
               "[--metrics <dir>] [--salvage] [--strict]\n"
               "--metrics writes <dir>/metrics.json and "
               "<dir>/trace.perfetto.json\n"
               "--salvage (default) recovers what it can from damaged "
               "logs; --strict fails instead\n",
               Argv0);
  return 2;
}

/// Writes \p Data to \p Path; reports on stderr.
bool writeTextFile(const std::string &Path, const std::string &Data) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  bool Ok = std::fwrite(Data.data(), 1, Data.size(), File) == Data.size();
  Ok &= std::fclose(File) == 0;
  return Ok;
}

/// Reads \p Path whole; empty optional if unreadable.
std::optional<std::string> readTextFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return std::nullopt;
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
    Data.append(Buf, N);
  std::fclose(File);
  return Data;
}

/// Reads a suppression file: one pc per line (hex with 0x or decimal),
/// '#' comments. Returns false on I/O failure.
bool readSuppressions(const std::string &Path, std::set<Pc> &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "r");
  if (!File)
    return false;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), File)) {
    char *P = Line;
    while (*P == ' ' || *P == '\t')
      ++P;
    if (*P == '#' || *P == '\n' || *P == '\0')
      continue;
    Out.insert(std::strtoull(P, nullptr, 0));
  }
  std::fclose(File);
  return true;
}

/// Wall time, CPU time and minor page faults spent in one stage, summed
/// over its start()/stop() spans (CPU and faults from getrusage).
class StageClock {
public:
  void start() {
    Wall.restart();
    Begin = usage();
  }
  void stop() {
    const Usage End = usage();
    WallMs += Wall.seconds() * 1e3;
    CpuMs += End.CpuMs - Begin.CpuMs;
    MinorFaults += End.MinorFaults - Begin.MinorFaults;
  }
  double wallMs() const { return WallMs; }
  double cpuMs() const { return CpuMs; }
  long minorFaults() const { return MinorFaults; }

private:
  struct Usage {
    double CpuMs = 0;
    long MinorFaults = 0;
  };
  static Usage usage() {
    struct rusage U;
    ::getrusage(RUSAGE_SELF, &U);
    auto Ms = [](const timeval &T) {
      return static_cast<double>(T.tv_sec) * 1e3 +
             static_cast<double>(T.tv_usec) / 1e3;
    };
    return {Ms(U.ru_utime) + Ms(U.ru_stime), U.ru_minflt};
  }

  WallTimer Wall;
  Usage Begin;
  double WallMs = 0;
  double CpuMs = 0;
  long MinorFaults = 0;
};

/// Prints one --stats stage line: "stage <name>: <wall> ms wall, <cpu> ms
/// cpu".
void printStage(const char *Name, const StageClock &C) {
  std::printf("stage %s: %.1f ms wall, %.1f ms cpu\n", Name, C.wallMs(),
              C.cpuMs());
}

} // namespace

int main(int Argc, char **Argv) {
  StageClock Total, ReadStage, ProfileStage, DetectStage, RenderStage;
  Total.start();
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Path = Argv[1];
  std::string Detector = "hb";
  std::string MetricsDir;
  bool Quiet = false;
  bool Stats = false;
  bool Metrics = false;
  bool Salvage = true;
  std::set<Pc> Suppressed;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--detector" && I + 1 < Argc)
      Detector = Argv[++I];
    else if (Arg == "--metrics" && I + 1 < Argc) {
      Metrics = true;
      MetricsDir = Argv[++I];
    }
    else if (Arg == "--quiet")
      Quiet = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--salvage")
      Salvage = true;
    else if (Arg == "--strict")
      Salvage = false;
    else if (Arg == "--suppress" && I + 1 < Argc) {
      if (!readSuppressions(Argv[++I], Suppressed)) {
        std::fprintf(stderr, "error: cannot read suppressions '%s'\n",
                     Argv[I]);
        return 1;
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }

  // v2 and v2z read alike; salvage damaged files unless --strict.
  TraceReadOptions ReadOpts;
  ReadOpts.Salvage = Salvage;
  ReadStage.start();
  TraceReadResult Read = readTrace(Path, ReadOpts);
  ReadStage.stop();
  RenderStage.start();
  if (!Read.readable()) {
    std::fprintf(stderr, "error: '%s' is not a readable literace log%s%s\n",
                 Path.c_str(), Read.Error.empty() ? "" : ": ",
                 Read.Error.c_str());
    return 1;
  }
  const Trace *T = &Read.T;
  const bool Salvaged = Read.Status == TraceReadStatus::Salvaged;
  if (Salvaged) {
    const TraceReadStats &RS = Read.Stats;
    std::fprintf(stderr,
                 "salvaged %s log: %llu segment(s) recovered, %llu "
                 "dropped, %llu event(s)%s%s%s — the report covers the "
                 "recovered subset of the execution\n",
                 traceFormatName(RS.Format),
                 static_cast<unsigned long long>(RS.SegmentsRecovered),
                 static_cast<unsigned long long>(RS.SegmentsDropped),
                 static_cast<unsigned long long>(RS.EventsRecovered),
                 RS.TruncatedTail ? ", truncated tail" : "",
                 RS.SalvagedHeader ? ", damaged file header" : "",
                 RS.CleanShutdown ? "" : ", no clean shutdown");
  }
  if (Stats) {
    RenderStage.stop();
    ProfileStage.start();
    const TraceStats Profile = TraceStats::compute(*T);
    ProfileStage.stop();
    RenderStage.start();
    std::printf("%s", Profile.describe().c_str());
  }
  const size_t Events = T->totalEvents();
  const uint64_t MemoryOps = Read.Stats.MemoryEvents;
  const uint64_t SyncOps = Read.Stats.SyncEvents;
  std::fprintf(stderr,
               "%s: %zu threads, %zu events (%llu memory, %llu sync), "
               "%u timestamp counters\n",
               Path.c_str(), T->PerThread.size(), Events,
               static_cast<unsigned long long>(MemoryOps),
               static_cast<unsigned long long>(SyncOps),
               T->NumTimestampCounters);

  // A salvaged trace is missing sync events whose timestamps the replay
  // would otherwise wait on forever; let the scheduler skip those gaps
  // (the detectors conservatively over-order across each gap, so reported
  // races are a subset of the full-trace report — docs/ROBUSTNESS.md).
  ReplayOptions Replay;
  uint64_t TimestampGaps = 0;
  if (Salvaged) {
    Replay.AllowTimestampGaps = true;
    Replay.OutTimestampGaps = &TimestampGaps;
  }

  RaceReport Report;
  RenderStage.stop();
  DetectStage.start();
  bool Consistent;
  if (Detector == "hb") {
    Consistent = detectRaces(*T, Report, Replay);
  } else if (Detector == "fasttrack") {
    Consistent = detectRacesFastTrack(*T, Report, Replay);
  } else if (Detector == "lockset") {
    std::fprintf(stderr, "note: the lockset detector may report FALSE "
                         "positives (see paper §2)\n");
    Consistent = detectLocksetViolations(*T, Report, Replay);
  } else {
    std::fprintf(stderr, "error: unknown detector '%s'\n",
                 Detector.c_str());
    return usage(Argv[0]);
  }
  DetectStage.stop();
  const double Seconds = DetectStage.wallMs() / 1e3;
  RenderStage.start();
  if (!Consistent) {
    std::fprintf(stderr, "error: log is inconsistent (missing or "
                         "duplicated sync events)\n");
    return 1;
  }
  if (TimestampGaps != 0)
    std::fprintf(stderr,
                 "replay skipped %llu timestamp gap(s) left by dropped "
                 "segments\n",
                 static_cast<unsigned long long>(TimestampGaps));

  auto [Rare, Frequent] = Report.splitRareFrequent(MemoryOps);
  std::printf("%zu static race(s): %zu rare, %zu frequent "
              "(3-per-million-memops rule)\n",
              Report.numStaticRaces(), Rare.size(), Frequent.size());
  size_t Remaining = Report.numStaticRaces();
  if (!Suppressed.empty()) {
    Remaining = Report.staticRacesExcluding(Suppressed).size();
    std::printf("%zu after suppressions (%zu suppressed)\n", Remaining,
                Report.numStaticRaces() - Remaining);
  }
  if (!Quiet)
    std::printf("%s", Report.describe().c_str());
  std::fprintf(stderr, "analyzed in %.3fs (%.1f M events/s)\n", Seconds,
               static_cast<double>(Events) / 1e6 / Seconds);

  if (Metrics) {
    // Merge every plane we have: detector counters folded into the
    // process registry during the analysis above, the recording run's
    // sidecar (if literace-run left one next to the log), and
    // trace/report-derived figures.
    telemetry::MetricsSnapshot Snap;
    if (telemetry::MetricsRegistry *M = telemetry::resolveRegistry(nullptr))
      Snap = M->snapshot();
    if (auto Sidecar = readTextFile(Path + ".metrics.json")) {
      if (auto Recorded = telemetry::MetricsSnapshot::fromJson(*Sidecar))
        Snap.merge(*Recorded);
      else
        std::fprintf(stderr, "warning: ignoring malformed sidecar "
                             "'%s.metrics.json'\n",
                     Path.c_str());
    }
    Snap.setCounter("trace.events", Events);
    Snap.setCounter("trace.memory_ops", MemoryOps);
    Snap.setCounter("trace.sync_ops", SyncOps);
    Snap.setGauge("trace.threads", T->PerThread.size());
    Snap.setCounter("report.static_races", Report.numStaticRaces());
    Snap.setCounter("report.analysis_us",
                    static_cast<uint64_t>(Seconds * 1e6));
    if (Salvaged) {
      Snap.setCounter("trace.segments.recovered",
                      Read.Stats.SegmentsRecovered);
      Snap.setCounter("trace.segments.dropped", Read.Stats.SegmentsDropped);
      Snap.setCounter("report.timestamp_gaps", TimestampGaps);
    }
    const std::string MetricsPath = MetricsDir + "/metrics.json";
    const std::string TracePath = MetricsDir + "/trace.perfetto.json";
    telemetry::TraceWriter Timeline = telemetry::buildTraceTimeline(*T);
    Timeline.append(telemetry::TraceRecorder::global().drainWriter());
    if (writeTextFile(MetricsPath, Snap.toJson()) &&
        writeTextFile(TracePath, Timeline.toJson()))
      std::fprintf(stderr, "wrote %s and %s (%zu timeline events)\n",
                   MetricsPath.c_str(), TracePath.c_str(),
                   Timeline.size());
  }
  if (Stats) {
    RenderStage.stop();
    Total.stop();
    std::printf("stage read: %.1f MB, %.1f ms wall, %.1f ms cpu, %ld minor "
                "faults\n",
                static_cast<double>(Read.Stats.BytesRead) / 1e6,
                ReadStage.wallMs(), ReadStage.cpuMs(),
                ReadStage.minorFaults());
    printStage("profile", ProfileStage);
    printStage("detect", DetectStage);
    printStage("render", RenderStage);
    printStage("total", Total);
  }
  return Remaining == 0 ? 0 : 3;
}
