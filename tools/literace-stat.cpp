//===-- tools/literace-stat.cpp - Telemetry triage CLI ----------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Triage tool for recorded logs (docs/TELEMETRY.md): merges everything we
// know about a run into one metrics snapshot and prints it — trace-derived
// profile (TraceStats), the recording runtime's counters from the
// <log>.metrics.json sidecar written by literace-run (sampled/unsampled
// activations, elided ops, flush latencies, sampler back-offs). Can
// export the merged snapshot as metrics.json and the trace as a Chrome
// trace-event / Perfetto timeline.
//
// Usage:
//   literace-stat <log.bin> [--metrics <sidecar.json>]...
//                 [--json <out.json>] [--prometheus <out.prom|->]
//                 [--perfetto <out.json>] [--quiet]
//
//   --metrics   explicit sidecar path (default: <log.bin>.metrics.json
//               when it exists). Repeatable: sidecars from multiple
//               concurrent processes merge (counters add, gauges max),
//               and their capture stamps order the merged snapshot
//   --json      write the merged snapshot (literace.metrics.v1 schema)
//   --prometheus
//               write the merged snapshot in Prometheus text-exposition
//               format ('-' = stdout), same writer as the collector's
//               /metrics endpoint
//   --perfetto  write the timeline (load at ui.perfetto.dev)
//   --quiet     suppress the human-readable triage rendering
//
//===----------------------------------------------------------------------===//

#include "runtime/EventLog.h"
#include "runtime/TraceStats.h"
#include "telemetry/Metrics.h"
#include "telemetry/Prometheus.h"
#include "telemetry/Timeline.h"

#include <vector>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

using namespace literace;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <log.bin> [--metrics <sidecar.json>]... "
               "[--json <out.json>] "
               "[--prometheus <out.prom|->] "
               "[--perfetto <out.json>] [--quiet]\n",
               Argv0);
  return 2;
}

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

bool writeTextFile(const std::string &Path, const std::string &Data) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  bool Ok = std::fwrite(Data.data(), 1, Data.size(), File) == Data.size();
  Ok &= std::fclose(File) == 0;
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Path = Argv[1];
  std::vector<std::string> SidecarPaths;
  std::string JsonOut;
  std::string PrometheusOut;
  std::string PerfettoOut;
  bool Quiet = false;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--metrics" && I + 1 < Argc)
      SidecarPaths.push_back(Argv[++I]);
    else if (Arg == "--prometheus" && I + 1 < Argc)
      PrometheusOut = Argv[++I];
    else if (Arg == "--json" && I + 1 < Argc)
      JsonOut = Argv[++I];
    else if (Arg == "--perfetto" && I + 1 < Argc)
      PerfettoOut = Argv[++I];
    else if (Arg == "--quiet")
      Quiet = true;
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }

  // Accept every on-disk format transparently; a damaged log is triaged
  // from its salvaged subset (with the loss folded into the snapshot).
  TraceReadResult Read = readTrace(Path);
  if (!Read.readable()) {
    std::fprintf(stderr, "error: '%s' is not a readable literace log%s%s\n",
                 Path.c_str(), Read.Error.empty() ? "" : ": ",
                 Read.Error.c_str());
    return 1;
  }
  const Trace *T = &Read.T;
  if (Read.Status == TraceReadStatus::Salvaged)
    std::fprintf(stderr,
                 "note: '%s' was salvaged (%llu segment(s) dropped); "
                 "figures cover the recovered subset\n",
                 Path.c_str(),
                 static_cast<unsigned long long>(
                     Read.Stats.SegmentsDropped));

  TraceStats Stats = TraceStats::compute(*T);
  telemetry::MetricsSnapshot Snap;

  // Plane 1: the recording runtimes' own counters, via sidecars. More
  // than one --metrics merges multi-process runs: counters add, gauges
  // max, and the capture stamps (time + pid) say which processes
  // contributed and how the snapshots order.
  const std::string DefaultSidecar = Path + ".metrics.json";
  if (SidecarPaths.empty())
    SidecarPaths.push_back(DefaultSidecar);
  bool HaveSidecar = false;
  for (const std::string &SidecarPath : SidecarPaths) {
    auto Sidecar = readTextFile(SidecarPath);
    if (!Sidecar) {
      if (SidecarPath != DefaultSidecar)
        std::fprintf(stderr, "warning: cannot read sidecar '%s'\n",
                     SidecarPath.c_str());
      continue;
    }
    if (auto Recorded = telemetry::MetricsSnapshot::fromJson(*Sidecar)) {
      Snap.merge(*Recorded);
      HaveSidecar = true;
    } else {
      std::fprintf(stderr, "warning: '%s' is not a literace metrics "
                           "document; ignoring it\n",
                   SidecarPath.c_str());
    }
  }

  // Plane 2: the trace itself.
  Snap.setCounter("trace.events", Stats.TotalEvents);
  Snap.setCounter("trace.reads", Stats.Reads);
  Snap.setCounter("trace.writes", Stats.Writes);
  Snap.setCounter("trace.sync_ops", Stats.SyncOps);
  Snap.setCounter("trace.distinct_addresses", Stats.DistinctAddresses);
  Snap.setCounter("trace.distinct_syncvars", Stats.DistinctSyncVars);
  Snap.setGauge("trace.threads", Stats.NumThreads);
  if (Read.Status == TraceReadStatus::Salvaged) {
    Snap.setCounter("trace.segments.recovered",
                    Read.Stats.SegmentsRecovered);
    Snap.setCounter("trace.segments.dropped", Read.Stats.SegmentsDropped);
  }

  if (!Quiet) {
    std::printf("== trace profile ==\n%s", Stats.describe().c_str());
    std::printf("== metrics ==\n%s", Snap.describe().c_str());
    if (!HaveSidecar)
      std::printf("(no runtime sidecar at %s — record with literace-run "
                  "to capture runtime counters)\n",
                  DefaultSidecar.c_str());
  }

  if (!JsonOut.empty()) {
    if (!writeTextFile(JsonOut, Snap.toJson())) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonOut.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", JsonOut.c_str());
  }

  if (!PrometheusOut.empty()) {
    const std::string Text = telemetry::toPrometheusText(Snap);
    std::string Error;
    if (!telemetry::validatePrometheusText(Text, &Error)) {
      std::fprintf(stderr, "internal error: invalid exposition: %s\n",
                   Error.c_str());
      return 1;
    }
    if (PrometheusOut == "-") {
      std::fwrite(Text.data(), 1, Text.size(), stdout);
    } else if (!writeTextFile(PrometheusOut, Text)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   PrometheusOut.c_str());
      return 1;
    } else {
      std::fprintf(stderr, "wrote %s\n", PrometheusOut.c_str());
    }
  }

  if (!PerfettoOut.empty()) {
    telemetry::TraceWriter Timeline = telemetry::buildTraceTimeline(*T);
    Timeline.append(telemetry::TraceRecorder::global().drainWriter());
    std::string Json = Timeline.toJson();
    std::string Error;
    if (!telemetry::validateChromeTraceJson(Json, &Error)) {
      std::fprintf(stderr, "internal error: invalid trace JSON: %s\n",
                   Error.c_str());
      return 1;
    }
    if (!writeTextFile(PerfettoOut, Json)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   PerfettoOut.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu events; open in ui.perfetto.dev)\n",
                 PerfettoOut.c_str(), Timeline.size());
  }
  return 0;
}
