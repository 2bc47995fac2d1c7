//===-- pipebench/src/Offline.cpp - Offline pipeline workloads ------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// The offline workflow the CLIs implement, driven in-process in the same
// order: literace-run (Runtime + SegmentedFileSink, Workload::run, sink
// close) followed by literace-report (readTrace, detectRaces, report
// rendering) on the file just written. One iteration = one uninstrumented
// baseline run + one recording + one analysis, with every output checked.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "detector/HBDetector.h"
#include "harness/DetectionExperiment.h"
#include "support/Crc32.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>

#include <sys/stat.h>
#include <time.h>

using namespace literace;

namespace pipebench {

namespace {

/// Setup repetitions per run; setup_s is their median.
constexpr unsigned SetupReps = 3;
/// Measured iterations per run at minimum, whatever --seconds says (a
/// traced run needs at least one traced and one untraced iteration).
constexpr unsigned MinIterations = 2;

struct OfflineSpec {
  RunMode Mode;
  bool Compress;
};

/// The offline workloads: channel-stdlib recorded three ways (README.md
/// says why each exists).
const std::map<std::string, OfflineSpec> &offlineSpecs() {
  static const std::map<std::string, OfflineSpec> Specs = {
      {"offline-full", {RunMode::FullLogging, false}},
      {"offline-full-v2z", {RunMode::FullLogging, true}},
      {"offline-sampled", {RunMode::LiteRace, false}},
  };
  return Specs;
}

uint64_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

/// The race summary and report literace-report prints.
std::string renderReport(const RaceReport &Report, uint64_t MemoryOps) {
  auto [Rare, Frequent] = Report.splitRareFrequent(MemoryOps);
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "%zu static race(s): %zu rare, %zu frequent "
                "(3-per-million-memops rule)\n",
                Report.numStaticRaces(), Rare.size(), Frequent.size());
  return Line + Report.describe();
}

double seconds(uint64_t Ns) { return static_cast<double>(Ns) / 1e9; }

/// A full log must show every seeded race family of the workload and no
/// race outside them, scored as DetectionExperiment scores it.
std::string checkManifest(const RaceReport &Report,
                          const std::vector<SeededRaceSpec> &Manifest) {
  auto [Detected, Within] = validateAgainstManifest(Report, Manifest);
  if (Detected == Manifest.size() && Within)
    return std::string();
  return "full log found " + std::to_string(Detected) + "/" +
         std::to_string(Manifest.size()) + " seeded race families" +
         (Within ? "" : " and races outside them");
}

} // namespace

Recording recordOnce(WorkloadKind Kind, RunMode Mode, bool Compress,
                     uint64_t Seed, const std::string &Path,
                     SpanRecorder *Spans, uint32_t Run) {
  // The benchmark fixes the scale (the paper-shaped default); the seed
  // picks the inputs.
  WorkloadParams Params;
  Params.Scale = 1.0;
  Params.Seed = SplitMix64(Seed).next();
  Recording R;
  {
    RuntimeConfig Config;
    Config.Mode = RunMode::Baseline;
    Config.Seed = Params.Seed;
    NullSink Null;
    Runtime RT(Config, &Null);
    std::unique_ptr<Workload> W = makeWorkload(Kind);
    W->bind(RT);
    const double Cpu0 = processCpuS();
    WallTimer Timer;
    W->run(RT, Params);
    R.BaselineS = Timer.seconds();
    R.BaselineCpuS = processCpuS() - Cpu0;
  }

  // literace-run's path: a private registry keeps the runtime counters of
  // this one recording apart from the rest of the process.
  telemetry::MetricsRegistry Registry;
  RuntimeConfig Config;
  Config.Mode = Mode;
  Config.Seed = Params.Seed;
  Config.Metrics = &Registry;
  SegmentedFileSink::Options SinkOpts;
  SinkOpts.Compress = Compress;
  std::unique_ptr<FileByteOutput> File;
  std::unique_ptr<TimingOutput> Timed;
  if (Spans) {
    File = std::make_unique<FileByteOutput>(Path);
    Timed = std::make_unique<TimingOutput>(*File, *Spans);
    SinkOpts.Output = Timed.get();
  }
  SegmentedFileSink Sink(Path, /*NumTimestampCounters=*/128, SinkOpts);
  {
    std::unique_ptr<TimingSink> Traced;
    if (Spans)
      Traced = std::make_unique<TimingSink>(Sink, *Spans, Run);
    Runtime RT(Config, Traced ? static_cast<LogSink *>(Traced.get())
                              : static_cast<LogSink *>(&Sink));
    std::unique_ptr<Workload> W = makeWorkload(Kind);
    W->bind(RT);
    // The record span covers exactly what record_s times.
    std::optional<ScopedSpan> RecordSpan;
    if (Traced) {
      RecordSpan.emplace(Spans, "record", 0, Run);
      Traced->setParent(RecordSpan->id());
    }
    const double Cpu0 = processCpuS();
    WallTimer Timer;
    W->run(RT, Params);
    R.SinkClean = Traced ? Traced->close() : Sink.close();
    R.RecordS = Timer.seconds();
    R.RecordCpuS = processCpuS() - Cpu0;
    RecordSpan.reset();
    R.Manifest = W->seededRaces();
    const telemetry::MetricsSnapshot Snap = RT.metricsSnapshot();
    R.DispatchChecks = Snap.counter("runtime.dispatch_checks");
    R.SampledActivations = Snap.counter("runtime.sampled_activations");
  }
  R.EventsWritten = Sink.eventsWritten();
  R.EventsDropped = Sink.eventsDropped();
  R.FileBytes = fileSize(Path);
  R.OutputBytes = Timed ? Timed->bytes() : 0;
  return R;
}

Analysis analyzeOnce(const std::string &Path, SpanRecorder *Spans,
                     uint32_t Run) {
  Analysis A;
  // Declared before the root span so the decoded trace is freed after
  // it closes, outside every stage (the CLI frees it at process exit).
  TraceReadResult Read;
  const double Cpu0 = processCpuS();
  ScopedSpan Root(Spans, "analyze", 0, Run);
  {
    ScopedSpan S(Spans, "reader.readTrace");
    WallTimer Timer;
    Read = readTrace(Path);
    A.ReadS = Timer.seconds();
  }
  A.Status = Read.Status;
  A.Stats = Read.Stats;
  A.Events = Read.T.totalEvents();
  A.MemoryOps = Read.T.memoryOps();
  if (Read.readable()) {
    ScopedSpan S(Spans, "detector.detectRaces");
    WallTimer Timer;
    A.Consistent = detectRaces(Read.T, A.Report);
    A.DetectS = Timer.seconds();
  }
  {
    ScopedSpan S(Spans, "report.render");
    WallTimer Timer;
    A.RenderedBytes = renderReport(A.Report, A.MemoryOps).size();
    A.RenderS = Timer.seconds();
  }
  A.CpuS = processCpuS() - Cpu0;
  return A;
}

std::string checkReadBack(const Recording &R, const Analysis &A) {
  char Buf[256];
  if (!R.SinkClean || R.EventsDropped != 0) {
    std::snprintf(Buf, sizeof(Buf), "sink lost %llu event(s)",
                  static_cast<unsigned long long>(R.EventsDropped));
    return Buf;
  }
  if (A.Status != TraceReadStatus::Ok)
    return "readTrace status is not Ok";
  if (A.Events != R.EventsWritten || A.Stats.SegmentsDropped != 0 ||
      A.Stats.BytesDropped != 0 || A.Stats.EventsDroppedByWriter != 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "read %llu of %llu written events (%llu segment(s), "
                  "%llu byte(s) dropped)",
                  static_cast<unsigned long long>(A.Events),
                  static_cast<unsigned long long>(R.EventsWritten),
                  static_cast<unsigned long long>(A.Stats.SegmentsDropped),
                  static_cast<unsigned long long>(A.Stats.BytesDropped));
    return Buf;
  }
  if (!A.Consistent)
    return "detectRaces found the log inconsistent";
  return std::string();
}

std::map<std::string, double> layerMetrics(const Recording &R,
                                           const Analysis &A,
                                           const std::vector<Span> &All,
                                           uint32_t Run) {
  std::map<uint64_t, const Span *> ById;
  for (const Span &S : All)
    if (S.Run == Run)
      ById[S.Id] = &S;
  // Only spans below the record/analyze roots belong to the pipeline (the
  // sink's constructor writes the file header before recording starts).
  std::vector<Span> Spans;
  for (const auto &[Id, S] : ById) {
    const Span *Root = S;
    while (Root && Root->Parent != 0) {
      auto It = ById.find(Root->Parent);
      Root = It == ById.end() ? nullptr : It->second;
    }
    if (Root && (std::string(Root->Name) == "record" ||
                 std::string(Root->Name) == "analyze"))
      Spans.push_back(*S);
  }

  const std::vector<uint64_t> Self = selfTimes(Spans);
  std::map<std::string, double> Out;
  std::vector<Interval> Writes;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    const std::string Name = S.Name;
    const double Dur = seconds(S.duration());
    if (Name == "record") {
      Out["runtime.self_s"] += seconds(Self[I]);
    } else if (Name == "sink.writeChunk") {
      Out["sink.write_calls"] += 1;
      Out["sink.write_busy_s"] += Dur;
      Out["sink.encode_s"] += seconds(Self[I]);
      Writes.push_back({S.Begin, S.End});
    } else if (Name == "sink.close") {
      Out["sink.close_s"] += Dur;
    } else if (Name == "support.output.write") {
      Out["support.output_write_s"] += Dur;
    } else if (Name == "reader.readTrace") {
      Out["reader.read_s"] += Dur;
    } else if (Name == "detector.detectRaces") {
      Out["detector.detect_s"] += Dur;
    } else if (Name == "report.render") {
      Out["report.render_s"] += Dur;
    }
  }
  Out["sink.write_wall_s"] = seconds(unionLength(std::move(Writes)));

  // Coverage: the stages' wall-clock self-times over the timed pipeline.
  // The analyze root's own time is glue between calls, not a stage.
  uint64_t Covered = 0;
  for (const auto &[Name, Ns] : wallSelfByName(Spans))
    if (Name != "analyze")
      Covered += Ns;
  if (auto Coverage = ratio(seconds(Covered), R.RecordS + A.totalS()))
    Out["trace.coverage"] = *Coverage;

  // Counts read from the runtime's registry and the reader's stats.
  Out["runtime.dispatch_checks"] = static_cast<double>(R.DispatchChecks);
  Out["runtime.sampled_activations"] =
      static_cast<double>(R.SampledActivations);
  Out["runtime.sampled_fraction"] =
      ratio(static_cast<double>(R.SampledActivations),
            static_cast<double>(R.DispatchChecks))
          .value_or(0.0);
  Out["runtime.events_logged"] = static_cast<double>(R.EventsWritten);
  Out["support.output_bytes"] = static_cast<double>(R.OutputBytes);
  Out["reader.mb_per_s"] =
      ratio(static_cast<double>(R.FileBytes) / 1e6, A.ReadS).value_or(0.0);
  Out["reader.segments_recovered"] =
      static_cast<double>(A.Stats.SegmentsRecovered);
  Out["reader.segments_dropped"] = static_cast<double>(A.Stats.SegmentsDropped);
  Out["detector.events_per_s"] =
      ratio(static_cast<double>(A.Events), A.DetectS).value_or(0.0);
  return Out;
}

void fileReferences(const std::string &Path, RunResult &Out) {
  std::vector<double> Io, Crc;
  std::vector<uint8_t> Bytes;
  for (int Rep = 0; Rep != 3; ++Rep) {
    WallTimer Timer;
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F) {
      Out.fail("cannot reopen " + Path);
      return;
    }
    Bytes.resize(fileSize(Path));
    const size_t Got = std::fread(Bytes.data(), 1, Bytes.size(), F);
    std::fclose(F);
    Io.push_back(Timer.seconds());
    if (Got != Bytes.size()) {
      Out.fail("short read of " + Path);
      return;
    }
    Timer.restart();
    volatile uint32_t Sum = crc32c(Bytes.data(), Bytes.size());
    (void)Sum;
    Crc.push_back(Timer.seconds());
  }
  Out.metric("reader.file_io_s", median(Io));
  Out.metric("support.crc_s", median(Crc));
}

double processCpuS() {
  timespec T;
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T) != 0)
    return 0;
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) / 1e9;
}

void resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool StealMeter::read(uint64_t &Steal, uint64_t &Total) {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  Stat >> Cpu;
  if (Cpu != "cpu")
    return false;
  // user nice system idle iowait irq softirq steal ...
  Total = 0;
  for (int Field = 0; Field != 8; ++Field) {
    uint64_t V = 0;
    if (!(Stat >> V))
      return false;
    Total += V;
    if (Field == 7)
      Steal = V;
  }
  return true;
}

double StealMeter::percent() const {
  uint64_t Steal = 0, Total = 0;
  if (!read(Steal, Total) || Total <= Total0)
    return -1;
  return 100.0 * static_cast<double>(Steal - Steal0) /
         static_cast<double>(Total - Total0);
}

std::map<std::string, double>
medianByKey(const std::vector<std::map<std::string, double>> &Rows) {
  std::map<std::string, std::vector<double>> Cols;
  for (const auto &Row : Rows)
    for (const auto &[K, V] : Row)
      Cols[K].push_back(V);
  std::map<std::string, double> Out;
  for (auto &[K, V] : Cols)
    Out[K] = median(std::move(V));
  return Out;
}

void runOffline(const RunOptions &Opts, RunResult &Out) {
  const OfflineSpec Spec = offlineSpecs().at(Opts.Workload);
  const WorkloadKind Kind = WorkloadKind::ChannelWithStdLib;
  SpanRecorder *Rec = Opts.Trace ? &Out.Spans : nullptr;
  const std::string RefPath = "reference.bin";
  const std::string Path = "recording.bin";

  // Setup: the full-logging reference of this workload and seed. Its race
  // set is the base of detection_rate and of the sampled-subset check;
  // the union over the setup repetitions absorbs interleaving variation.
  std::set<StaticRaceKey> Reference;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    const double Cpu0 = processCpuS();
    const Recording R = recordOnce(Kind, RunMode::FullLogging, false,
                                   Opts.Seed, RefPath, nullptr, 0);
    const Analysis A = analyzeOnce(RefPath, nullptr, 0);
    SetupS.push_back(processCpuS() - Cpu0);
    std::string Error = checkReadBack(R, A);
    if (Error.empty())
      Error = checkManifest(A.Report, R.Manifest);
    Out.operation(Error.empty() ? "" : "setup: " + Error);
    for (const StaticRaceKey &K : A.Report.keys())
      Reference.insert(K);
  }
  std::remove(RefPath.c_str());
  resetPeakRss();

  // Timings are process CPU seconds (processCpuS() says why); the wall
  // clock times ride along in the result document.
  struct Sample {
    double RecordS, AnalyzeS, PipelineS, Slowdown, BytesPerEvent,
        DetectionRate, EventsPerS, RecordWallS, AnalyzeWallS;
  };
  std::vector<Sample> Untraced, Traced;
  std::vector<std::map<std::string, double>> Layers;
  const StealMeter Steal;
  WallTimer Clock;
  for (uint32_t Iter = 1;
       Iter <= MinIterations || Clock.seconds() < Opts.Seconds; ++Iter) {
    const bool TraceThis = Rec && Iter % 2 == 0;
    SpanRecorder *S = TraceThis ? Rec : nullptr;
    const Recording R = recordOnce(Kind, Spec.Mode, Spec.Compress, Opts.Seed,
                                   Path, S, Iter);
    const Analysis A = analyzeOnce(Path, S, Iter);

    std::string Error = checkReadBack(R, A);
    if (Error.empty() && Spec.Mode == RunMode::FullLogging)
      Error = checkManifest(A.Report, R.Manifest);
    if (Error.empty() && Spec.Mode != RunMode::FullLogging)
      for (const StaticRaceKey &K : A.Report.keys())
        if (!Reference.count(K)) {
          Error = "sampled run reported a race the full-logging "
                  "reference did not";
          break;
        }
    const auto Slowdown = recordSlowdown(R.RecordCpuS, R.BaselineCpuS);
    const auto Rate =
        detectionRate(A.Report.numStaticRaces(), Reference.size());
    const auto PerEvent = ratio(static_cast<double>(R.FileBytes),
                                static_cast<double>(R.EventsWritten));
    const auto Throughput = ratio(static_cast<double>(A.Events), A.CpuS);
    if (Error.empty() && !(Slowdown && Rate && PerEvent && Throughput))
      Error = "a ratio has no valid base (empty log or zero timing)";
    Out.operation(Error);
    if (!Error.empty())
      continue;

    (TraceThis ? Traced : Untraced)
        .push_back({R.RecordCpuS, A.CpuS, R.RecordCpuS + A.CpuS, *Slowdown,
                    *PerEvent, *Rate, *Throughput, R.RecordS, A.totalS()});
    if (TraceThis)
      Layers.push_back(layerMetrics(R, A, Rec->spans(), Iter));
  }

  auto Column = [](const std::vector<Sample> &Rows, double Sample::*Field) {
    std::vector<double> V;
    for (const Sample &S : Rows)
      V.push_back(S.*Field);
    return V;
  };
  auto Median = [&](double Sample::*Field) {
    return median(Column(Untraced, Field));
  };
  const std::vector<double> AnalyzeS = Column(Untraced, &Sample::AnalyzeS);
  Out.metric("setup_s", median(SetupS));
  Out.metric("record_s", Median(&Sample::RecordS));
  Out.metric("record_slowdown", Median(&Sample::Slowdown));
  Out.metric("analyze_s", median(AnalyzeS));
  Out.metric("pipeline_s", Median(&Sample::PipelineS));
  Out.metric("log_bytes_per_event", Median(&Sample::BytesPerEvent));
  Out.metric("detection_rate", Median(&Sample::DetectionRate));
  Out.metric("ingest_events_per_s", Median(&Sample::EventsPerS));
  // A finished recording's "result" is its rendered race report: latency
  // runs from the sink's last byte (close) to the rendered report. The
  // analyzer is single-threaded, so its CPU time is that latency less
  // what the host stole.
  Out.metric("result_latency_p50_ms", median(AnalyzeS) * 1e3);
  Out.metric("result_latency_p90_ms", percentile(AnalyzeS, 90) * 1e3);
  Out.detail("host_steal_pct", jsonNumber(Steal.percent()));
  Out.detail("iterations", std::to_string(Untraced.size()));
  Out.detail("record_s_samples", jsonArray(Column(Untraced, &Sample::RecordS)));
  Out.detail("analyze_s_samples", jsonArray(AnalyzeS));
  Out.detail("record_wall_s_samples",
             jsonArray(Column(Untraced, &Sample::RecordWallS)));
  Out.detail("analyze_wall_s_samples",
             jsonArray(Column(Untraced, &Sample::AnalyzeWallS)));
  Out.detail("traced_iterations", std::to_string(Traced.size()));
  Out.detail("reference_races", std::to_string(Reference.size()));

  if (Opts.Trace) {
    for (const auto &[K, V] : medianByKey(Layers))
      Out.metric(K, V);
    if (auto Overhead = ratio(median(Column(Traced, &Sample::PipelineS)),
                              Median(&Sample::PipelineS)))
      Out.metric("trace.overhead", *Overhead - 1.0);
    fileReferences(Path, Out);
  }
  std::remove(Path.c_str());
  Out.metric("peak_rss_mb", peakRssMb());
}

} // namespace pipebench
