//===-- pipebench/src/Bench.h - Shared benchmark types ---------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the pipebench entry point (main.cpp), the offline
/// record → write → read → detect → report workloads (Offline.cpp), and the
/// live collector workload (Stream.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_BENCH_H
#define PIPEBENCH_BENCH_H

#include "Probes.h"

#include "detector/RaceReport.h"
#include "runtime/Runtime.h"
#include "workloads/Workload.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pipebench {

/// Command-line settings of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Everything one run measured and checked.
class RunResult {
public:
  /// Sets metric \p Name (a name from the benchmark's metric tables).
  void metric(const std::string &Name, double Value) {
    Metrics[Name] = Value;
  }
  const std::map<std::string, double> &metrics() const { return Metrics; }

  /// Counts one checked operation; \p Error non-empty marks it failed.
  void operation(const std::string &Error = std::string()) {
    ++Attempted;
    if (!Error.empty())
      fail(Error);
  }
  /// A check outside any counted operation failed (e.g. a final
  /// cross-check): the run is incorrect, but no operation is added.
  void fail(const std::string &Error) {
    ++Failed;
    if (Errors.size() < 20)
      Errors.push_back(Error);
  }

  /// Extra per-run facts for the result document (sample counts, the
  /// supported tail percentile), as raw JSON values.
  void detail(const std::string &Key, const std::string &JsonValue) {
    Details[Key] = JsonValue;
  }

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  std::map<std::string, std::string> Details;
  /// The spans of a traced run.
  SpanRecorder Spans;

private:
  std::map<std::string, double> Metrics;
};

/// CPU seconds the whole process (every thread) has used so far
/// (CLOCK_PROCESS_CPUTIME_ID). The kernel's paravirtual steal accounting
/// keeps time the hypervisor took away out of it, so on a shared virtual
/// machine it moves with the work done and not with the neighbours.
double processCpuS();

/// One recorded run of a workload through the v2 sink.
struct Recording {
  double RecordS = 0;      ///< Workload::run + sink close(), wall clock
  double RecordCpuS = 0;   ///< the same span in process CPU seconds
  double BaselineS = 0;    ///< uninstrumented run of the same workload/seed
  double BaselineCpuS = 0; ///< the baseline in process CPU seconds
  uint64_t EventsWritten = 0;
  uint64_t EventsDropped = 0;
  uint64_t FileBytes = 0; ///< size of the file on disk
  bool SinkClean = false;
  uint64_t DispatchChecks = 0;
  uint64_t SampledActivations = 0;
  uint64_t OutputBytes = 0; ///< traced only: bytes through the ByteOutput
  std::vector<literace::SeededRaceSpec> Manifest;
};

/// Records \p Kind once in \p Mode to \p Path (v2, compressed payloads when
/// \p Compress), preceded by its uninstrumented baseline. With \p Spans
/// non-null the sink and byte layers are wrapped in timing decorators and
/// spans are recorded under run id \p Run.
Recording recordOnce(literace::WorkloadKind Kind, literace::RunMode Mode,
                     bool Compress, uint64_t Seed, const std::string &Path,
                     SpanRecorder *Spans, uint32_t Run);

/// The analyzer side, in literace-report's order: readTrace, detectRaces,
/// then rendering of the race summary and report.
struct Analysis {
  double ReadS = 0, DetectS = 0, RenderS = 0; ///< wall clock
  double totalS() const { return ReadS + DetectS + RenderS; }
  double CpuS = 0; ///< the three stages in process CPU seconds
  literace::TraceReadStatus Status = literace::TraceReadStatus::Unreadable;
  literace::TraceReadStats Stats;
  uint64_t Events = 0;
  uint64_t MemoryOps = 0;
  bool Consistent = false;
  literace::RaceReport Report;
  size_t RenderedBytes = 0; ///< keeps the rendering observable
};

Analysis analyzeOnce(const std::string &Path, SpanRecorder *Spans,
                     uint32_t Run);

/// Checks that a recording was read back whole: Ok status, every written
/// event read, nothing dropped on either side. Empty when it was.
std::string checkReadBack(const Recording &R, const Analysis &A);

/// Per-layer metrics of one traced recording + analysis (spans of run
/// \p Run plus the counts both carry). trace.coverage is the stages'
/// wall-clock self-times over the run's timed record + analyze seconds.
std::map<std::string, double> layerMetrics(const Recording &R,
                                           const Analysis &A,
                                           const std::vector<Span> &Spans,
                                           uint32_t Run);

/// Traced-run references over a written file: a plain read of the file
/// into memory, and CRC32C over its bytes (medians of a few repetitions).
void fileReferences(const std::string &Path, RunResult &Out);

/// JSON renderings for the result document: the shortest decimal that
/// reads back as the same double, and an array of them.
std::string jsonNumber(double V);
std::string jsonArray(const std::vector<double> &V);

/// Peak resident set size in MB (VmHWM) since the last resetPeakRss(),
/// which lets a run exclude its setup; 0 where /proc does not report it.
double peakRssMb();
void resetPeakRss();

/// Share of the host's CPU time stolen by the hypervisor (/proc/stat)
/// since construction, in percent; -1 where the kernel does not say.
/// Runs on shared virtual machines slow down in stolen periods, so each
/// result document records it beside the timings.
class StealMeter {
public:
  StealMeter() { read(Steal0, Total0); }
  double percent() const;

private:
  static bool read(uint64_t &Steal, uint64_t &Total);
  uint64_t Steal0 = 0, Total0 = 0;
};

/// Median of each key over \p Rows (rows lacking a key are skipped).
std::map<std::string, double>
medianByKey(const std::vector<std::map<std::string, double>> &Rows);

/// The workloads: offline-full, offline-full-v2z, offline-sampled
/// (Offline.cpp) and collector-stream (Stream.cpp).
void runOffline(const RunOptions &Opts, RunResult &Out);
void runStream(const RunOptions &Opts, RunResult &Out);

} // namespace pipebench

#endif // PIPEBENCH_BENCH_H
