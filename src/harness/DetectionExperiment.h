//===-- harness/DetectionExperiment.h - §5.3 methodology -------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's sampler-comparison methodology (§5.3): run each benchmark
/// once in Experiment mode — full logging, with every sampler's dispatch
/// decision recorded per memory operation — then run happens-before
/// detection once on the complete log and once per sampler-filtered view.
/// All samplers are thereby compared on the same thread interleaving.
/// Detected static races are classified rare/frequent per §5.3.1, and the
/// whole result is validated against the workload's seeded-race manifest
/// (ground truth the paper did not have).
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_HARNESS_DETECTIONEXPERIMENT_H
#define LITERACE_HARNESS_DETECTIONEXPERIMENT_H

#include "detector/RaceReport.h"
#include "detector/Replay.h"
#include "runtime/EventLog.h"
#include "runtime/Runtime.h"
#include "workloads/Workload.h"

#include <string>
#include <vector>

namespace literace {

/// Raw artifacts of one Experiment-mode execution.
struct ExperimentRun {
  Trace TraceData;
  RuntimeStats Stats;
  size_t NumFunctions = 0;
  uint32_t NumThreads = 0;
  std::vector<std::string> SamplerNames;
  std::vector<std::string> SamplerDescriptions;
  /// Runtime-plane telemetry snapshot (docs/TELEMETRY.md), taken after
  /// the workload's threads detached, so counters are exact. Cumulative
  /// when successive runs share the process-global registry; pass a
  /// private registry to executeExperiment for per-run isolation. Empty
  /// when the kill switch disabled telemetry.
  telemetry::MetricsSnapshot Metrics;
};

/// Executes \p W (fresh, unbound) once in Experiment mode with the seven
/// standard samplers attached and returns the trace and statistics.
/// \p Metrics overrides the telemetry registry (tests use a private one;
/// null resolves to the process-global registry).
ExperimentRun executeExperiment(Workload &W, const WorkloadParams &Params,
                                telemetry::MetricsRegistry *Metrics = nullptr);

/// Per-sampler outcome of a detection experiment.
struct SamplerOutcome {
  std::string ShortName;
  std::string Description;
  /// Fraction of executed memory operations this sampler logged (§5.2).
  double EffectiveSamplingRate = 0.0;
  size_t StaticFound = 0;
  double DetectionRate = 0.0;
  size_t RareFound = 0;
  size_t FrequentFound = 0;
  double RareDetectionRate = 0.0;
  double FrequentDetectionRate = 0.0;
};

/// Aggregated result for one benchmark-input pair.
struct DetectionResult {
  std::string Benchmark;
  uint64_t MemOps = 0;
  uint64_t SyncOps = 0;
  size_t NumFunctions = 0;
  uint32_t NumThreads = 0;
  /// Static races found on the full (unsampled) log; rare/frequent split
  /// per §5.3.1. With Repeats > 1 these are medians over the runs, as in
  /// Table 4.
  size_t StaticTotal = 0;
  size_t RareTotal = 0;
  size_t FrequentTotal = 0;
  std::vector<SamplerOutcome> Samplers;
  /// Effective binomial sample count behind each sampler's averaged
  /// EffectiveSamplingRate: a sampler that logs an activation with
  /// probability p has ESR standard deviation sqrt(p(1-p)/EsrSamples).
  double EsrSamples = 0.0;
  /// Ground-truth validation: seeded race families found on the full log,
  /// and whether every detected pair lies within some seeded family.
  size_t SeededTotal = 0;
  size_t SeededDetected = 0;
  bool AllDetectedWithinSeededSites = true;
  /// False if any replay found the log inconsistent (must not happen).
  bool LogConsistent = true;
};

/// Runs the full §5.3 experiment for one benchmark. \p Repeats fresh
/// executions are performed (the paper uses 3); detection rates are
/// averaged and race counts are medians across runs.
DetectionResult runDetectionExperiment(WorkloadKind Kind,
                                       const WorkloadParams &Params,
                                       unsigned Repeats = 1);

/// Checks a detection report against a seeded-race manifest.
/// \returns {number of manifest families with at least one detected pair
/// fully inside the family's site set, whether every detected pair lies
/// inside some family}.
std::pair<size_t, bool>
validateAgainstManifest(const RaceReport &Report,
                        const std::vector<SeededRaceSpec> &Manifest);

} // namespace literace

#endif // LITERACE_HARNESS_DETECTIONEXPERIMENT_H
