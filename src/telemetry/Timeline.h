//===-- telemetry/Timeline.h - Chrome/Perfetto trace export ----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chrome trace-event (Perfetto-loadable) timeline export
/// (docs/TELEMETRY.md). Two producers feed the same JSON shape:
///
///   - buildTraceTimeline(): renders a logged Trace offline. The time
///     axis is *virtual* — one microsecond-unit tick per event in the
///     thread's stream — because EventRecords carry no wall clock. Each
///     thread becomes a lane of "burst" slices (contiguous memory ops
///     from one function, i.e. sampled activations) plus counter tracks
///     of cumulative memory/sync ops.
///
///   - TraceRecorder: live wall-clock spans recorded by running
///     components (per-thread log flushes). Gated on the
///     LITERACE_TELEMETRY kill switch; bounded.
///
/// A structural validator for the emitted JSON backs the tests, so any
/// file we write is mechanically checked to load in ui.perfetto.dev.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_TELEMETRY_TIMELINE_H
#define LITERACE_TELEMETRY_TIMELINE_H

#include "runtime/EventLog.h"
#include "support/Timer.h"

#include <mutex>
#include <string>
#include <vector>

namespace literace {

class FunctionRegistry;

namespace telemetry {

/// Process lane ids used on the shared timeline.
constexpr uint32_t TimelinePidRuntime = 1;  ///< instrumented app threads
constexpr uint32_t TimelinePidDetector = 2; ///< analysis pipeline

/// One Chrome trace-event entry. Only the phases we emit are modeled:
/// 'X' (complete slice), 'C' (counter sample), 'i' (instant), 'M'
/// (metadata, e.g. thread_name).
struct TraceEvent {
  std::string Name;
  std::string Cat;
  char Phase = 'X';
  uint64_t TsUs = 0;
  uint64_t DurUs = 0; // 'X' only
  uint32_t Pid = 0;
  uint32_t Tid = 0;
  /// Numeric args ('C' counters sample these; 'X'/'i' annotate).
  std::vector<std::pair<std::string, uint64_t>> Args;
  /// String args ('M' thread_name uses {"name": ...}).
  std::vector<std::pair<std::string, std::string>> StrArgs;
};

/// Collects trace events and serializes them as Chrome trace-event JSON.
class TraceWriter {
public:
  void add(TraceEvent E) { Events.push_back(std::move(E)); }

  /// Convenience: metadata event naming a thread lane.
  void nameThread(uint32_t Pid, uint32_t Tid, std::string Name);

  /// Convenience: metadata event naming a process lane.
  void nameProcess(uint32_t Pid, std::string Name);

  /// Appends every event of \p Other (merging producers onto the shared
  /// timeline).
  void append(const TraceWriter &Other);

  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  const std::vector<TraceEvent> &events() const { return Events; }

  /// Serializes to {"traceEvents": [...], ...}. Deterministic given the
  /// insertion order.
  std::string toJson() const;

  /// Writes toJson() to \p Path; false on I/O failure.
  bool writeFile(const std::string &Path) const;

private:
  std::vector<TraceEvent> Events;
};

/// Structurally validates Chrome trace-event JSON: a top-level object
/// with a "traceEvents" array whose entries carry the keys Perfetto
/// requires for their phase. On failure returns false and, when \p Error
/// is non-null, stores a diagnostic.
bool validateChromeTraceJson(std::string_view Json,
                             std::string *Error = nullptr);

/// Renders a logged trace on the virtual-time axis described in the file
/// comment. \p Registry resolves function names when provided. At most
/// \p MaxSlicesPerThread burst slices are kept per thread (adjacent
/// bursts merge beyond it, so long logs still render).
TraceWriter buildTraceTimeline(const Trace &T,
                               const FunctionRegistry *Registry = nullptr,
                               size_t MaxSlicesPerThread = 4096);

/// Thread-safe live span recorder for low-frequency pipeline events
/// (log flushes). Spans are dropped past a
/// fixed cap so a runaway producer cannot exhaust memory; the drop count
/// is reported by drainWriter().
class TraceRecorder {
public:
  /// The process-global recorder. Recording is a no-op when the
  /// LITERACE_TELEMETRY kill switch is off.
  static TraceRecorder &global();

  TraceRecorder() = default;

  /// Microseconds since this recorder was constructed (the live
  /// timeline's epoch).
  uint64_t nowUs() const {
    return Epoch.nanoseconds() / 1000;
  }

  /// Records a completed span. No-op when disabled or at capacity.
  void addSpan(std::string Name, std::string Cat, uint32_t Pid,
               uint32_t Tid, uint64_t StartUs, uint64_t DurUs,
               std::vector<std::pair<std::string, uint64_t>> Args = {});

  /// Records an instant event.
  void addInstant(std::string Name, std::string Cat, uint32_t Pid,
                  uint32_t Tid, uint64_t TsUs);

  bool enabled() const;
  size_t size() const;

  /// Copies everything recorded so far into a TraceWriter (with process
  /// lane names and a dropped-span annotation when the cap was hit).
  TraceWriter drainWriter() const;

  static constexpr size_t MaxSpans = 100000;

private:
  WallTimer Epoch;
  mutable std::mutex Lock;
  std::vector<TraceEvent> Spans;
  uint64_t Dropped = 0;
};

} // namespace telemetry
} // namespace literace

#endif // LITERACE_TELEMETRY_TIMELINE_H
