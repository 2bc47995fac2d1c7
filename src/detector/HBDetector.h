//===-- detector/HBDetector.h - Happens-before race detection -*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline happens-before data-race detector (§2.1, §4.4).
///
/// The detector consumes a replayed event stream. It maintains a vector
/// clock per thread and per SyncVar; synchronization events create the HB2
/// edges, program order within a thread's stream is HB1, and transitivity
/// falls out of the vector-clock algebra. For every memory address it
/// keeps, per thread, the epoch (thread, clock) and site of the most
/// recent logged read and write — the DJIT+ scheme: a new access races
/// with some prior access of thread u iff it races with u's most recent
/// one, and that is a single epoch comparison.
///
/// Because the replayed stream contains ALL synchronization operations
/// regardless of sampling, no happens-before edge is ever missing, so the
/// detector reports only true races of the execution (no false positives);
/// sampling can only hide races (§3.2).
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_HBDETECTOR_H
#define LITERACE_DETECTOR_HBDETECTOR_H

#include "detector/RaceReport.h"
#include "detector/Replay.h"
#include "detector/SyncClockMap.h"
#include "detector/VectorClock.h"
#include "support/ShadowMap.h"
#include "support/SmallVector.h"

#include <vector>

namespace literace {

/// Vector-clock happens-before detector over replayed event streams.
/// `final` so the replay engine's drain loop (templated on the consumer)
/// devirtualizes onEvent into a direct, inlinable call.
class HBDetector final : public TraceConsumer {
public:
  /// Detected races are recorded into \p Report (owned by the caller).
  explicit HBDetector(RaceReport &Report);

  /// Consumes \p R as the next event of the replay; events are numbered
  /// 0, 1, 2, ... in delivery order, and sightings carry that index.
  void onEvent(const EventRecord &R) override;

  /// Coverage gap (dropped log segments): synchronization edges may be
  /// missing from here on, so install a conservative ordering barrier —
  /// every access after the gap is treated as happening-after everything
  /// before it. That can only suppress reports, never invent them, so
  /// races reported on a salvaged trace are a subset of the full-trace
  /// report (docs/ROBUSTNESS.md).
  void onCoverageGap() override;

  /// Number of coverage gaps barriered so far.
  uint64_t coverageGaps() const { return CoverageGaps; }

  /// Run entry point used by ReplayScheduler: \p Records[0] is a
  /// memory event, and the detector consumes the maximal leading run of
  /// memory events (capped at \p MaxCount), returning how many it took.
  /// Within a run there is no intervening sync event of the thread, so
  /// its vector clock — and hence its epoch — is loop-invariant and
  /// looked up once for the whole run. Event numbering and reports are
  /// identical to delivering each record through onEvent().
  size_t onMemoryRun(const EventRecord *Records, size_t MaxCount);

  /// Number of memory events processed (the detection workload).
  uint64_t memoryEventsProcessed() const { return MemoryEvents; }

  /// Number of sync events processed.
  uint64_t syncEventsProcessed() const { return SyncEvents; }

  /// Current clock of thread \p T (exposed for tests).
  const VectorClock &threadClock(ThreadId T);

  /// Number of addresses with shadow state (exposed for tests/benches).
  size_t shadowAddressCount() const { return Shadow.size(); }

private:
  /// Most recent logged access of one thread to one address.
  struct AccessRecord {
    uint64_t Clock;
    Pc Site;
    ThreadId Tid;
  };

  /// Per-address list of live last-access records. One entry lives
  /// inline in the shadow slot itself: most addresses have a single live
  /// reader/writer at a time, and one inline entry per list keeps the
  /// whole AddressState at 64 bytes — exactly one cache line per
  /// address, which measures faster than a larger inline capacity even
  /// though two-thread addresses then spill to the heap.
  using AccessList = SmallVector<AccessRecord, 1>;

  /// Shadow state of one address: per-thread last read and last write.
  struct AddressState {
    AccessList Writes;
    AccessList Reads;
  };

  VectorClock &clockOf(ThreadId T);
  void acquire(ThreadId T, SyncVar S);
  void release(ThreadId T, SyncVar S);
  /// acquire() then release() with one lookup of \p S (AcqRel and the
  /// §4.3 allocation events).
  void acquireRelease(ThreadId T, SyncVar S);
  void onMemory(const EventRecord &R);

  /// The fused per-access step: checks \p R against both lists and
  /// updates the one matching its kind, in a single pass per list.
  /// \p Clock must be the accessing thread's current clock and \p Epoch
  /// its own component (hoisted by onMemoryRun for whole runs).
  void onMemoryWith(const EventRecord &R, const VectorClock &Clock,
                    uint64_t Epoch);

  /// Builds and records a sighting (off the hot path; rare).
  void reportRace(const AccessRecord &Old, const EventRecord &New,
                  bool OldIsWrite);

  RaceReport &Report;
  std::vector<VectorClock> ThreadClocks;
  SyncClockMap SyncClocks;
  ShadowMap<AddressState> Shadow;
  /// Join of every thread clock at the last coverage gap; threads first
  /// seen later start behind it so cross-gap pairs stay ordered.
  VectorClock GapBarrier;
  uint64_t CoverageGaps = 0;
  uint64_t MemoryEvents = 0;
  uint64_t SyncEvents = 0;
  /// Sequence number assigned to the next delivered event, and the index
  /// of the event currently being processed (stamped on sightings).
  uint64_t NextEventIndex = 0;
  uint64_t CurrentEventIndex = 0;
};

/// Convenience wrapper: replays \p T (optionally filtered to one sampler's
/// view) through a fresh HBDetector into \p Report. Returns false if the
/// log was inconsistent.
bool detectRaces(const Trace &T, RaceReport &Report,
                 const ReplayOptions &Options = ReplayOptions());

} // namespace literace

#endif // LITERACE_DETECTOR_HBDETECTOR_H
