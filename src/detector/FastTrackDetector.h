//===-- detector/FastTrackDetector.h - Epoch-optimized HB -----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FastTrack-style happens-before detector (Flanagan & Freund, PLDI
/// 2009 — the same conference as LiteRace; §6 discusses the vector-clock
/// cost it addresses). Where HBDetector keeps per-thread last-access maps
/// per address, FastTrack observes that most variables are accessed in
/// ways that need only a single epoch (thread, clock):
///
///   - the last write epoch suffices for write checks, because writes to
///     a data-race-free variable are totally ordered;
///   - reads need a full per-thread view only while a variable is read
///     shared; an exclusive or ordered read keeps a single epoch.
///
/// The result detects a race on an address if and only if HBDetector does
/// (the equivalence is exercised by the test suite), while doing O(1)
/// work for the overwhelmingly common access patterns. Reported pc pairs
/// can differ: both detectors report *a* witness pair per racy address,
/// not all pairs.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_FASTTRACKDETECTOR_H
#define LITERACE_DETECTOR_FASTTRACKDETECTOR_H

#include "detector/RaceReport.h"
#include "detector/Replay.h"
#include "detector/SyncClockMap.h"
#include "detector/VectorClock.h"
#include "support/ShadowMap.h"
#include "support/SmallVector.h"

#include <vector>

namespace literace {

/// Epoch-based happens-before detector over replayed event streams.
/// `final` so the replay drain loop devirtualizes onEvent (see
/// HBDetector).
class FastTrackDetector final : public TraceConsumer {
public:
  explicit FastTrackDetector(RaceReport &Report);

  void onEvent(const EventRecord &R) override;

  /// Coverage gap: installs the same conservative ordering barrier as
  /// HBDetector::onCoverageGap(), so both detectors stay equivalent on
  /// salvaged traces.
  void onCoverageGap() override;

  /// Number of coverage gaps barriered so far.
  uint64_t coverageGaps() const { return CoverageGaps; }

  /// Number of addresses whose read state was ever promoted to a full
  /// per-thread view (the slow path; exposed for tests and benches).
  uint64_t readSharePromotions() const { return Promotions; }

  /// Number of read-shared address states demoted back to a single-epoch
  /// representation by a write (W_x := E_t supersedes the read set).
  /// Promotions and demotions together account for every transition of
  /// the read representation, so promotions - demotions is the number of
  /// addresses currently read shared.
  uint64_t readShareDemotions() const { return Demotions; }

  uint64_t memoryEventsProcessed() const { return MemoryEvents; }

  /// Run entry point used by ReplayScheduler (see
  /// HBDetector::onMemoryRun): consumes the maximal leading run of
  /// memory events with the clock and epoch hoisted out of the loop,
  /// returning how many records it took.
  size_t onMemoryRun(const EventRecord *Records, size_t MaxCount);

private:
  /// A (thread, clock) pair plus the access site for reporting. Clock 0
  /// means "none".
  struct Epoch {
    ThreadId Tid = 0;
    uint64_t Clock = 0;
    Pc Site = 0;
  };

  struct AddressState {
    Epoch Write;
    /// Exclusive/ordered read epoch; unused once SharedRead.
    Epoch Read;
    bool SharedRead = false;
    /// Per-thread read epochs while read shared, indexed by ThreadId.
    /// Two entries inline: a just-promoted address holds exactly the two
    /// threads whose concurrent reads forced the promotion.
    SmallVector<Epoch, 2> ReadShared;
  };

  VectorClock &clockOf(ThreadId T);
  void acquire(ThreadId T, SyncVar S);
  void release(ThreadId T, SyncVar S);
  /// See HBDetector::acquireRelease.
  void acquireRelease(ThreadId T, SyncVar S);
  void onRead(const EventRecord &R, const VectorClock &Clock,
              uint64_t OwnEpoch);
  void onWrite(const EventRecord &R, const VectorClock &Clock,
               uint64_t OwnEpoch);
  void report(const Epoch &Old, const EventRecord &New, bool OldIsWrite);

  RaceReport &Report;
  std::vector<VectorClock> ThreadClocks;
  SyncClockMap SyncClocks;
  ShadowMap<AddressState> Shadow;
  /// See HBDetector::GapBarrier.
  VectorClock GapBarrier;
  uint64_t CoverageGaps = 0;
  uint64_t Promotions = 0;
  uint64_t Demotions = 0;
  uint64_t MemoryEvents = 0;
};

/// Convenience wrapper mirroring detectRaces().
bool detectRacesFastTrack(const Trace &T, RaceReport &Report,
                          const ReplayOptions &Options = ReplayOptions());

} // namespace literace

#endif // LITERACE_DETECTOR_FASTTRACKDETECTOR_H
