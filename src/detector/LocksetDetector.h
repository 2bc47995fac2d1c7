//===-- detector/LocksetDetector.h - Eraser-style lockset -----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Eraser-style lockset detector (Savage et al., the paper's [38]).
/// Included as the comparison baseline the paper discusses in §2 and §4.4:
/// lockset analysis can predict races that did not manifest, but it only
/// understands mutual-exclusion locks, so executions synchronized with
/// events, fork/join, or atomics produce FALSE positives — which is exactly
/// why LiteRace uses happens-before detection. The test suite demonstrates
/// this difference directly.
///
/// Implements the classic state machine: Virgin → Exclusive(owner) →
/// Shared (read by a second thread) → Shared-Modified (written by a second
/// thread). The candidate set C(v) is refined on every access after the
/// exclusive phase; a report is issued when C(v) becomes empty in the
/// Shared-Modified state.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_LOCKSETDETECTOR_H
#define LITERACE_DETECTOR_LOCKSETDETECTOR_H

#include "detector/RaceReport.h"
#include "detector/Replay.h"
#include "support/ShadowMap.h"

#include <set>
#include <vector>

namespace literace {

/// Lockset-based race detector over replayed event streams.
/// `final` so the replay drain loop devirtualizes onEvent (see
/// HBDetector).
class LocksetDetector final : public TraceConsumer {
public:
  /// Warnings (potential races) are recorded into \p Report; the "first"
  /// site of the sighting is the access that emptied the lockset.
  explicit LocksetDetector(RaceReport &Report);

  void onEvent(const EventRecord &R) override;

  /// Coverage gap: acquire/release events may be missing from here on, so
  /// candidate locksets computed across the gap would be meaningless (a
  /// dropped acquire would spuriously empty C(v)). The detector restarts
  /// its per-address state machines; already-issued warnings stand.
  void onCoverageGap() override;

  /// Number of coverage gaps observed.
  uint64_t coverageGaps() const { return CoverageGaps; }

  /// Addresses currently flagged (lockset empty in Shared-Modified).
  size_t numFlaggedAddresses() const { return Flagged.size(); }

private:
  enum class AddressStateKind : uint8_t {
    Virgin,
    Exclusive,
    Shared,
    SharedModified,
  };

  struct AddressState {
    AddressStateKind Kind = AddressStateKind::Virgin;
    ThreadId Owner = 0;
    Pc LastSite = 0;
    /// Candidate lockset C(v); meaningful after the Exclusive phase.
    std::set<SyncVar> Candidates;
    bool Reported = false;
  };

  void onMemory(const EventRecord &R);
  const std::set<SyncVar> &locksHeld(ThreadId T);

  RaceReport &Report;
  std::vector<std::set<SyncVar>> LocksHeldByThread;
  ShadowMap<AddressState> States;
  std::set<uint64_t> Flagged;
  uint64_t CoverageGaps = 0;
};

/// Convenience wrapper mirroring detectRaces() for the lockset baseline.
bool detectLocksetViolations(const Trace &T, RaceReport &Report,
                             const ReplayOptions &Options = ReplayOptions());

} // namespace literace

#endif // LITERACE_DETECTOR_LOCKSETDETECTOR_H
