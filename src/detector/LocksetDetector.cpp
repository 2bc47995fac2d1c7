//===-- detector/LocksetDetector.cpp - Eraser-style lockset --------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/LocksetDetector.h"

#include <algorithm>

using namespace literace;

LocksetDetector::LocksetDetector(RaceReport &Report) : Report(Report) {}

void LocksetDetector::onCoverageGap() {
  ++CoverageGaps;
  // Dropped segments may contain acquires/releases; both the held-lock
  // sets and the per-address candidate sets are stale. Restart the state
  // machines rather than emit warnings based on phantom-empty locksets.
  for (auto &Held : LocksHeldByThread)
    Held.clear();
  States.clear();
  Flagged.clear();
}

const std::set<SyncVar> &LocksetDetector::locksHeld(ThreadId T) {
  if (T >= LocksHeldByThread.size())
    LocksHeldByThread.resize(T + 1);
  return LocksHeldByThread[T];
}

void LocksetDetector::onEvent(const EventRecord &R) {
  switch (R.Kind) {
  case EventKind::Acquire:
    // Only mutual-exclusion locks enter the lockset; that blindness to
    // other synchronization is the source of Eraser's false positives.
    if (syncVarKind(R.Addr) == SyncObjectKind::Mutex) {
      if (R.Tid >= LocksHeldByThread.size())
        LocksHeldByThread.resize(R.Tid + 1);
      LocksHeldByThread[R.Tid].insert(R.Addr);
    }
    return;
  case EventKind::Release:
    if (syncVarKind(R.Addr) == SyncObjectKind::Mutex &&
        R.Tid < LocksHeldByThread.size())
      LocksHeldByThread[R.Tid].erase(R.Addr);
    return;
  case EventKind::Read:
  case EventKind::Write:
    onMemory(R);
    return;
  case EventKind::ThreadStart:
  case EventKind::ThreadEnd:
  case EventKind::PolicyMeta:
  case EventKind::AcqRel:
  case EventKind::Alloc:
  case EventKind::Free:
    return;
  }
}

void LocksetDetector::onMemory(const EventRecord &R) {
  AddressState &State = States.ref(R.Addr);
  const std::set<SyncVar> &Held = locksHeld(R.Tid);
  const bool IsWrite = R.Kind == EventKind::Write;

  switch (State.Kind) {
  case AddressStateKind::Virgin:
    State.Kind = AddressStateKind::Exclusive;
    State.Owner = R.Tid;
    State.Candidates = Held;
    State.LastSite = R.Pc;
    return;
  case AddressStateKind::Exclusive:
    if (R.Tid == State.Owner) {
      // Still single-threaded: keep refreshing the candidate set without
      // refining (Eraser's initialization-tolerance).
      State.Candidates = Held;
      State.LastSite = R.Pc;
      return;
    }
    State.Kind = IsWrite ? AddressStateKind::SharedModified
                         : AddressStateKind::Shared;
    break;
  case AddressStateKind::Shared:
    if (IsWrite)
      State.Kind = AddressStateKind::SharedModified;
    break;
  case AddressStateKind::SharedModified:
    break;
  }

  // Refine C(v) with the locks held at this access.
  std::set<SyncVar> Intersection;
  std::set_intersection(State.Candidates.begin(), State.Candidates.end(),
                        Held.begin(), Held.end(),
                        std::inserter(Intersection, Intersection.begin()));
  State.Candidates = std::move(Intersection);

  if (State.Kind == AddressStateKind::SharedModified &&
      State.Candidates.empty() && !State.Reported) {
    State.Reported = true;
    Flagged.insert(R.Addr);
    RaceSighting Sighting;
    Sighting.FirstPc = State.LastSite;
    Sighting.SecondPc = R.Pc;
    Sighting.Addr = R.Addr;
    Sighting.FirstTid = State.Owner;
    Sighting.SecondTid = R.Tid;
    Sighting.FirstIsWrite = true; // Unknown; conservative.
    Sighting.SecondIsWrite = IsWrite;
    Report.record(Sighting);
  }
  State.LastSite = R.Pc;
}

bool literace::detectLocksetViolations(const Trace &T, RaceReport &Report,
                                       const ReplayOptions &Options) {
  LocksetDetector Detector(Report);
  return replayTrace(T, Detector, Options);
}
