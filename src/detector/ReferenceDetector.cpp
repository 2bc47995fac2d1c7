//===-- detector/ReferenceDetector.cpp - Brute-force HB oracle ------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/ReferenceDetector.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace literace;

VectorClock &ReferenceDetector::clockOf(ThreadId T) {
  if (T >= ThreadClocks.size())
    ThreadClocks.resize(T + 1);
  VectorClock &Clock = ThreadClocks[T];
  if (Clock.get(T) == 0)
    Clock.set(T, 1);
  return Clock;
}

void ReferenceDetector::onEvent(const EventRecord &R) {
  switch (R.Kind) {
  case EventKind::ThreadStart:
  case EventKind::ThreadEnd:
    (void)clockOf(R.Tid);
    return;
  case EventKind::PolicyMeta:
    // Elision-policy stamp; carries no access and no HB edge.
    return;
  case EventKind::Read:
  case EventKind::Write: {
    const VectorClock &Clock = clockOf(R.Tid);
    Access A;
    A.Tid = R.Tid;
    A.Site = R.Pc;
    A.IsWrite = R.Kind == EventKind::Write;
    A.OwnClock = Clock.get(R.Tid);
    A.Clock = Clock; // Full snapshot: the whole point of the oracle.
    Accesses[R.Addr].push_back(std::move(A));
    return;
  }
  case EventKind::Acquire:
    clockOf(R.Tid).joinWith(SyncClocks[R.Addr]);
    return;
  case EventKind::Release: {
    VectorClock &Thread = clockOf(R.Tid);
    SyncClocks[R.Addr].joinWith(Thread);
    Thread.tick(R.Tid);
    return;
  }
  case EventKind::AcqRel:
  case EventKind::Alloc:
  case EventKind::Free: {
    VectorClock &Thread = clockOf(R.Tid);
    Thread.joinWith(SyncClocks[R.Addr]);
    SyncClocks[R.Addr].joinWith(Thread);
    Thread.tick(R.Tid);
    return;
  }
  }
  literaceUnreachable("invalid event kind");
}

void ReferenceDetector::enumerateRaces(RaceReport &Report) const {
  // Enumerate in ascending address order so the oracle's report does not
  // depend on hash-table iteration order (the map's hash is an
  // implementation detail; the enumeration result must not be).
  std::vector<const std::pair<const uint64_t, std::vector<Access>> *> Sorted;
  Sorted.reserve(Accesses.size());
  for (const auto &Entry : Accesses)
    Sorted.push_back(&Entry);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const auto *A, const auto *B) { return A->first < B->first; });
  for (const auto *EntryPtr : Sorted) {
    const auto &Entry = *EntryPtr;
    const std::vector<Access> &List = Entry.second;
    for (size_t I = 0; I != List.size(); ++I) {
      for (size_t J = I + 1; J != List.size(); ++J) {
        const Access &A = List[I];
        const Access &B = List[J];
        if (A.Tid == B.Tid)
          continue; // Program order (HB1).
        if (!A.IsWrite && !B.IsWrite)
          continue; // Read/read pairs never conflict.
        if (ordered(A, B))
          continue;
        RaceSighting Sighting;
        Sighting.FirstPc = A.Site;
        Sighting.SecondPc = B.Site;
        Sighting.Addr = Entry.first;
        Sighting.FirstTid = A.Tid;
        Sighting.SecondTid = B.Tid;
        Sighting.FirstIsWrite = A.IsWrite;
        Sighting.SecondIsWrite = B.IsWrite;
        Report.record(Sighting);
      }
    }
  }
}

std::set<uint64_t> ReferenceDetector::racyAddresses() const {
  std::set<uint64_t> Out;
  for (const auto &Entry : Accesses) {
    const std::vector<Access> &List = Entry.second;
    bool Racy = false;
    for (size_t I = 0; I != List.size() && !Racy; ++I)
      for (size_t J = I + 1; J != List.size() && !Racy; ++J)
        Racy = List[I].Tid != List[J].Tid &&
               (List[I].IsWrite || List[J].IsWrite) &&
               !ordered(List[I], List[J]);
    if (Racy)
      Out.insert(Entry.first);
  }
  return Out;
}

size_t ReferenceDetector::accessesRecorded() const {
  size_t N = 0;
  for (const auto &Entry : Accesses)
    N += Entry.second.size();
  return N;
}

bool literace::detectRacesReference(const Trace &T, RaceReport &Report) {
  ReferenceDetector Oracle;
  if (!replayTrace(T, Oracle))
    return false;
  Oracle.enumerateRaces(Report);
  return true;
}
