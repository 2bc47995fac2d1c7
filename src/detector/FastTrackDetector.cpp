//===-- detector/FastTrackDetector.cpp - Epoch-optimized HB ---------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/FastTrackDetector.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace literace;

FastTrackDetector::FastTrackDetector(RaceReport &Report) : Report(Report) {}

VectorClock &FastTrackDetector::clockOf(ThreadId T) {
  if (T >= ThreadClocks.size())
    ThreadClocks.resize(T + 1);
  VectorClock &Clock = ThreadClocks[T];
  if (Clock.get(T) == 0) {
    // Threads first seen after a coverage gap start behind the barrier.
    Clock.joinWith(GapBarrier);
    Clock.set(T, Clock.get(T) + 1);
  }
  return Clock;
}

void FastTrackDetector::onCoverageGap() {
  ++CoverageGaps;
  // Same conservative barrier as HBDetector::onCoverageGap(): cross-gap
  // access pairs become ordered, so missing sync edges can only hide
  // races, never fabricate them.
  for (const VectorClock &Clock : ThreadClocks)
    GapBarrier.joinWith(Clock);
  for (size_t T = 0; T != ThreadClocks.size(); ++T) {
    VectorClock &Clock = ThreadClocks[T];
    if (Clock.get(static_cast<ThreadId>(T)) == 0)
      continue;
    Clock.joinWith(GapBarrier);
    Clock.tick(static_cast<ThreadId>(T));
  }
}

void FastTrackDetector::acquire(ThreadId T, SyncVar S) {
  if (const VectorClock *Sync = SyncClocks.find(S))
    clockOf(T).joinWith(*Sync);
}

void FastTrackDetector::release(ThreadId T, SyncVar S) {
  VectorClock &Thread = clockOf(T);
  SyncClocks.ref(S).joinWith(Thread);
  Thread.tick(T);
}

void FastTrackDetector::acquireRelease(ThreadId T, SyncVar S) {
  VectorClock &Thread = clockOf(T);
  VectorClock &Sync = SyncClocks.ref(S);
  Thread.joinWith(Sync);
  Sync.joinWith(Thread);
  Thread.tick(T);
}

void FastTrackDetector::onEvent(const EventRecord &R) {
  switch (R.Kind) {
  case EventKind::ThreadStart:
  case EventKind::ThreadEnd:
    (void)clockOf(R.Tid);
    return;
  case EventKind::PolicyMeta:
    // Elision-policy stamp; carries no access and no HB edge.
    return;
  case EventKind::Read: {
    ++MemoryEvents;
    const VectorClock &Clock = clockOf(R.Tid);
    onRead(R, Clock, Clock.get(R.Tid));
    return;
  }
  case EventKind::Write: {
    ++MemoryEvents;
    const VectorClock &Clock = clockOf(R.Tid);
    onWrite(R, Clock, Clock.get(R.Tid));
    return;
  }
  case EventKind::Acquire:
    acquire(R.Tid, R.Addr);
    return;
  case EventKind::Release:
    release(R.Tid, R.Addr);
    return;
  case EventKind::AcqRel:
  case EventKind::Alloc:
  case EventKind::Free:
    acquireRelease(R.Tid, R.Addr);
    return;
  }
  literaceUnreachable("invalid event kind");
}

void FastTrackDetector::report(const Epoch &Old, const EventRecord &New,
                               bool OldIsWrite) {
  RaceSighting Sighting;
  Sighting.FirstPc = Old.Site;
  Sighting.SecondPc = New.Pc;
  Sighting.Addr = New.Addr;
  Sighting.FirstTid = Old.Tid;
  Sighting.SecondTid = New.Tid;
  Sighting.FirstIsWrite = OldIsWrite;
  Sighting.SecondIsWrite = New.Kind == EventKind::Write;
  Report.record(Sighting);
}

void FastTrackDetector::onRead(const EventRecord &R,
                               const VectorClock &Clock,
                               uint64_t OwnEpoch) {
  const ThreadId T = R.Tid;
  AddressState &State = Shadow.ref(R.Addr);

  // Read-write check against the single write epoch.
  if (State.Write.Clock != 0 && State.Write.Tid != T &&
      Clock.get(State.Write.Tid) < State.Write.Clock)
    report(State.Write, R, /*OldIsWrite=*/true);

  const Epoch Mine{T, OwnEpoch, R.Pc};
  if (State.SharedRead) {
    // Slow path: per-thread read epochs.
    if (T >= State.ReadShared.size())
      State.ReadShared.resize(T + 1);
    State.ReadShared[T] = Mine;
    return;
  }
  // Exclusive / same-epoch fast paths.
  if (State.Read.Clock == 0 || State.Read.Tid == T ||
      Clock.get(State.Read.Tid) >= State.Read.Clock) {
    State.Read = Mine;
    return;
  }
  // Concurrent reads by two threads: promote to read-shared.
  ++Promotions;
  State.SharedRead = true;
  State.ReadShared.clear();
  State.ReadShared.resize(std::max<size_t>(T, State.Read.Tid) + 1);
  State.ReadShared[State.Read.Tid] = State.Read;
  State.ReadShared[T] = Mine;
  State.Read = Epoch();
}

void FastTrackDetector::onWrite(const EventRecord &R,
                                const VectorClock &Clock,
                                uint64_t OwnEpoch) {
  const ThreadId T = R.Tid;
  AddressState &State = Shadow.ref(R.Addr);

  // Write-write check against the single write epoch: writes to a
  // race-free variable are totally ordered, so one epoch suffices.
  if (State.Write.Clock != 0 && State.Write.Tid != T &&
      Clock.get(State.Write.Tid) < State.Write.Clock)
    report(State.Write, R, /*OldIsWrite=*/true);

  // Write-read checks.
  if (State.SharedRead) {
    for (const Epoch &Old : State.ReadShared)
      if (Old.Clock != 0 && Old.Tid != T &&
          Clock.get(Old.Tid) < Old.Clock)
        report(Old, R, /*OldIsWrite=*/false);
    // Demotion (FastTrack's W_x := E_t rule): the write supersedes the
    // read set. Ordered reads are published; racing ones were just
    // reported — either way future conflicts are caught against this
    // write, so the expensive per-thread view is dropped and subsequent
    // reads restart on the exclusive-epoch fast path.
    ++Demotions;
    State.SharedRead = false;
    State.ReadShared.clear();
  } else if (State.Read.Clock != 0 && State.Read.Tid != T &&
             Clock.get(State.Read.Tid) < State.Read.Clock) {
    report(State.Read, R, /*OldIsWrite=*/false);
    State.Read = Epoch();
  } else if (State.Read.Clock != 0 &&
             (State.Read.Tid == T ||
              Clock.get(State.Read.Tid) >= State.Read.Clock)) {
    State.Read = Epoch();
  }

  State.Write = Epoch{T, OwnEpoch, R.Pc};
}

size_t FastTrackDetector::onMemoryRun(const EventRecord *Records,
                                      size_t MaxCount) {
  // One thread, no intervening sync within the run: clock and epoch
  // hold until the first non-memory record, where the walk stops.
  const VectorClock &Clock = clockOf(Records[0].Tid);
  const uint64_t OwnEpoch = Clock.get(Records[0].Tid);
  size_t I = 0;
  do {
    const EventRecord &R = Records[I];
    if (R.Kind == EventKind::Write)
      onWrite(R, Clock, OwnEpoch);
    else
      onRead(R, Clock, OwnEpoch);
    ++I;
  } while (I != MaxCount && isMemoryKind(Records[I].Kind));
  MemoryEvents += I;
  return I;
}

bool literace::detectRacesFastTrack(const Trace &T, RaceReport &Report,
                                    const ReplayOptions &Options) {
  FastTrackDetector Detector(Report);
  return replayTrace(T, Detector, Options);
}
