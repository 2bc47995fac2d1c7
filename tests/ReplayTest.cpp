//===-- tests/ReplayTest.cpp - Replay scheduling ---------------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/Replay.h"

#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "detector/ReferenceDetector.h"
#include "runtime/TimestampManager.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <malloc.h>
#include <set>
#include <vector>

using namespace literace;

namespace {

/// Records the order in which events are delivered.
struct Recorder : TraceConsumer {
  std::vector<EventRecord> Events;
  void onEvent(const EventRecord &R) override { Events.push_back(R); }
};

constexpr SyncVar MutexA = makeSyncVar(SyncObjectKind::Mutex, 0xA00);
constexpr SyncVar MutexB = makeSyncVar(SyncObjectKind::Mutex, 0xB00);

TEST(ReplayTest, SingleThreadDeliversProgramOrder) {
  LogBuilder B(16);
  B.onThread(0).threadStart().write(0x10, 1).acquire(MutexA).read(0x20, 2)
      .release(MutexA).threadEnd();
  Recorder R;
  EXPECT_TRUE(replayTrace(B.build(), R));
  ASSERT_EQ(R.Events.size(), 6u);
  EXPECT_EQ(R.Events[0].Kind, EventKind::ThreadStart);
  EXPECT_EQ(R.Events[1].Kind, EventKind::Write);
  EXPECT_EQ(R.Events[2].Kind, EventKind::Acquire);
  EXPECT_EQ(R.Events[3].Kind, EventKind::Read);
  EXPECT_EQ(R.Events[4].Kind, EventKind::Release);
  EXPECT_EQ(R.Events[5].Kind, EventKind::ThreadEnd);
}

TEST(ReplayTest, SyncEventsDeliveredInTimestampOrder) {
  // Thread 1's acquire has the earlier timestamp even though thread 1 is
  // visited second by the scheduler: the replay must deliver it first.
  LogBuilder B(16);
  B.onThread(1).acquire(MutexA); // ts 1
  B.onThread(0).acquire(MutexA); // ts 2
  Recorder R;
  EXPECT_TRUE(replayTrace(B.build(), R));
  ASSERT_EQ(R.Events.size(), 2u);
  EXPECT_EQ(R.Events[0].Tid, 1u);
  EXPECT_EQ(R.Events[1].Tid, 0u);
}

TEST(ReplayTest, CrossThreadInterleavingRespectsPerVarOrder) {
  // T0: lock(A) unlock(A); T1: lock(A) unlock(A) — T1's lock drawn after
  // T0's unlock, so T0's critical section must be fully delivered first.
  LogBuilder B(16);
  B.onThread(0).lock(MutexA).write(0x10, 1).unlock(MutexA);
  B.onThread(1).lock(MutexA).write(0x10, 2).unlock(MutexA);
  Recorder R;
  EXPECT_TRUE(replayTrace(B.build(), R));
  ASSERT_EQ(R.Events.size(), 6u);
  // All of T0's events precede all of T1's.
  for (unsigned I = 0; I != 3; ++I)
    EXPECT_EQ(R.Events[I].Tid, 0u);
  for (unsigned I = 3; I != 6; ++I)
    EXPECT_EQ(R.Events[I].Tid, 1u);
}

TEST(ReplayTest, IndependentSyncVarsInterleaveFreely) {
  LogBuilder B(1024); // Many counters: A and B land on different ones.
  B.onThread(0).lock(MutexA).unlock(MutexA);
  B.onThread(1).lock(MutexB).unlock(MutexB);
  Recorder R;
  EXPECT_TRUE(replayTrace(B.build(), R));
  EXPECT_EQ(R.Events.size(), 4u);
}

TEST(ReplayTest, FilterDropsUnsampledMemoryEventsOnly) {
  LogBuilder B(16);
  B.onThread(0)
      .write(0x10, 1, /*Mask=*/FullLogMaskBit | 0x1) // sampled by slot 0
      .write(0x20, 2, /*Mask=*/FullLogMaskBit)       // full log only
      .acquire(MutexA);
  ReplayOptions Options;
  Options.SamplerSlot = 0;
  Recorder R;
  EXPECT_TRUE(replayTrace(B.build(), R, Options));
  ASSERT_EQ(R.Events.size(), 2u);
  EXPECT_EQ(R.Events[0].Addr, 0x10u);
  EXPECT_EQ(R.Events[1].Kind, EventKind::Acquire); // Sync never filtered.
}

TEST(ReplayTest, NegativeSlotDeliversEverything) {
  LogBuilder B(16);
  B.onThread(0).write(0x10, 1, 0).write(0x20, 2, FullLogMaskBit);
  Recorder R;
  EXPECT_TRUE(replayTrace(B.build(), R));
  EXPECT_EQ(R.Events.size(), 2u);
}

TEST(ReplayTest, MissingTimestampMakesLogInconsistent) {
  // Draw a timestamp that is never logged: the next sync event on that
  // counter can never be enabled.
  LogBuilder B(1);
  B.onThread(0).acquire(MutexA); // ts 1
  B.onThread(0).acquire(MutexA); // ts 2
  Trace T = B.build();
  // Drop the ts=1 event.
  T.PerThread[0].erase(T.PerThread[0].begin());
  Recorder R;
  EXPECT_FALSE(replayTrace(T, R));
}

TEST(ReplayTest, DuplicateTimestampMakesLogInconsistent) {
  LogBuilder B(1);
  B.onThread(0).acquire(MutexA); // ts 1
  Trace T = B.build();
  EventRecord Dup = T.PerThread[0][0];
  T.PerThread.resize(2);
  T.PerThread[1].push_back(Dup); // Same ts on the same counter.
  Recorder R;
  EXPECT_FALSE(replayTrace(T, R));
}

TEST(ReplayTest, SyncEventWithZeroTimestampIsMalformed) {
  Trace T;
  T.NumTimestampCounters = 16;
  T.PerThread.resize(1);
  EventRecord R;
  R.Kind = EventKind::Acquire;
  R.Addr = MutexA;
  R.Ts = 0;
  T.PerThread[0].push_back(R);
  Recorder Rec;
  EXPECT_FALSE(replayTrace(T, Rec));
}

TEST(ReplayTest, EmptyTraceIsConsistent) {
  Trace T;
  T.NumTimestampCounters = 16;
  Recorder R;
  EXPECT_TRUE(replayTrace(T, R));
  EXPECT_TRUE(R.Events.empty());
}

TEST(ReplaySchedulerTest, DrainsIncrementally) {
  LogBuilder B(16);
  B.onThread(0).lock(MutexA).write(0x10, 1).unlock(MutexA);
  B.onThread(1).lock(MutexA).write(0x10, 2).unlock(MutexA);
  Trace T = B.build();

  ReplayScheduler Sched(16);
  Recorder R;
  // Feed thread 1 first: nothing can be delivered except... thread 1's
  // lock waits for thread 0's unlock.
  Sched.addEvents(1, T.PerThread[1].data(), T.PerThread[1].size());
  EXPECT_EQ(Sched.drain(R), 0u);
  EXPECT_FALSE(Sched.fullyDrained());
  EXPECT_EQ(Sched.pendingEvents(), 3u);

  Sched.addEvents(0, T.PerThread[0].data(), T.PerThread[0].size());
  EXPECT_EQ(Sched.drain(R), 6u);
  EXPECT_TRUE(Sched.fullyDrained());
  // Thread 0's critical section delivered before thread 1's.
  EXPECT_EQ(R.Events[0].Tid, 0u);
  EXPECT_EQ(R.Events[5].Tid, 1u);
}

TEST(ReplaySchedulerTest, PartialChunksDrainAsTheyArrive) {
  LogBuilder B(16);
  B.onThread(0).write(0x1, 1).write(0x2, 2).write(0x3, 3);
  Trace T = B.build();
  ReplayScheduler Sched(16);
  Recorder R;
  Sched.addEvents(0, T.PerThread[0].data(), 1);
  EXPECT_EQ(Sched.drain(R), 1u);
  Sched.addEvents(0, T.PerThread[0].data() + 1, 2);
  EXPECT_EQ(Sched.drain(R), 2u);
  EXPECT_TRUE(Sched.fullyDrained());
  EXPECT_EQ(R.Events.size(), 3u);
}

/// Also counts coverage-gap notifications.
struct GapRecorder : Recorder {
  uint64_t Gaps = 0;
  void onCoverageGap() override { ++Gaps; }
};

// skipTimestamps() is exactly what a dropped log segment looks like: the
// counter advanced in the original execution but the events carrying
// those timestamps are gone.

TEST(ReplayGapTest, StrictReplayFailsOnSkippedTimestamp) {
  LogBuilder B(16);
  B.onThread(0).acquire(MutexA); // ts 1
  B.skipTimestamps(MutexA);      // ts 2 lost with a dropped segment
  B.onThread(1).acquire(MutexA); // ts 3
  Recorder R;
  EXPECT_FALSE(replayTrace(B.build(), R));
}

TEST(ReplayGapTest, GapTolerantReplayDeliversEverything) {
  LogBuilder B(16);
  B.onThread(0).acquire(MutexA).write(0x10, 1);
  B.skipTimestamps(MutexA, 3);
  B.onThread(1).acquire(MutexA).write(0x20, 2);
  ReplayOptions Opts;
  Opts.AllowTimestampGaps = true;
  uint64_t Gaps = 0;
  Opts.OutTimestampGaps = &Gaps;
  GapRecorder R;
  EXPECT_TRUE(replayTrace(B.build(), R, Opts));
  EXPECT_EQ(R.Events.size(), 4u);
  // One stall: the counter jumps from 1 past the three lost draws.
  EXPECT_EQ(Gaps, 1u);
  EXPECT_EQ(R.Gaps, 1u);
}

TEST(ReplayGapTest, GapsOnSeveralCountersAllResolve) {
  LogBuilder B(16);
  B.onThread(0).acquire(MutexA).acquire(MutexB);
  B.skipTimestamps(MutexA);
  B.skipTimestamps(MutexB);
  B.onThread(1).acquire(MutexA).acquire(MutexB);
  ReplayOptions Opts;
  Opts.AllowTimestampGaps = true;
  GapRecorder R;
  EXPECT_TRUE(replayTrace(B.build(), R, Opts));
  EXPECT_EQ(R.Events.size(), 4u);
  EXPECT_EQ(R.Gaps, 2u);
}

TEST(ReplayGapTest, GapModeLeavesConsistentTracesUntouched) {
  // No gaps: the tolerant replay must deliver the identical order.
  LogBuilder B(16);
  B.onThread(0).lock(MutexA).write(0x10, 1).unlock(MutexA);
  B.onThread(1).lock(MutexA).write(0x10, 2).unlock(MutexA);
  Trace T = B.build();
  Recorder Strict;
  ASSERT_TRUE(replayTrace(T, Strict));
  ReplayOptions Opts;
  Opts.AllowTimestampGaps = true;
  GapRecorder Tolerant;
  ASSERT_TRUE(replayTrace(T, Tolerant, Opts));
  EXPECT_EQ(Tolerant.Gaps, 0u);
  ASSERT_EQ(Tolerant.Events.size(), Strict.Events.size());
  for (size_t I = 0; I != Strict.Events.size(); ++I) {
    EXPECT_EQ(Tolerant.Events[I].Tid, Strict.Events[I].Tid) << I;
    EXPECT_EQ(Tolerant.Events[I].Addr, Strict.Events[I].Addr) << I;
  }
}

TEST(ReplaySchedulerTest, DrainAllowingGapsUnblocksStalledStreams) {
  LogBuilder B(16);
  B.onThread(0).acquire(MutexA); // ts 1
  B.skipTimestamps(MutexA);      // ts 2 lost
  B.onThread(1).acquire(MutexA); // ts 3
  Trace T = B.build();
  ReplayScheduler Sched(16);
  GapRecorder R;
  for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
    Sched.addEvents(static_cast<ThreadId>(Tid), T.PerThread[Tid].data(),
                    T.PerThread[Tid].size());
  Sched.drain(R); // Thread 1's acquire stalls on the lost ts 2.
  EXPECT_FALSE(Sched.fullyDrained());
  EXPECT_GT(Sched.drainAllowingGaps(R), 0u);
  EXPECT_TRUE(Sched.fullyDrained());
  EXPECT_EQ(Sched.timestampGaps(), 1u);
  EXPECT_EQ(R.Events.size(), 2u);
}

/// A random LogBuilder trace: up to five threads issuing bursts of
/// memory accesses (program-order memory runs) on a few addresses,
/// interleaved with sync operations on a few variables. With
/// \p WithGaps, some timestamps are drawn and lost, as with a dropped
/// segment.
Trace randomTrace(SplitMix64 &Rng, bool WithGaps) {
  static constexpr unsigned CounterChoices[] = {1, 4, 16};
  LogBuilder B(CounterChoices[Rng.nextBelow(3)]);
  const SyncVar Vars[] = {MutexA, MutexB,
                          makeSyncVar(SyncObjectKind::User, 0xC00)};
  const unsigned Threads = 1 + static_cast<unsigned>(Rng.nextBelow(5));
  const unsigned Steps = 10 + static_cast<unsigned>(Rng.nextBelow(60));
  for (unsigned Step = 0; Step != Steps; ++Step) {
    const auto Tid = static_cast<ThreadId>(Rng.nextBelow(Threads));
    B.onThread(Tid);
    const SyncVar S = Vars[Rng.nextBelow(3)];
    switch (Rng.nextBelow(WithGaps ? 6 : 5)) {
    case 0:
    case 1:
    case 2:
      for (uint64_t I = 0, N = 1 + Rng.nextBelow(8); I != N; ++I) {
        const uint64_t Addr = 0x1000 + 8 * Rng.nextBelow(6);
        const Pc Site = makePc(Tid + 1, static_cast<uint32_t>(I));
        const uint16_t Mask = Rng.nextBelow(2)
                                  ? FullLogMaskBit
                                  : uint16_t(FullLogMaskBit | 0x1);
        if (Rng.nextBelow(2))
          B.write(Addr, Site, Mask);
        else
          B.read(Addr, Site, Mask);
      }
      break;
    case 3:
      B.acquire(S);
      break;
    case 4:
      B.release(S);
      break;
    default:
      B.skipTimestamps(S, 1 + static_cast<unsigned>(Rng.nextBelow(3)));
      break;
    }
  }
  return B.build();
}

/// One chunk of a thread's stream, as a live producer would hand it over.
struct TraceChunk {
  ThreadId Tid;
  std::vector<EventRecord> Records;
};

/// Splits every stream of \p T at random points (inside memory runs
/// too; empty chunks included) and interleaves the chunks of different
/// threads in random order, keeping each thread's chunks in program
/// order.
std::vector<TraceChunk> randomChunks(SplitMix64 &Rng, const Trace &T) {
  std::vector<std::vector<TraceChunk>> PerThread(T.PerThread.size());
  for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid) {
    const std::vector<EventRecord> &Stream = T.PerThread[Tid];
    std::vector<size_t> Cuts{0, Stream.size()};
    for (uint64_t I = 0, N = Rng.nextBelow(5); I != N; ++I)
      Cuts.push_back(Rng.nextBelow(Stream.size() + 1));
    std::sort(Cuts.begin(), Cuts.end());
    for (size_t I = 0; I + 1 != Cuts.size(); ++I)
      PerThread[Tid].push_back(
          {static_cast<ThreadId>(Tid),
           std::vector<EventRecord>(Stream.begin() + Cuts[I],
                                    Stream.begin() + Cuts[I + 1])});
  }
  std::vector<TraceChunk> Order;
  std::vector<size_t> Next(PerThread.size(), 0);
  for (size_t Left = T.PerThread.size(); Left != 0;) {
    size_t Tid = Rng.nextBelow(PerThread.size());
    while (Next[Tid] == PerThread[Tid].size())
      Tid = (Tid + 1) % PerThread.size();
    Order.push_back(std::move(PerThread[Tid][Next[Tid]]));
    if (++Next[Tid] == PerThread[Tid].size())
      --Left;
  }
  return Order;
}

/// Adds \p C through either addEvents overload.
void addChunk(SplitMix64 &Rng, ReplayScheduler &Sched, TraceChunk &C) {
  if (Rng.nextBelow(2))
    Sched.addEvents(C.Tid, std::move(C.Records));
  else
    Sched.addEvents(C.Tid, C.Records.data(), C.Records.size());
}

bool sameEvent(const EventRecord &A, const EventRecord &B) {
  return A.Tid == B.Tid && A.Kind == B.Kind && A.Addr == B.Addr &&
         A.Pc == B.Pc && A.Ts == B.Ts && A.Mask == B.Mask;
}

TEST(ReplaySchedulerTest, ChunkedGapReplayMatchesWholeTraceReplay) {
  // However a trace arrives — split anywhere, threads interleaved in any
  // order — the end-of-stream drain must reproduce whole-trace replay
  // exactly: same events in the same order, same gaps, same report.
  SplitMix64 Rng(0x5eed1e55);
  for (int Trial = 0; Trial != 300; ++Trial) {
    const bool WithGaps = Trial % 2 == 1;
    const Trace T = randomTrace(Rng, WithGaps);
    ReplayOptions Opts;
    Opts.AllowTimestampGaps = true;
    Opts.SamplerSlot = Rng.nextBelow(4) == 0 ? 0 : -1;
    SCOPED_TRACE(testing::Message() << "trial " << Trial);

    GapRecorder Whole;
    ASSERT_TRUE(replayTrace(T, Whole, Opts));
    RaceReport WholeReport;
    HBDetector WholeDetector(WholeReport);
    ASSERT_TRUE(replayTrace(T, WholeDetector, Opts));

    const std::vector<TraceChunk> Chunks = randomChunks(Rng, T);
    ReplayScheduler EventSched(T.NumTimestampCounters, Opts);
    ReplayScheduler DetectSched(T.NumTimestampCounters, Opts);
    for (TraceChunk C : Chunks) {
      TraceChunk Copy = C;
      addChunk(Rng, EventSched, C);
      addChunk(Rng, DetectSched, Copy);
    }
    GapRecorder Chunked;
    EventSched.drainAllowingGaps(Chunked);
    RaceReport ChunkedReport;
    HBDetector ChunkedDetector(ChunkedReport);
    DetectSched.drainAllowingGaps(ChunkedDetector);

    ASSERT_TRUE(EventSched.fullyDrained());
    ASSERT_TRUE(DetectSched.fullyDrained());
    EXPECT_EQ(Chunked.Gaps, Whole.Gaps);
    EXPECT_EQ(EventSched.timestampGaps(), Whole.Gaps);
    EXPECT_EQ(DetectSched.timestampGaps(), Whole.Gaps);
    ASSERT_EQ(Chunked.Events.size(), Whole.Events.size());
    for (size_t I = 0; I != Whole.Events.size(); ++I)
      ASSERT_TRUE(sameEvent(Chunked.Events[I], Whole.Events[I])) << I;
    EXPECT_EQ(ChunkedReport.describe(), WholeReport.describe());
    EXPECT_EQ(ChunkedDetector.coverageGaps(), Whole.Gaps);
  }
}

TEST(ReplaySchedulerTest, DrainAfterEveryChunkDeliversEverything) {
  // The live path: drain after each arriving chunk. The delivery order
  // then depends on arrival, but on a gap-free trace every event must be
  // delivered and the detector must flag the same racy addresses as
  // batch. Witness site pairs may legitimately differ: which earlier
  // access a write prunes depends on the delivery order (see
  // ReferenceDetector.h), so every live pair is checked against the
  // all-pairs oracle instead.
  SplitMix64 Rng(0xd7a1f00d);
  for (int Trial = 0; Trial != 300; ++Trial) {
    const Trace T = randomTrace(Rng, /*WithGaps=*/false);
    SCOPED_TRACE(testing::Message() << "trial " << Trial);
    RaceReport Batch;
    ASSERT_TRUE(detectRaces(T, Batch));
    RaceReport Oracle;
    ASSERT_TRUE(detectRacesReference(T, Oracle));
    const std::set<StaticRaceKey> TrueRaces = Oracle.keys();

    std::vector<TraceChunk> Chunks = randomChunks(Rng, T);
    ReplayScheduler Sched(T.NumTimestampCounters);
    RaceReport Live;
    HBDetector Detector(Live);
    size_t Delivered = 0;
    for (TraceChunk &C : Chunks) {
      addChunk(Rng, Sched, C);
      Delivered += Sched.drain(Detector);
    }
    EXPECT_TRUE(Sched.fullyDrained());
    EXPECT_EQ(Delivered, T.totalEvents());
    EXPECT_EQ(Detector.memoryEventsProcessed() +
                  Detector.syncEventsProcessed(),
              T.memoryOps() + T.syncOps());
    EXPECT_EQ(Live.racyAddresses(), Batch.racyAddresses());
    for (const StaticRaceKey &Key : Live.keys())
      EXPECT_TRUE(TrueRaces.count(Key))
          << Key.first << "/" << Key.second << " is not a race";
  }
}

TEST(ReplaySchedulerTest, ForgedThreadIdCostsOneStream) {
  // The stream decoder accepts any Tid below 2^20, so one CRC-valid
  // record from a hostile client can name thread 2^20. Scheduler state
  // must scale with the threads that have pending events, not with the
  // largest id seen.
  EventRecord R;
  R.Kind = EventKind::Write;
  R.Tid = 1u << 20;
  R.Addr = 0x10;
  const struct mallinfo2 Before = mallinfo2();
  ReplayScheduler Sched(16);
  Sched.addEvents(R.Tid, &R, 1);
  const struct mallinfo2 After = mallinfo2();
  const auto Allocated = [](const struct mallinfo2 &M) {
    return static_cast<int64_t>(M.uordblks + M.hblkhd);
  };
  EXPECT_LT(Allocated(After) - Allocated(Before), int64_t(1) << 20);

  Recorder Rec;
  for (int I = 0; I != 100; ++I)
    Sched.drain(Rec);
  EXPECT_TRUE(Sched.fullyDrained());
  ASSERT_EQ(Rec.Events.size(), 1u);
  EXPECT_EQ(Rec.Events[0].Tid, 1u << 20);
}

} // namespace
