//===-- tests/HBDetectorTest.cpp - Happens-before detection ----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Encodes the paper's Figure 1 (properly vs improperly synchronized
// accesses), Figure 2 (why sync events must never be sampled), Table 1's
// synchronization kinds, and the detector's shadow-state behaviors as
// deterministic replay scenarios.
//
//===----------------------------------------------------------------------===//

#include "detector/HBDetector.h"

#include "detector/FastTrackDetector.h"
#include "detector/LogBuilder.h"
#include "detector/ReferenceDetector.h"

#include <gtest/gtest.h>
#include <set>

using namespace literace;

namespace {

constexpr SyncVar L = makeSyncVar(SyncObjectKind::Mutex, 0x1000);
constexpr SyncVar L2 = makeSyncVar(SyncObjectKind::Mutex, 0x2000);
constexpr SyncVar E = makeSyncVar(SyncObjectKind::Event, 0x3000);
constexpr SyncVar ForkT1 = makeSyncVar(SyncObjectKind::ThreadFork, 1);
constexpr SyncVar ExitT1 = makeSyncVar(SyncObjectKind::ThreadExit, 1);
constexpr SyncVar CasVar = makeSyncVar(SyncObjectKind::Atomic, 0x4000);

constexpr uint64_t X = 0xdead0;
constexpr Pc PcW1 = makePc(1, 10);
constexpr Pc PcW2 = makePc(2, 20);
constexpr Pc PcR1 = makePc(3, 30);

/// Runs detection over a built trace, asserting the log is consistent.
RaceReport detect(const LogBuilder &B) {
  RaceReport Report;
  EXPECT_TRUE(detectRaces(B.build(), Report));
  return Report;
}

// --- Figure 1, left: properly synchronized writes -> no race. ---
TEST(HBDetectorTest, Figure1LeftMutexOrderedWritesDoNotRace) {
  LogBuilder B(16);
  B.onThread(0).lock(L).write(X, PcW1).unlock(L);
  B.onThread(1).lock(L).write(X, PcW2).unlock(L);
  RaceReport R = detect(B);
  EXPECT_EQ(R.numStaticRaces(), 0u);
}

// --- Figure 1, right: unsynchronized writes -> data race. ---
TEST(HBDetectorTest, Figure1RightUnsynchronizedWritesRace) {
  LogBuilder B(16);
  B.onThread(0).lock(L).write(X, PcW1).unlock(L);
  B.onThread(1).write(X, PcW2); // No synchronization at all.
  RaceReport R = detect(B);
  EXPECT_EQ(R.numStaticRaces(), 1u);
  EXPECT_TRUE(R.contains(PcW1, PcW2));
}

// --- Figure 2: if the second thread's lock/unlock ARE logged, the
// happens-before edge exists and no false race is reported; dropping the
// sync events (as a sampler would) fabricates one. ---
TEST(HBDetectorTest, Figure2SyncLoggingPreventsFalsePositive) {
  LogBuilder WithSync(16);
  WithSync.onThread(0).lock(L).write(X, PcW1).unlock(L);
  WithSync.onThread(1).lock(L).write(X, PcW2).unlock(L);
  EXPECT_EQ(detect(WithSync).numStaticRaces(), 0u);

  // Same execution, but thread 1's sync operations were not logged: the
  // detector now reports a FALSE race — which is why LiteRace never
  // samples synchronization (§3.2).
  LogBuilder Dropped(16);
  Dropped.onThread(0).lock(L).write(X, PcW1).unlock(L);
  Dropped.onThread(1).write(X, PcW2);
  EXPECT_EQ(detect(Dropped).numStaticRaces(), 1u);
}

// --- HB1: program order within one thread never races. ---
TEST(HBDetectorTest, ProgramOrderNeverRaces) {
  LogBuilder B(16);
  B.onThread(0).write(X, PcW1).read(X, PcR1).write(X, PcW2);
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

// --- HB3: transitivity through two different locks. ---
TEST(HBDetectorTest, TransitivityThroughChainedLocks) {
  LogBuilder B(16);
  // T0: write X; unlock L. T1: lock L; unlock L2. T2: lock L2; write X.
  // T0's write reaches T2 through two hops.
  B.onThread(0).write(X, PcW1).release(L);
  B.onThread(1).acquire(L).release(L2);
  B.onThread(2).acquire(L2).write(X, PcW2);
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

TEST(HBDetectorTest, DifferentLocksDoNotOrder) {
  LogBuilder B(1024);
  B.onThread(0).lock(L).write(X, PcW1).unlock(L);
  B.onThread(1).lock(L2).write(X, PcW2).unlock(L2);
  RaceReport R = detect(B);
  EXPECT_EQ(R.numStaticRaces(), 1u);
  EXPECT_TRUE(R.contains(PcW1, PcW2));
}

// --- Read/read pairs never conflict. ---
TEST(HBDetectorTest, ConcurrentReadsDoNotRace) {
  LogBuilder B(16);
  B.onThread(0).read(X, PcR1);
  B.onThread(1).read(X, PcW2);
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

TEST(HBDetectorTest, WriteReadConflictRaces) {
  LogBuilder B(16);
  B.onThread(0).write(X, PcW1);
  B.onThread(1).read(X, PcR1);
  RaceReport R = detect(B);
  ASSERT_EQ(R.numStaticRaces(), 1u);
  EXPECT_TRUE(R.contains(PcW1, PcR1));
  auto Races = R.staticRaces();
  EXPECT_FALSE(Races[0].SawWriteWrite);
}

TEST(HBDetectorTest, ReadThenWriteConflictRaces) {
  LogBuilder B(16);
  B.onThread(0).read(X, PcR1);
  B.onThread(1).write(X, PcW1);
  EXPECT_TRUE(detect(B).contains(PcR1, PcW1));
}

// --- Wait/notify (Table 1): release before notify, acquire after wait. ---
TEST(HBDetectorTest, EventNotifyOrdersWaiter) {
  LogBuilder B(16);
  B.onThread(0).write(X, PcW1).release(E); // set()
  B.onThread(1).acquire(E).write(X, PcW2); // wait()
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

TEST(HBDetectorTest, AccessBeforeNotifyStillRacesWithPreWaitAccess) {
  LogBuilder B(16);
  // T1's write happens before it waits: nothing orders it with T0's.
  B.onThread(1).write(X, PcW2);
  B.onThread(0).write(X, PcW1).release(E);
  B.onThread(1).acquire(E);
  EXPECT_EQ(detect(B).numStaticRaces(), 1u);
}

// --- Fork/join (Table 1). ---
TEST(HBDetectorTest, ForkOrdersParentBeforeChild) {
  LogBuilder B(16);
  B.onThread(0).write(X, PcW1).release(ForkT1);
  B.onThread(1).threadStart().acquire(ForkT1).write(X, PcW2);
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

TEST(HBDetectorTest, JoinOrdersChildBeforeParent) {
  LogBuilder B(16);
  B.onThread(1).write(X, PcW1).release(ExitT1).threadEnd();
  B.onThread(0).acquire(ExitT1).write(X, PcW2);
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

TEST(HBDetectorTest, SiblingsAreUnorderedWithoutJoin) {
  constexpr SyncVar ForkT2 = makeSyncVar(SyncObjectKind::ThreadFork, 2);
  LogBuilder B(1024);
  B.onThread(0).release(ForkT1).release(ForkT2);
  B.onThread(1).acquire(ForkT1).write(X, PcW1);
  B.onThread(2).acquire(ForkT2).write(X, PcW2);
  RaceReport R = detect(B);
  EXPECT_EQ(R.numStaticRaces(), 1u);
  EXPECT_TRUE(R.contains(PcW1, PcW2));
}

// --- Atomic compare-and-exchange used as a hand-rolled lock (§4.2). ---
TEST(HBDetectorTest, AtomicAcqRelChainsOrderAccesses) {
  LogBuilder B(16);
  B.onThread(0).write(X, PcW1).acqRel(CasVar); // "unlock" via CAS
  B.onThread(1).acqRel(CasVar).write(X, PcW2); // "lock" via CAS
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

// --- Allocation recycling (§4.3). ---
TEST(HBDetectorTest, AllocationEventsOrderRecycledMemory) {
  SyncVar Page = makeSyncVar(SyncObjectKind::Page, X >> 12);
  LogBuilder B(16);
  // T0 uses X, frees its page; T1 allocates the same page and reuses X.
  B.onThread(0).write(X, PcW1).free(Page);
  B.onThread(1).alloc(Page).write(X, PcW2);
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

TEST(HBDetectorTest, WithoutAllocationEventsRecyclingLooksRacy) {
  LogBuilder B(16);
  B.onThread(0).write(X, PcW1);
  B.onThread(1).write(X, PcW2);
  EXPECT_EQ(detect(B).numStaticRaces(), 1u);
}

// --- Release does not retroactively order earlier accesses. ---
TEST(HBDetectorTest, AccessAfterUnlockIsNotProtected) {
  LogBuilder B(16);
  B.onThread(0).lock(L).unlock(L).write(X, PcW1); // Write AFTER unlock.
  B.onThread(1).lock(L).write(X, PcW2).unlock(L);
  // T1's lock only acquires what T0 published at its unlock — which
  // happened before T0's write.
  EXPECT_EQ(detect(B).numStaticRaces(), 1u);
}

// --- Epoch semantics: a write just before a release is still published.
TEST(HBDetectorTest, AccessImmediatelyBeforeReleaseIsPublished) {
  LogBuilder B(16);
  B.onThread(0).lock(L).write(X, PcW1).unlock(L);
  B.onThread(1).lock(L).read(X, PcR1).unlock(L);
  EXPECT_EQ(detect(B).numStaticRaces(), 0u);
}

// --- Shadow-state behaviors. ---
TEST(HBDetectorTest, MultipleRacingThreadsAllReported) {
  LogBuilder B(1024);
  B.onThread(0).write(X, PcW1);
  B.onThread(1).write(X, PcW2);
  B.onThread(2).write(X, PcR1);
  RaceReport R = detect(B);
  // (0,1), (0,2), (1,2): all pairwise races, three distinct site pairs.
  EXPECT_EQ(R.numStaticRaces(), 3u);
  EXPECT_EQ(R.numDynamicSightings(), 3u);
}

TEST(HBDetectorTest, ReadsDoNotPruneWrites) {
  LogBuilder B(16);
  // T0 writes X, then T1 reads X ordered-after via L. A later unordered
  // READ by T2 must still race with T0's WRITE even though T1's ordered
  // read came in between.
  B.onThread(0).write(X, PcW1).release(L);
  B.onThread(1).acquire(L).read(X, PcR1);
  B.onThread(2).read(X, PcW2);
  RaceReport R = detect(B);
  ASSERT_EQ(R.numStaticRaces(), 1u);
  EXPECT_TRUE(R.contains(PcW1, PcW2));
}

TEST(HBDetectorTest, DominatedWritePruningKeepsDetection) {
  LogBuilder B(16);
  // T0 writes, T1 writes ordered-after (prunes T0's entry). T2 unordered
  // with both: the race is reported against T1's (later) write — same
  // bug, different witness, as in any epoch-based detector.
  B.onThread(0).write(X, PcW1).release(L);
  B.onThread(1).acquire(L).write(X, PcW2);
  B.onThread(2).write(X, PcR1);
  RaceReport R = detect(B);
  EXPECT_TRUE(R.contains(PcW2, PcR1));
}

TEST(HBDetectorTest, SampledViewNeverAddsRaces) {
  // Property: for every trace, the races found on a sampler-filtered view
  // are a subset of the full-log races (sampling -> false negatives only,
  // §3.1/§3.2).
  LogBuilder B(16);
  B.onThread(0).lock(L).write(X, PcW1, FullLogMaskBit | 1).unlock(L)
      .write(X + 8, PcW2, FullLogMaskBit | 1);
  B.onThread(1).write(X, PcW2, FullLogMaskBit)
      .write(X + 8, PcR1, FullLogMaskBit | 1).lock(L).unlock(L);
  Trace T = B.build();

  RaceReport Full, Sampled;
  EXPECT_TRUE(detectRaces(T, Full));
  ReplayOptions Options;
  Options.SamplerSlot = 0;
  EXPECT_TRUE(detectRaces(T, Sampled, Options));

  for (const StaticRaceKey &Key : Sampled.keys())
    EXPECT_TRUE(Full.keys().count(Key))
        << "sampled view fabricated a race";
  EXPECT_LE(Sampled.numStaticRaces(), Full.numStaticRaces());
}

TEST(HBDetectorTest, CoverageGapBarriersPopulatedShadowTable) {
  // Populate shadow state across several distinct pages of the flat
  // table (addresses far enough apart to land in different 2^9-slot
  // pages), then hit a timestamp gap, then touch every address again
  // from another thread. The gap barrier must order all post-gap
  // accesses after the pre-gap state already in the table, so nothing
  // is reported — while the pre-gap state itself stays intact.
  constexpr unsigned NumAddrs = 24;
  LogBuilder B(16);
  B.onThread(0);
  for (unsigned I = 0; I != NumAddrs; ++I)
    B.write(X + I * 0x10000, PcW1); // One page apart each.
  B.onThread(0).acquire(L);
  B.skipTimestamps(L); // A draw lost with a dropped segment.
  B.onThread(1).acquire(L);
  B.onThread(1);
  for (unsigned I = 0; I != NumAddrs; ++I)
    B.write(X + I * 0x10000, PcW2);

  ReplayOptions Opts;
  Opts.AllowTimestampGaps = true;
  RaceReport Report;
  HBDetector D(Report);
  EXPECT_TRUE(replayTrace(B.build(), D, Opts));
  EXPECT_EQ(D.coverageGaps(), 1u);
  EXPECT_EQ(Report.numStaticRaces(), 0u) << Report.describe();
  // Every address still has exactly one shadow slot: the barrier
  // suppresses reports without wiping or duplicating table state.
  EXPECT_EQ(D.shadowAddressCount(), NumAddrs);
}

TEST(HBDetectorTest, CountsEventsProcessed) {
  LogBuilder B(16);
  B.onThread(0).write(X, PcW1).read(X, PcR1).lock(L).unlock(L);
  RaceReport Report;
  HBDetector D(Report);
  EXPECT_TRUE(replayTrace(B.build(), D));
  EXPECT_EQ(D.memoryEventsProcessed(), 2u);
  EXPECT_EQ(D.syncEventsProcessed(), 2u);
  EXPECT_EQ(D.shadowAddressCount(), 1u);
}

TEST(HBDetectorTest, ThousandsOfPageSyncVarsMatchTheReference) {
  // Allocation events make every page a SyncVar (§4.3). 1,200 pages are
  // handed from thread to thread through alloc/free, first touched in
  // order, so the sync-clock table grows all through the replay. Thread 4
  // never synchronizes; its writes to every 97th page race with the page's
  // owners, and nothing else does.
  constexpr unsigned Pages = 1200;
  LogBuilder B(128);
  std::set<uint64_t> Seeded;
  for (unsigned P = 0; P != Pages; ++P) {
    const uint64_t Addr = ((uint64_t{0x100000} + P) << 12) | 0x40;
    const SyncVar PageVar = makeSyncVar(SyncObjectKind::Page, Addr >> 12);
    const auto Owner = static_cast<ThreadId>(P % 4);
    const auto Next = static_cast<ThreadId>((P + 1) % 4);
    B.onThread(Owner).alloc(PageVar).write(Addr, makePc(1, P)).free(PageVar);
    if (P % 97 == 0) {
      B.onThread(4).write(Addr, makePc(9, P));
      Seeded.insert(Addr);
    }
    B.onThread(Next)
        .alloc(PageVar)
        .read(Addr, makePc(2, P))
        .write(Addr, makePc(3, P))
        .free(PageVar);
  }
  const Trace T = B.build();

  RaceReport Oracle;
  ASSERT_TRUE(detectRacesReference(T, Oracle));
  EXPECT_EQ(Oracle.racyAddresses(), Seeded);

  RaceReport HB;
  ASSERT_TRUE(detectRaces(T, HB));
  EXPECT_EQ(HB.racyAddresses(), Oracle.racyAddresses());
  const std::set<StaticRaceKey> TrueRaces = Oracle.keys();
  for (const StaticRaceKey &Key : HB.keys())
    EXPECT_TRUE(TrueRaces.count(Key))
        << Key.first << "/" << Key.second << " is not a race";

  RaceReport FastTrack;
  ASSERT_TRUE(detectRacesFastTrack(T, FastTrack));
  EXPECT_EQ(FastTrack.racyAddresses(), Oracle.racyAddresses());
}

} // namespace
