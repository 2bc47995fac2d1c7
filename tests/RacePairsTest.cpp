//===-- tests/RacePairsTest.cpp - Race/no-race ground-truth pairs ----------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Minimal program pairs — one trace with a race, one differing only in the
// synchronization that removes it — pushed through EVERY detector backend
// (HB, FastTrack, and the online sink), asserting the exact verdict on
// each. Each pair isolates one happens-before edge kind:
// mutexes, release/acquire message passing, fork, join, and allocator
// recycling. The suite is the detectors' ground-truth contract: a backend
// that diverges on one of these six-event traces is wrong, full stop.
//
//===----------------------------------------------------------------------===//

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "detector/OnlineDetector.h"

#include <gtest/gtest.h>

using namespace literace;

namespace {

constexpr unsigned Counters = 16;
constexpr SyncVar M = makeSyncVar(SyncObjectKind::Mutex, 0x100);
constexpr SyncVar Chan = makeSyncVar(SyncObjectKind::User, 0x200);
constexpr SyncVar Fork = makeSyncVar(SyncObjectKind::ThreadFork, 0x300);
constexpr SyncVar Exit = makeSyncVar(SyncObjectKind::ThreadExit, 0x400);
constexpr SyncVar Page = makeSyncVar(SyncObjectKind::Page, 0x500);
constexpr uint64_t X = 0xabc0;
constexpr Pc PcA = makePc(1, 1);
constexpr Pc PcB = makePc(2, 2);

/// Runs \p T through all three backends. Asserts they agree with each
/// other, and returns the HB verdict: the set of static race keys.
std::set<StaticRaceKey> verdictAllBackends(const Trace &T) {
  RaceReport Serial;
  EXPECT_TRUE(detectRaces(T, Serial)) << "serial replay inconsistent";

  // FastTrack's epoch optimization can keep a different witness pair for
  // the same racy location, so the comparable unit is the address set.
  RaceReport FastTrack;
  EXPECT_TRUE(detectRacesFastTrack(T, FastTrack));
  EXPECT_EQ(FastTrack.racyAddresses(), Serial.racyAddresses())
      << "fasttrack != serial";

  RaceReport Online;
  OnlineDetector D(Counters, Online);
  for (ThreadId Tid = 0; Tid != T.PerThread.size(); ++Tid)
    D.writeChunk(Tid, T.PerThread[Tid].data(), T.PerThread[Tid].size());
  EXPECT_TRUE(D.finish());
  EXPECT_EQ(Online.keys(), Serial.keys()) << "online != serial";

  return Serial.keys();
}

/// The expected verdict of every racy pair member: exactly one static
/// race, between PcA and PcB.
const std::set<StaticRaceKey> OneRaceAB = {makeStaticRaceKey(PcA, PcB)};
const std::set<StaticRaceKey> NoRace = {};

TEST(RacePairsTest, UnsynchronizedWritesRace) {
  LogBuilder B(Counters);
  B.onThread(0).write(X, PcA);
  B.onThread(1).write(X, PcB);
  EXPECT_EQ(verdictAllBackends(B.build()), OneRaceAB);
}

TEST(RacePairsTest, MutexProtectedWritesDoNot) {
  LogBuilder B(Counters);
  B.onThread(0).lock(M).write(X, PcA).unlock(M);
  B.onThread(1).lock(M).write(X, PcB).unlock(M);
  EXPECT_EQ(verdictAllBackends(B.build()), NoRace);
}

TEST(RacePairsTest, WriteThenUnorderedReadRaces) {
  LogBuilder B(Counters);
  B.onThread(0).write(X, PcA);
  B.onThread(1).read(X, PcB);
  EXPECT_EQ(verdictAllBackends(B.build()), OneRaceAB);
}

TEST(RacePairsTest, ReleaseAcquireMessagePassingDoesNot) {
  // The flag-handoff pattern: write, publish (release), observe
  // (acquire), read. Dropping either half of the edge is the racy twin
  // above.
  LogBuilder B(Counters);
  B.onThread(0).write(X, PcA).release(Chan);
  B.onThread(1).acquire(Chan).read(X, PcB);
  EXPECT_EQ(verdictAllBackends(B.build()), NoRace);
}

TEST(RacePairsTest, ReadsNeverRace) {
  LogBuilder B(Counters);
  B.onThread(0).read(X, PcA);
  B.onThread(1).read(X, PcB);
  EXPECT_EQ(verdictAllBackends(B.build()), NoRace);
}

TEST(RacePairsTest, SiblingWritesWithoutJoinRace) {
  // Both children are forked from thread 0 (so each is ordered after the
  // parent) but never ordered against each other.
  LogBuilder B(Counters);
  B.onThread(0).release(Fork).release(makeSyncVar(
      SyncObjectKind::ThreadFork, 0x301));
  B.onThread(1).acquire(Fork).write(X, PcA);
  B.onThread(2)
      .acquire(makeSyncVar(SyncObjectKind::ThreadFork, 0x301))
      .write(X, PcB);
  EXPECT_EQ(verdictAllBackends(B.build()), OneRaceAB);
}

TEST(RacePairsTest, ForkEdgeOrdersParentBeforeChild) {
  LogBuilder B(Counters);
  B.onThread(0).write(X, PcA).release(Fork);
  B.onThread(1).acquire(Fork).write(X, PcB);
  EXPECT_EQ(verdictAllBackends(B.build()), NoRace);
}

TEST(RacePairsTest, ParentWriteAfterSpawnRacesWithChild) {
  // The racy twin of the fork edge: the parent writes AFTER releasing the
  // fork variable, so nothing orders it against the child's write.
  LogBuilder B(Counters);
  B.onThread(0).release(Fork).write(X, PcA);
  B.onThread(1).acquire(Fork).write(X, PcB);
  EXPECT_EQ(verdictAllBackends(B.build()), OneRaceAB);
}

TEST(RacePairsTest, JoinEdgeOrdersChildBeforeParent) {
  LogBuilder B(Counters);
  B.onThread(1).write(X, PcB).release(Exit);
  B.onThread(0).acquire(Exit).write(X, PcA);
  EXPECT_EQ(verdictAllBackends(B.build()), NoRace);
}

TEST(RacePairsTest, MissingJoinAcquireRaces) {
  LogBuilder B(Counters);
  B.onThread(1).write(X, PcB).release(Exit);
  B.onThread(0).write(X, PcA);
  EXPECT_EQ(verdictAllBackends(B.build()), OneRaceAB);
}

TEST(RacePairsTest, RecycledAllocationDoesNotRace) {
  // T0 frees the page; T1's allocation of the same page establishes the
  // edge, so reusing the address is ordered.
  LogBuilder B(Counters);
  B.onThread(0).write(X, PcA).free(Page);
  B.onThread(1).alloc(Page).write(X, PcB);
  EXPECT_EQ(verdictAllBackends(B.build()), NoRace);
}

TEST(RacePairsTest, ReuseWithoutAllocatorEdgeRaces) {
  LogBuilder B(Counters);
  B.onThread(0).write(X, PcA);
  B.onThread(1).write(X, PcB);
  // Same shape as the recycled-allocation pair but with the free/alloc
  // edge removed: the reuse is now a plain unordered conflict.
  EXPECT_EQ(verdictAllBackends(B.build()), OneRaceAB);
}

} // namespace
