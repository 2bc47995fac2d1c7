//===-- tests/ModelCheckTest.cpp - Oracle cross-validation ------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Cross-validates the production detectors against the brute-force
// ReferenceDetector oracle, which snapshots a full vector clock per
// memory access and enumerates ALL racing pairs:
//
//   soundness     every pair a production detector reports is confirmed
//                 unordered by the oracle (no false positives, ever);
//   completeness  the production detectors flag exactly the addresses
//                 the oracle finds racy (witness pairs may differ).
//
// Randomized traces cover lock/event/atomic/fork mixtures; a small run
// of each of the twelve benchmark workloads closes the loop end to end.
//
//===----------------------------------------------------------------------===//

#include "detector/ReferenceDetector.h"

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "detector/LogBuilder.h"
#include "harness/DetectionExperiment.h"
#include "support/SplitMix64.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>

using namespace literace;

namespace {

/// Random well-formed trace over a mix of synchronization kinds.
Trace randomTrace(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  LogBuilder B(8);
  const unsigned Threads = 2 + Rng.nextBelow(4);
  const unsigned Ops = 30 + Rng.nextBelow(60);

  // Fork edges from thread 0 to everyone, half the time (the other half
  // leaves the threads fully unordered at start).
  if (Rng.nextBelow(2)) {
    B.onThread(0);
    for (unsigned T = 1; T != Threads; ++T)
      B.release(makeSyncVar(SyncObjectKind::ThreadFork, T));
  }
  for (unsigned T = 1; T != Threads; ++T)
    if (Rng.nextBelow(2))
      B.onThread(T).acquire(makeSyncVar(SyncObjectKind::ThreadFork, T));

  for (unsigned T = 0; T != Threads; ++T) {
    B.onThread(T);
    int Held = -1;
    for (unsigned I = 0; I != Ops; ++I) {
      uint64_t Addr = 0x1000 + 8 * Rng.nextBelow(5);
      switch (Rng.nextBelow(8)) {
      case 0:
      case 1:
        B.read(Addr, makePc(T, I));
        break;
      case 2:
      case 3:
        B.write(Addr, makePc(T, I));
        break;
      case 4:
        if (Held < 0) {
          Held = static_cast<int>(Rng.nextBelow(2));
          B.lock(makeSyncVar(SyncObjectKind::Mutex, 0x9000 + Held));
        }
        break;
      case 5:
        if (Held >= 0) {
          B.unlock(makeSyncVar(SyncObjectKind::Mutex, 0x9000 + Held));
          Held = -1;
        }
        break;
      case 6:
        B.acqRel(makeSyncVar(SyncObjectKind::Atomic, 0xa000));
        break;
      case 7:
        if (Rng.nextBelow(2))
          B.release(makeSyncVar(SyncObjectKind::Event, 0xb000));
        else
          B.acquire(makeSyncVar(SyncObjectKind::Event, 0xb000));
        break;
      }
    }
    if (Held >= 0)
      B.unlock(makeSyncVar(SyncObjectKind::Mutex, 0x9000 + Held));
  }
  return B.build();
}

/// Checks every reported pair of \p Candidate against the oracle's
/// complete pair set.
void expectSound(const RaceReport &Candidate, const RaceReport &Oracle,
                 uint64_t Seed, const char *Name) {
  auto OracleKeys = Oracle.keys();
  for (const StaticRaceKey &Key : Candidate.keys())
    EXPECT_TRUE(OracleKeys.count(Key))
        << Name << " reported a pair the oracle rejects (seed " << Seed
        << "): " << Key.first << "," << Key.second;
}

class ModelCheckTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelCheckTest, ProductionDetectorsMatchTheOracle) {
  const uint64_t Seed = GetParam();
  Trace T = randomTrace(Seed);

  RaceReport Oracle, HB, FT;
  ASSERT_TRUE(detectRacesReference(T, Oracle));
  ASSERT_TRUE(detectRaces(T, HB));
  ASSERT_TRUE(detectRacesFastTrack(T, FT));

  // Soundness: no production detector invents a pair.
  expectSound(HB, Oracle, Seed, "HBDetector");
  expectSound(FT, Oracle, Seed, "FastTrackDetector");

  // Address-completeness: racy addresses agree exactly.
  RaceReport OracleAddrs;
  ReferenceDetector Ref;
  ASSERT_TRUE(replayTrace(T, Ref));
  EXPECT_EQ(HB.racyAddresses(), Ref.racyAddresses()) << "seed " << Seed;
  EXPECT_EQ(FT.racyAddresses(), Ref.racyAddresses()) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCheckTest,
                         ::testing::Range<uint64_t>(1, 61));

TEST(ModelCheckOracleTest, OracleFindsAllPairsNotJustWitnesses) {
  // Three unordered writers: the oracle reports all three pairs; the
  // production detector is allowed to as well (it does here), but the
  // oracle's completeness is what downstream assertions rely on.
  LogBuilder B(16);
  B.onThread(0).write(0x10, makePc(1, 1));
  B.onThread(1).write(0x10, makePc(2, 2));
  B.onThread(2).write(0x10, makePc(3, 3));
  RaceReport Oracle;
  ASSERT_TRUE(detectRacesReference(B.build(), Oracle));
  EXPECT_EQ(Oracle.numStaticRaces(), 3u);
  EXPECT_EQ(Oracle.numDynamicSightings(), 3u);
}

TEST(ModelCheckOracleTest, OracleRespectsAllSyncKinds) {
  LogBuilder B(16);
  SyncVar E = makeSyncVar(SyncObjectKind::Event, 0x1);
  SyncVar A = makeSyncVar(SyncObjectKind::Atomic, 0x2);
  B.onThread(0).write(0x10, makePc(1, 1)).release(E);
  B.onThread(1).acquire(E).write(0x10, makePc(2, 2)).acqRel(A);
  B.onThread(2).acqRel(A).write(0x10, makePc(3, 3));
  RaceReport Oracle;
  ASSERT_TRUE(detectRacesReference(B.build(), Oracle));
  EXPECT_EQ(Oracle.numStaticRaces(), 0u);
}

TEST(ModelCheckOracleTest, AccessCountsAreComplete) {
  LogBuilder B(16);
  B.onThread(0).write(0x10, 1).read(0x20, 2).read(0x10, 3);
  ReferenceDetector Ref;
  ASSERT_TRUE(replayTrace(B.build(), Ref));
  EXPECT_EQ(Ref.accessesRecorded(), 3u);
}

// --- Workload traces (real races; not sanitizer-safe) ---------------------

class ModelCheckWorkloadTest : public ::testing::TestWithParam<WorkloadKind> {
};

TEST_P(ModelCheckWorkloadTest, HBDetectorMatchesTheOracle) {
  // End-to-end on a real (small) run of every benchmark workload: every
  // pair the production detector reports must be oracle-confirmed, and
  // it must flag exactly the addresses the oracle finds racy.
  auto W = makeWorkload(GetParam());
  WorkloadParams Params;
  Params.Scale = 0.02;
  ExperimentRun Run = executeExperiment(*W, Params);

  RaceReport Oracle, HB;
  ASSERT_TRUE(detectRacesReference(Run.TraceData, Oracle)) << W->name();
  ASSERT_TRUE(detectRaces(Run.TraceData, HB)) << W->name();
  const std::string Label = "HBDetector(" + W->name() + ")";
  expectSound(HB, Oracle, 0, Label.c_str());
  EXPECT_EQ(HB.racyAddresses(), Oracle.racyAddresses()) << W->name();
}

// No instantiation prefix, so the cases are named
// ModelCheckWorkloadTest.*/<index> and the sanitizer filter in
// tests/CMakeLists.txt matches them.
INSTANTIATE_TEST_SUITE_P(
    , ModelCheckWorkloadTest,
    ::testing::Values(WorkloadKind::ChannelWithStdLib, WorkloadKind::Channel,
                      WorkloadKind::ConcRTMessaging,
                      WorkloadKind::ConcRTScheduling, WorkloadKind::Httpd1,
                      WorkloadKind::Httpd2, WorkloadKind::BrowserStart,
                      WorkloadKind::BrowserRender, WorkloadKind::LKRHash,
                      WorkloadKind::LFList, WorkloadKind::SciComputeFn,
                      WorkloadKind::SciComputeLoop));

} // namespace
