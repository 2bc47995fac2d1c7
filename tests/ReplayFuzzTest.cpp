//===-- tests/ReplayFuzzTest.cpp - Randomized end-to-end consistency -------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Property: every log the runtime produces — under any thread schedule,
// any mix of synchronization primitives, and any sampler decisions — can
// be replayed to completion (no missing/duplicated timestamps), its
// sampled views are subsets of the full view, and the online detector
// agrees with the offline one. Exercised with randomized multi-threaded
// programs.
//
//===----------------------------------------------------------------------===//

#include "detector/HBDetector.h"
#include "detector/OnlineDetector.h"
#include "support/SplitMix64.h"
#include "sync/MonitoredAllocator.h"
#include "sync/Primitives.h"

#include <gtest/gtest.h>

using namespace literace;

namespace {

/// Shared playground for the random programs. Only non-blocking
/// operations are used, so no random program can deadlock.
struct Playground {
  Mutex Locks[3];
  AtomicU64 Atomics[2];
  ManualResetEvent Flags[2];
  MonitoredAllocator Allocator;
  uint64_t Cells[16] = {};
};

/// One thread's random op sequence.
void randomThread(ThreadContext &TC, Playground &P, FunctionId F,
                  uint64_t Seed, unsigned Ops) {
  SplitMix64 Rng(Seed);
  int Held = -1;
  uint64_t Sink = 0;
  for (unsigned I = 0; I != Ops; ++I) {
    switch (Rng.nextBelow(8)) {
    case 0: // Memory write through the dispatch check.
    case 1:
      TC.run(F, [&](auto &T) {
        T.store(&P.Cells[Rng.nextBelow(16)], Rng.next(),
                static_cast<uint32_t>(I));
      });
      break;
    case 2: // Memory read.
      TC.run(F, [&](auto &T) {
        Sink ^= T.load(&P.Cells[Rng.nextBelow(16)],
                       static_cast<uint32_t>(I));
      });
      break;
    case 3: // Balanced lock/unlock.
      if (Held < 0) {
        Held = static_cast<int>(Rng.nextBelow(3));
        P.Locks[Held].lock(TC);
      } else {
        P.Locks[Held].unlock(TC);
        Held = -1;
      }
      break;
    case 4: // Atomics (the §4.2 critical-section path).
      Sink ^= P.Atomics[Rng.nextBelow(2)].fetchAdd(TC, 1);
      break;
    case 5: {
      uint64_t Expected = Sink & 3;
      P.Atomics[Rng.nextBelow(2)].compareExchange(TC, Expected, I);
      break;
    }
    case 6: // Event set (never wait: waits could deadlock).
      P.Flags[Rng.nextBelow(2)].set(TC);
      break;
    case 7: { // Allocation churn (§4.3 page events).
      size_t Bytes = 48 + Rng.nextBelow(100);
      void *Mem = P.Allocator.allocate(TC, Bytes);
      TC.run(F, [&](auto &T) {
        T.store(static_cast<uint8_t *>(Mem), uint8_t{1},
                static_cast<uint32_t>(I));
      });
      P.Allocator.deallocate(TC, Mem, Bytes);
      break;
    }
    }
  }
  if (Held >= 0)
    P.Locks[Held].unlock(TC);
  (void)Sink;
}

class ReplayFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayFuzzTest, RuntimeLogsAlwaysReplayConsistently) {
  SplitMix64 Rng(GetParam());
  MemorySink Sink(32);
  RuntimeConfig Config;
  Config.Mode = RunMode::Experiment;
  Config.TimestampCounters = 32;
  Config.Seed = GetParam();
  Config.ThreadBufferRecords = 64; // Many small chunks.
  Runtime RT(Config, &Sink);
  RT.addStandardSamplers();
  FunctionId F = RT.registry().registerFunction("fuzz.op");

  Playground P;
  {
    ThreadContext Main(RT);
    const unsigned NumThreads = 2 + Rng.nextBelow(3);
    const unsigned Ops = 200 + Rng.nextBelow(400);
    std::vector<std::unique_ptr<Thread>> Threads;
    for (unsigned I = 0; I != NumThreads; ++I)
      Threads.push_back(std::make_unique<Thread>(
          RT, Main, [&, I](ThreadContext &TC) {
            randomThread(TC, P, F, GetParam() * 131 + I, Ops);
          }));
    for (auto &Th : Threads)
      Th->join(Main);
  }

  Trace T = Sink.takeTrace();
  RaceReport Full;
  ASSERT_TRUE(detectRaces(T, Full)) << "inconsistent log, seed "
                                    << GetParam();

  // Sampled views replay consistently and never add racy ADDRESSES.
  // (Witness pc pairs can differ: an event missing from the sampled view
  // cannot evict shadow entries, so the race may be reported against an
  // older access of the same variable — still a true race.)
  for (int Slot = 0; Slot != 7; ++Slot) {
    RaceReport Sampled;
    ReplayOptions Options;
    Options.SamplerSlot = Slot;
    ASSERT_TRUE(detectRaces(T, Sampled, Options));
    for (uint64_t Addr : Sampled.racyAddresses())
      EXPECT_TRUE(Full.racyAddresses().count(Addr))
          << "slot " << Slot << " fabricated a racy address";
  }

  // The online detector, fed the same chunks in arbitrary thread order,
  // agrees with the offline result.
  RaceReport Online;
  OnlineDetector D(32, Online);
  for (ThreadId Tid = T.PerThread.size(); Tid-- > 0;)
    D.writeChunk(Tid, T.PerThread[Tid].data(), T.PerThread[Tid].size());
  ASSERT_TRUE(D.finish());
  EXPECT_EQ(Online.keys(), Full.keys());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

} // namespace
