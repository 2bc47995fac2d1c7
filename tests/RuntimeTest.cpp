//===-- tests/RuntimeTest.cpp - Runtime modes and dispatch -----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "fuzz/SchedulePerturber.h"
#include "runtime/ThreadContext.h"

#include <cstring>
#include <gtest/gtest.h>

using namespace literace;

namespace {

constexpr SyncVar L = makeSyncVar(SyncObjectKind::Mutex, 0x900);

/// Builds a runtime in \p Mode over \p Sink and runs \p Calls activations
/// of one function, each performing one write and one sync acquire.
Trace runScenario(RunMode Mode, unsigned Calls,
                  unsigned *NumFunctionsOut = nullptr) {
  MemorySink Sink(16);
  RuntimeConfig Config;
  Config.Mode = Mode;
  Config.TimestampCounters = 16;
  Runtime RT(Config, &Sink);
  if (Mode == RunMode::Experiment)
    RT.addStandardSamplers();
  FunctionId F = RT.registry().registerFunction("f");
  {
    ThreadContext TC(RT);
    uint64_t Cell = 0;
    for (unsigned I = 0; I != Calls; ++I) {
      TC.run(F, [&](auto &T) {
        T.store(&Cell, uint64_t{I}, 1);
        TC.logAcquire(L);
      });
    }
  }
  if (NumFunctionsOut)
    *NumFunctionsOut = static_cast<unsigned>(RT.registry().size());
  return Sink.takeTrace();
}

TEST(RunModeTest, Names) {
  EXPECT_STREQ(runModeName(RunMode::Baseline), "Baseline");
  EXPECT_STREQ(runModeName(RunMode::DispatchOnly), "DispatchOnly");
  EXPECT_STREQ(runModeName(RunMode::SyncLogging), "SyncLogging");
  EXPECT_STREQ(runModeName(RunMode::LiteRace), "LiteRace");
  EXPECT_STREQ(runModeName(RunMode::FullLogging), "FullLogging");
  EXPECT_STREQ(runModeName(RunMode::Experiment), "Experiment");
}

TEST(RuntimeModeTest, BaselineLogsNothing) {
  Trace T = runScenario(RunMode::Baseline, 100);
  EXPECT_EQ(T.totalEvents(), 0u);
}

TEST(RuntimeModeTest, DispatchOnlyLogsNothing) {
  Trace T = runScenario(RunMode::DispatchOnly, 100);
  EXPECT_EQ(T.totalEvents(), 0u);
}

TEST(RuntimeModeTest, SyncLoggingLogsSyncOnly) {
  Trace T = runScenario(RunMode::SyncLogging, 100);
  EXPECT_EQ(T.memoryOps(), 0u);
  EXPECT_EQ(T.syncOps(), 100u);
}

TEST(RuntimeModeTest, FullLoggingLogsEverything) {
  Trace T = runScenario(RunMode::FullLogging, 100);
  EXPECT_EQ(T.memoryOps(), 100u);
  EXPECT_EQ(T.syncOps(), 100u);
}

TEST(RuntimeModeTest, LiteRaceSamplesMemoryNeverSync) {
  // 100k calls of one hot function: TL-Ad converges to ~0.1%, but every
  // sync op is logged (§3.2).
  Trace T = runScenario(RunMode::LiteRace, 100000);
  EXPECT_EQ(T.syncOps(), 100000u);
  EXPECT_GT(T.memoryOps(), 30u);     // Initial bursts at least.
  EXPECT_LT(T.memoryOps(), 2000u);   // ~0.1-1%, not everything.
}

TEST(RuntimeModeTest, ExperimentLogsAllMemoryWithMasks) {
  Trace T = runScenario(RunMode::Experiment, 5000);
  EXPECT_EQ(T.memoryOps(), 5000u);
  // Every record carries the full-log bit.
  for (const auto &Stream : T.PerThread)
    for (const EventRecord &R : Stream)
      if (isMemoryKind(R.Kind)) {
        ASSERT_TRUE(R.Mask & FullLogMaskBit);
      }
  // TL-Ad (slot 0) sampled the first burst but far from everything.
  size_t Slot0 = T.memoryOpsForSlot(0);
  EXPECT_GE(Slot0, 10u);
  EXPECT_LT(Slot0, 2500u);
  // UCP (slot 6) sampled everything except the first 10 calls.
  EXPECT_EQ(T.memoryOpsForSlot(6), 4990u);
}

TEST(RuntimeStatsTest, CountsMatchTrace) {
  MemorySink Sink(16);
  RuntimeConfig Config;
  Config.Mode = RunMode::Experiment;
  Config.TimestampCounters = 16;
  Runtime RT(Config, &Sink);
  RT.addStandardSamplers();
  FunctionId F = RT.registry().registerFunction("f");
  {
    ThreadContext TC(RT);
    uint64_t Cell = 0;
    for (unsigned I = 0; I != 500; ++I)
      TC.run(F, [&](auto &T) { T.store(&Cell, uint64_t{I}, 1); });
  }
  RuntimeStats Stats = RT.stats();
  Trace T = Sink.takeTrace();
  EXPECT_EQ(Stats.MemOpsLogged, T.memoryOps());
  for (unsigned Slot = 0; Slot != RT.numSamplers(); ++Slot)
    EXPECT_EQ(Stats.MemOpsPerSlot[Slot], T.memoryOpsForSlot(Slot))
        << "slot " << Slot;
}

TEST(RuntimeStatsTest, EffectiveSamplingRate) {
  RuntimeStats Stats;
  Stats.MemOpsLogged = 1000;
  Stats.MemOpsPerSlot[2] = 18;
  EXPECT_DOUBLE_EQ(Stats.effectiveSamplingRate(2), 0.018);
  RuntimeStats Zero;
  EXPECT_DOUBLE_EQ(Zero.effectiveSamplingRate(0), 0.0);
}

TEST(RuntimeStatsTest, MergeAccumulates) {
  RuntimeStats A, B;
  A.MemOpsLogged = 10;
  A.SyncOps = 1;
  A.MemOpsPerSlot[0] = 5;
  B.MemOpsLogged = 20;
  B.SyncOps = 2;
  B.MemOpsPerSlot[0] = 7;
  A.mergeFrom(B);
  EXPECT_EQ(A.MemOpsLogged, 30u);
  EXPECT_EQ(A.SyncOps, 3u);
  EXPECT_EQ(A.MemOpsPerSlot[0], 12u);
}

TEST(ThreadContextTest, AllocatesDenseThreadIds) {
  RuntimeConfig Config;
  Config.Mode = RunMode::Baseline;
  Runtime RT(Config, nullptr);
  ThreadContext A(RT), B(RT), C(RT);
  EXPECT_EQ(A.tid(), 0u);
  EXPECT_EQ(B.tid(), 1u);
  EXPECT_EQ(C.tid(), 2u);
  EXPECT_EQ(RT.numThreads(), 3u);
}

TEST(ThreadContextTest, LogsThreadLifecycleMarkers) {
  MemorySink Sink(16);
  RuntimeConfig Config;
  Config.Mode = RunMode::SyncLogging;
  Config.TimestampCounters = 16;
  Runtime RT(Config, &Sink);
  { ThreadContext TC(RT); }
  Trace T = Sink.takeTrace();
  ASSERT_EQ(T.PerThread.size(), 1u);
  ASSERT_EQ(T.PerThread[0].size(), 2u);
  EXPECT_EQ(T.PerThread[0][0].Kind, EventKind::ThreadStart);
  EXPECT_EQ(T.PerThread[0][1].Kind, EventKind::ThreadEnd);
}

TEST(ThreadContextTest, BufferFlushesAtThreshold) {
  MemorySink Sink(16);
  RuntimeConfig Config;
  Config.Mode = RunMode::FullLogging;
  Config.TimestampCounters = 16;
  Config.ThreadBufferRecords = 8;
  Runtime RT(Config, &Sink);
  FunctionId F = RT.registry().registerFunction("f");
  ThreadContext TC(RT);
  uint64_t Cell = 0;
  for (unsigned I = 0; I != 20; ++I)
    TC.run(F, [&](auto &T) { T.store(&Cell, uint64_t{I}, 1); });
  // Without destroying the context, full chunks must already have been
  // flushed to the sink.
  EXPECT_GE(Sink.bytesWritten(), 16 * sizeof(EventRecord));
  TC.flush();
}

TEST(ThreadContextTest, NestedActivationsBothLog) {
  MemorySink Sink(16);
  RuntimeConfig Config;
  Config.Mode = RunMode::FullLogging;
  Config.TimestampCounters = 16;
  Runtime RT(Config, &Sink);
  FunctionId Outer = RT.registry().registerFunction("outer");
  FunctionId Inner = RT.registry().registerFunction("inner");
  {
    ThreadContext TC(RT);
    uint64_t Cell = 0;
    TC.run(Outer, [&](auto &T) {
      T.store(&Cell, uint64_t{1}, 1);
      TC.run(Inner, [&](auto &T2) { T2.store(&Cell, uint64_t{2}, 2); });
      T.store(&Cell, uint64_t{3}, 3);
    });
  }
  Trace T = Sink.takeTrace();
  ASSERT_EQ(T.memoryOps(), 3u);
  // Pc function ids reflect the activation that performed each access.
  std::vector<FunctionId> Fns;
  for (const EventRecord &R : T.PerThread[0])
    if (isMemoryKind(R.Kind))
      Fns.push_back(pcFunction(R.Pc));
  EXPECT_EQ(Fns, (std::vector<FunctionId>{Outer, Inner, Outer}));
}

/// Keeps every chunk a thread flushes: its size, and the records in
/// order. Single-threaded use only.
class ChunkSink : public LogSink {
public:
  void writeChunk(ThreadId, const EventRecord *Records,
                  size_t Count) override {
    Sizes.push_back(Count);
    All.insert(All.end(), Records, Records + Count);
  }

  std::vector<size_t> Sizes;
  std::vector<EventRecord> All;
};

/// A perturber that only counts its points; with one thread there is no
/// token to pass.
class CountingPerturber : public SchedulePerturber {
public:
  void attach(ThreadContext &) override {}
  void detach(ThreadContext &) override {}
  void perturb(PerturbPoint P, ThreadContext &) override {
    ++Points[static_cast<unsigned>(P)];
  }
  uint64_t prepareFork(ThreadContext &) override { return 0; }
  ThreadId awaitAttach(ThreadContext &, uint64_t) override { return 0; }
  void yieldUntilDetached(ThreadContext &, ThreadId) override {}
  void blockedYield(ThreadContext &) override {}

  uint64_t Points[3] = {};
};

constexpr unsigned FastPathCalls = 3000;

/// What one recording of the fast-path scenario produced.
struct FastPathRun {
  ChunkSink Sink;
  RuntimeStats Stats;
  uint64_t MemOpsCounter = 0; ///< runtime.memops_logged after thread exit
  uint64_t MemoryOpPoints = 0;
};

/// Records FastPathCalls activations alternating over two functions, each
/// reading Cells[(I+1)%4] (site 1), writing Cells[I%4] (site 2) and
/// reading Cells[3] (site 3); every fifth also acquires L with Pc I.
void recordFastPath(RunMode Mode, size_t BufferRecords, uint64_t *Cells,
                    FastPathRun &Run) {
  telemetry::MetricsRegistry Registry;
  CountingPerturber Perturber;
  RuntimeConfig Config;
  Config.Mode = Mode;
  Config.TimestampCounters = 16;
  Config.ThreadBufferRecords = BufferRecords;
  Config.Metrics = &Registry;
  Runtime RT(Config, &Run.Sink);
  if (Mode == RunMode::Experiment)
    RT.addStandardSamplers();
  RT.installPerturber(&Perturber);
  const FunctionId Fns[] = {RT.registry().registerFunction("f"),
                            RT.registry().registerFunction("g")};
  {
    ThreadContext TC(RT);
    for (unsigned I = 0; I != FastPathCalls; ++I)
      TC.run(Fns[I % 2], [&](auto &T) {
        T.store(&Cells[I % 4], T.load(&Cells[(I + 1) % 4], 1) + I, 2);
        T.read(&Cells[3], 3);
        if (I % 5 == 0)
          TC.logAcquire(L, I);
      });
  }
  Run.Stats = RT.stats();
  Run.MemOpsCounter = RT.metricsSnapshot().counter("runtime.memops_logged");
  Run.MemoryOpPoints =
      Perturber.Points[static_cast<unsigned>(PerturbPoint::MemoryOp)];
}

/// Checks \p Records against the scenario, event by event: ThreadStart,
/// then per activation its three accesses (all present unless \p Sampled
/// allows the activation to be unsampled) and its acquire, then ThreadEnd.
void expectScenarioRecords(const std::vector<EventRecord> &Records,
                           const uint64_t *Cells, bool Sampled,
                           const std::string &Where) {
  size_t At = 0;
  auto Next = [&]() -> const EventRecord * {
    return At < Records.size() ? &Records[At] : nullptr;
  };
  ASSERT_TRUE(Next() && Next()->Kind == EventKind::ThreadStart) << Where;
  ++At;
  const FunctionId Fns[] = {0, 1};
  for (unsigned I = 0; I != FastPathCalls; ++I) {
    const struct {
      EventKind Kind;
      const uint64_t *Addr;
      uint32_t Site;
    } Accesses[] = {{EventKind::Read, &Cells[(I + 1) % 4], 1},
                    {EventKind::Write, &Cells[I % 4], 2},
                    {EventKind::Read, &Cells[3], 3}};
    const EventRecord *R = Next();
    if (!Sampled || (R && isMemoryKind(R->Kind))) {
      for (const auto &A : Accesses) {
        R = Next();
        ASSERT_NE(R, nullptr) << Where << " call " << I;
        EXPECT_EQ(R->Kind, A.Kind) << Where << " call " << I;
        EXPECT_EQ(R->Addr, reinterpret_cast<uint64_t>(A.Addr))
            << Where << " call " << I;
        EXPECT_EQ(R->Pc, makePc(Fns[I % 2], A.Site)) << Where << " call " << I;
        EXPECT_EQ(R->Ts, 0u) << Where << " call " << I;
        EXPECT_EQ(R->Tid, 0u) << Where << " call " << I;
        EXPECT_EQ(R->Pad, 0u) << Where << " call " << I;
        EXPECT_NE(R->Mask, 0u) << Where << " call " << I;
        ++At;
      }
    }
    if (I % 5 == 0) {
      R = Next();
      ASSERT_NE(R, nullptr) << Where << " call " << I;
      EXPECT_EQ(R->Kind, EventKind::Acquire) << Where << " call " << I;
      EXPECT_EQ(R->Addr, L) << Where << " call " << I;
      EXPECT_EQ(R->Pc, I) << Where << " call " << I;
      ++At;
    }
  }
  ASSERT_TRUE(Next() && Next()->Kind == EventKind::ThreadEnd) << Where;
  EXPECT_EQ(At + 1, Records.size()) << Where;
}

// The inline append path writes through a cursor into a fixed buffer and
// flushes when it fills. At every buffer size, including the smallest
// (a flush per record), the records must equal the scenario event by
// event and the per-event (one-record buffer) recording byte for byte;
// every chunk but the last must be exactly one buffer; and the stats,
// runtime.memops_logged and the MemoryOp perturbation points must count
// every logged access exactly once.
TEST(ThreadContextTest, AppendFastPathMatchesThePerEventReference) {
  static uint64_t Cells[4];
  const size_t DefaultRecords = RuntimeConfig().ThreadBufferRecords;
  for (RunMode Mode :
       {RunMode::FullLogging, RunMode::LiteRace, RunMode::Experiment}) {
    FastPathRun Reference;
    recordFastPath(Mode, 1, Cells, Reference);
    const std::vector<EventRecord> &Ref = Reference.Sink.All;
    expectScenarioRecords(Ref, Cells, Mode == RunMode::LiteRace,
                          runModeName(Mode));
    for (size_t Records : {size_t{1}, size_t{2}, size_t{3}, DefaultRecords}) {
      const std::string Where =
          std::string(runModeName(Mode)) + " buffer " + std::to_string(Records);
      FastPathRun Run;
      recordFastPath(Mode, Records, Cells, Run);
      const std::vector<EventRecord> &Got = Run.Sink.All;
      ASSERT_EQ(Got.size(), Ref.size()) << Where;
      EXPECT_EQ(std::memcmp(Got.data(), Ref.data(),
                            Got.size() * sizeof(EventRecord)),
                0)
          << Where;

      const std::vector<size_t> &Sizes = Run.Sink.Sizes;
      ASSERT_FALSE(Sizes.empty()) << Where;
      for (size_t I = 0; I + 1 < Sizes.size(); ++I)
        ASSERT_EQ(Sizes[I], Records) << Where << " chunk " << I;
      EXPECT_GE(Sizes.back(), 1u) << Where;
      EXPECT_LE(Sizes.back(), Records) << Where;

      uint64_t Memory = 0, Sync = 0, PerSlot[MaxSamplerSlots] = {};
      for (const EventRecord &R : Got) {
        Sync += isSyncKind(R.Kind);
        if (!isMemoryKind(R.Kind))
          continue;
        ++Memory;
        for (unsigned Slot = 0; Slot != MaxSamplerSlots; ++Slot)
          PerSlot[Slot] += (R.Mask >> Slot) & 1;
      }
      EXPECT_GT(Memory, 0u) << Where;
      if (Mode != RunMode::LiteRace) {
        EXPECT_EQ(Memory, 3u * FastPathCalls) << Where;
      }
      EXPECT_EQ(Run.Stats.MemOpsLogged, Memory) << Where;
      EXPECT_EQ(Run.Stats.SyncOps, Sync) << Where;
      for (unsigned Slot = 0; Slot != MaxSamplerSlots; ++Slot)
        EXPECT_EQ(Run.Stats.MemOpsPerSlot[Slot], PerSlot[Slot])
            << Where << " slot " << Slot;
      EXPECT_EQ(Run.MemOpsCounter, Memory) << Where;
      EXPECT_EQ(Run.MemoryOpPoints, Memory) << Where;
    }
  }
}

TEST(RuntimeTest, SamplerSuiteSlotsAreStable) {
  MemorySink Sink(16);
  RuntimeConfig Config;
  Config.Mode = RunMode::Experiment;
  Config.TimestampCounters = 16;
  Runtime RT(Config, &Sink);
  RT.addStandardSamplers();
  ASSERT_EQ(RT.numSamplers(), 7u);
  for (unsigned Slot = 0; Slot != 7; ++Slot)
    EXPECT_EQ(RT.sampler(Slot).slot(), Slot);
}

} // namespace
