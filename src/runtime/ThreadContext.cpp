//===-- runtime/ThreadContext.cpp - Per-thread runtime state -------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadContext.h"

#include "fuzz/SchedulePerturber.h"
#include "support/Hashing.h"
#include "support/Timer.h"
#include "telemetry/Timeline.h"

#include <algorithm>

using namespace literace;

ThreadContext::ThreadContext(Runtime &RT)
    : RT(RT), Tid(RT.allocateThreadId()),
      Rng(mix64(RT.config().Seed ^ (static_cast<uint64_t>(Tid) << 32))) {
  const size_t Capacity = std::max<size_t>(RT.config().ThreadBufferRecords, 1);
  Buffer = std::make_unique_for_overwrite<EventRecord[]>(Capacity);
  Cursor = Buffer.get();
  Limit = Cursor + Capacity;
  if (telemetry::MetricsRegistry *M = RT.metrics()) {
    TelSlab = &M->threadSlab();
    const RuntimeMetricIds &Ids = RT.metricIds();
    SampledCell = TelSlab->cell(Ids.SampledActivations.Cell);
    UnsampledCell = TelSlab->cell(Ids.UnsampledActivations.Cell);
    TelSlab->gaugeMax(Ids.Threads, static_cast<uint64_t>(Tid) + 1);
  }
  if (RT.syncLoggingEnabled()) {
    EventRecord R;
    R.Kind = EventKind::ThreadStart;
    R.Tid = Tid;
    append(R);
  }
  // Attach to the fuzz engine last: attach() blocks until this thread is
  // granted the execution token, and everything above is thread-local.
  Perturber = RT.perturber();
  if (Perturber)
    Perturber->attach(*this);
}

ThreadContext::~ThreadContext() {
  // Leave the fuzz engine first so the token moves on; the remaining
  // teardown (buffer flush, stats fold) is mutex-protected and carries no
  // perturbation points, so it is safe to run off-token.
  if (Perturber)
    Perturber->detach(*this);
  if (RT.syncLoggingEnabled()) {
    EventRecord R;
    R.Kind = EventKind::ThreadEnd;
    R.Tid = Tid;
    append(R);
  }
  flush();
  if (TelSlab) {
    // Unsampled activations were credited a whole gap at a time when the
    // gap was scheduled (stepPrimary's hooks); give back the portions
    // of gaps this thread never consumed so the final counter is exact.
    uint64_t Unconsumed = 0;
    for (const SamplerFnState &S : PrimaryStates)
      Unconsumed += S.SkipRemaining;
    if (Unconsumed)
      UnsampledCell->store(
          UnsampledCell->load(std::memory_order_relaxed) - Unconsumed,
          std::memory_order_relaxed);
  }
  RT.accumulateStats(Stats);
}

void ThreadContext::flush() {
  const size_t Records = static_cast<size_t>(Cursor - Buffer.get());
  if (Records == 0)
    return;
  Cursor = Buffer.get();
  if (!TelSlab) {
    if (LogSink *Sink = RT.sink())
      Sink->writeChunk(Tid, Buffer.get(), Records);
    return;
  }
  telemetry::TraceRecorder &Rec = telemetry::TraceRecorder::global();
  const bool Record = Rec.enabled();
  const uint64_t StartUs = Record ? Rec.nowUs() : 0;
  WallTimer Timer;
  if (LogSink *Sink = RT.sink())
    Sink->writeChunk(Tid, Buffer.get(), Records);
  const uint64_t Ns = Timer.nanoseconds();
  const RuntimeMetricIds &Ids = RT.metricIds();
  TelSlab->record(Ids.LogFlushNs, Ns);
  TelSlab->add(Ids.LogFlushes);
  TelSlab->add(Ids.LogBytesWritten, Records * sizeof(EventRecord));
  // Every logged memory op put a record in the buffer, so the ones not
  // yet folded are all in this flush: the counter is exact at thread exit.
  TelSlab->add(Ids.MemOpsLogged, Stats.MemOpsLogged - MemOpsFolded);
  MemOpsFolded = Stats.MemOpsLogged;
  if (Record)
    Rec.addSpan("log flush", "runtime.log", telemetry::TimelinePidRuntime,
                Tid, StartUs, std::max<uint64_t>(Ns / 1000, 1),
                {{"records", Records}});
}

SamplerFnState &ThreadContext::localSamplerState(unsigned Slot,
                                                 FunctionId F) {
  assert(Slot < MaxSamplerSlots && "sampler slot out of range");
  if (Slot >= LocalStates.size())
    LocalStates.resize(Slot + 1);
  auto &Table = LocalStates[Slot];
  if (F >= Table.size())
    Table.resize(F + 1);
  return Table[F];
}

// Kept out of line so the vector-growth machinery does not get inlined
// into stepPrimary's hot path (which would force it to spill callee-saved
// registers on every call and lose the tail call into stepBurstySampler).
LR_NOINLINE SamplerFnState &ThreadContext::growPrimaryStates(FunctionId F) {
  PrimaryStates.resize(F + 1);
  return PrimaryStates[F];
}

// Force-inlined so the dispatch check is one call frame deep: entry,
// bounds check, inlined sampler step, return.
LR_ALWAYS_INLINE bool ThreadContext::stepPrimary(FunctionId F) {
  // Telemetry observer for the dispatch check. Every hook fires on a cold
  // sampler transition, never on the steady-state gap countdown: sampled
  // calls bump their counter directly (rare by construction — that is the
  // point of sampling), while unsampled calls are credited in bulk the
  // moment their gap is scheduled. The unsampled counter therefore leads
  // by up to one in-progress gap per (thread, function) state and is
  // exact at every burst boundary; ~ThreadContext subtracts the
  // unconsumed gap remainders so final totals are exact
  // (docs/TELEMETRY.md). Holding only `this` and testing TelSlab inside
  // each hook keeps the hot gap path free of telemetry instructions
  // entirely — telemetry on and off run the same code there, which is
  // what lets the microbench overhead guard hold a <5% budget.
  struct Hooks {
    ThreadContext &TC;

    void sampled() {
      if (TC.TelSlab)
        telemetry::bumpCell(*TC.SampledCell);
    }
    void gapScheduled(uint32_t Gap) {
      if (TC.TelSlab)
        telemetry::bumpCell(*TC.UnsampledCell, Gap);
    }
    void backedOff(uint8_t NewRateIndex) {
      // Rate-trajectory telemetry: each back-off records the new index so
      // the histogram captures the trajectory across all
      // (thread, function) state machines.
      if (!TC.TelSlab)
        return;
      const RuntimeMetricIds &Ids = TC.RT.metricIds();
      TC.TelSlab->add(Ids.SamplerBackoffs);
      TC.TelSlab->record(Ids.SamplerRateIndex, NewRateIndex);
    }
  };
  SamplerFnState &State = LR_UNLIKELY(F >= PrimaryStates.size())
                              ? growPrimaryStates(F)
                              : PrimaryStates[F];
  return stepBurstySamplerHooked(State, RT.config().PrimarySchedule,
                                 Hooks{*this});
}

LR_CACHE_ALIGNED_FN uint16_t ThreadContext::computeSampleMask(FunctionId F) {
  // Function entry is a perturbation point of the schedule fuzzer: the
  // dispatch check is exactly where the paper's instrumentation gains
  // control, so hooking here covers every workload with no changes.
  if (LR_UNLIKELY(Perturber != nullptr))
    Perturber->perturb(PerturbPoint::FunctionEntry, *this);
  switch (RT.mode()) {
  case RunMode::Baseline:
    return 0;
  case RunMode::DispatchOnly:
  case RunMode::SyncLogging:
    // The dispatch check runs (we are measuring its cost, §5.4 Fig. 6),
    // but memory logging stays off.
    (void)stepPrimary(F);
    return 0;
  case RunMode::LiteRace:
    return stepPrimary(F) ? uint16_t{1} : uint16_t{0};
  case RunMode::FullLogging:
    // No dispatch check exists in this mode; every activation runs the
    // instrumented copy — sampled by definition.
    if (TelSlab)
      telemetry::bumpCell(*SampledCell);
    return FullLogMaskBit;
  case RunMode::Experiment: {
    // §5.3 methodology: log everything, and additionally record each
    // attached sampler's dispatch decision for this activation.
    uint16_t Mask = FullLogMaskBit;
    const unsigned N = RT.numSamplers();
    for (unsigned Slot = 0; Slot != N; ++Slot)
      if (RT.sampler(Slot).shouldSample(*this, F))
        Mask |= static_cast<uint16_t>(1u << Slot);
    if (TelSlab)
      telemetry::bumpCell(*SampledCell);
    return Mask;
  }
  }
  literaceUnreachable("invalid RunMode");
}

LR_NOINLINE void ThreadContext::perturbMemoryOp() {
  Perturber->perturb(PerturbPoint::MemoryOp, *this);
}

void ThreadContext::logSync(EventKind K, SyncVar S, Pc P) {
  if (!RT.syncLoggingEnabled())
    return;
  EventRecord R;
  R.Addr = S;
  R.Pc = P;
  R.Ts = RT.timestamps().draw(S);
  R.Tid = Tid;
  R.Kind = K;
  append(R);
  ++Stats.SyncOps;
  if (TelSlab)
    TelSlab->add(RT.metricIds().SyncOpsLogged);
}
