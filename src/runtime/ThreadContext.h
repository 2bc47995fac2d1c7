//===-- runtime/ThreadContext.h - Per-thread runtime state -----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread instrumentation state and the function-entry dispatch check.
///
/// The paper's instrumentation (§3.3, Fig. 3) creates two copies of every
/// function: an instrumented copy that logs memory operations, and an
/// uninstrumented copy that logs only synchronization. A dispatch check at
/// function entry picks a copy based on per-thread sampling counters. Our
/// source-level equivalent is ThreadContext::run(): the function body is a
/// generic callable, and run() instantiates it once with a LoggingTracer
/// and once with a NullTracer — two compiled copies — choosing between them
/// with the same counter scheme (§4.1).
///
/// Crucially, synchronization is logged through ThreadContext directly (by
/// the primitives in src/sync), not through the tracer, so BOTH copies log
/// every sync operation. Missing one would fabricate races (§3.2, Fig. 2).
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_RUNTIME_THREADCONTEXT_H
#define LITERACE_RUNTIME_THREADCONTEXT_H

#include "runtime/Runtime.h"
#include "support/Compiler.h"
#include "support/SplitMix64.h"

#include <cassert>
#include <memory>
#include <vector>

namespace literace {

/// State of one application thread attached to a Runtime. Construct at
/// thread start, destroy at thread end (flushes the log buffer and folds
/// statistics into the Runtime). Not thread-safe: use from its own thread.
class ThreadContext {
public:
  explicit ThreadContext(Runtime &RT);
  ~ThreadContext();

  ThreadContext(const ThreadContext &) = delete;
  ThreadContext &operator=(const ThreadContext &) = delete;

  ThreadId tid() const { return Tid; }
  Runtime &runtime() { return RT; }
  SplitMix64 &rng() { return Rng; }

  /// The runtime's schedule perturber, cached at attach (null when no fuzz
  /// engine is installed). The sync primitives branch on this to swap
  /// their blocking waits for cooperative try + yield loops.
  SchedulePerturber *perturber() const { return Perturber; }

  /// Runs \p Body as an instrumented code region. \p Body must be callable
  /// with either tracer type; memory accesses inside it go through the
  /// tracer it receives. This is the dispatch check of Fig. 3.
  template <typename BodyT> void run(FunctionId F, BodyT &&Body);

  /// \name Synchronization logging (always-on; called by src/sync).
  /// Each call atomically draws a logical timestamp for \p S and appends a
  /// sync record. No-ops unless the mode enables sync logging.
  /// @{
  void logAcquire(SyncVar S, Pc P = 0) { logSync(EventKind::Acquire, S, P); }
  void logRelease(SyncVar S, Pc P = 0) { logSync(EventKind::Release, S, P); }
  void logAcqRel(SyncVar S, Pc P = 0) { logSync(EventKind::AcqRel, S, P); }
  /// Allocation-as-synchronization (§4.3); \p IsAlloc selects Alloc/Free.
  void logAllocation(SyncVar PageVar, bool IsAlloc) {
    logSync(IsAlloc ? EventKind::Alloc : EventKind::Free, PageVar, 0);
  }
  /// @}

  /// Appends a memory-access record (called by LoggingTracer). Inline:
  /// the record is written at the buffer cursor with no call, and the
  /// runtime.memops_logged telemetry is folded per flush(), not per call.
  void logMemory(EventKind K, const void *Addr, Pc P, uint16_t Mask) {
    assert(isMemoryKind(K) && "logMemory expects Read or Write");
    // Memory-op granularity perturbation (never in logSync: the AtomicU64
    // primitive calls that while holding its spinlock).
    if (LR_UNLIKELY(Perturber != nullptr))
      perturbMemoryOp();
    // Counted before the append, so a flush the append triggers folds
    // this operation too.
    ++Stats.MemOpsLogged;
    uint16_t SlotBits = static_cast<uint16_t>(Mask & ~FullLogMaskBit);
    while (SlotBits) {
      ++Stats.MemOpsPerSlot[__builtin_ctz(SlotBits)];
      SlotBits &= static_cast<uint16_t>(SlotBits - 1);
    }
    EventRecord R;
    R.Addr = reinterpret_cast<uint64_t>(Addr);
    R.Pc = P;
    R.Tid = Tid;
    R.Kind = K;
    R.Mask = Mask;
    append(R);
  }

  /// Counts one memory operation elided by the static site policy
  /// (called by LoggingTracer instead of logMemory).
  void countElided() {
    ++Stats.MemOpsElided;
    if (TelSlab)
      TelSlab->add(RT.metricIds().MemOpsElided);
  }

  /// Flushes buffered records to the sink and folds the memory operations
  /// logged since the last flush into runtime.memops_logged.
  void flush();

  /// Per-(sampler slot, function) counters of this thread; grown on demand.
  SamplerFnState &localSamplerState(unsigned Slot, FunctionId F);

  /// This thread's statistics so far (folded into the Runtime at
  /// destruction; exposed for tests).
  const RuntimeStats &localStats() const { return Stats; }

private:
  /// Evaluates the dispatch check for one entry of \p F and returns the
  /// sampler mask. Zero means: run the uninstrumented copy. Telemetry is
  /// observed only on cold sampler transitions (burst boundaries), so the
  /// steady-state gap countdown executes identical code whether telemetry
  /// is on or off (docs/TELEMETRY.md cost contract).
  uint16_t computeSampleMask(FunctionId F);

  /// Steps the primary (LiteRace TL-Ad) sampler's thread-local state,
  /// firing telemetry hooks on its cold transitions.
  bool stepPrimary(FunctionId F);

  /// Cold path of the primary-sampler table lookup; out of line so the
  /// vector-growth code does not bloat the dispatch check.
  SamplerFnState &growPrimaryStates(FunctionId F);

  /// Out-of-line MemoryOp perturbation point, so fuzz support costs the
  /// inlined logMemory one predicted-untaken branch.
  void perturbMemoryOp();

  void logSync(EventKind K, SyncVar S, Pc P);

  /// Stores \p R at the cursor; flushes when the buffer fills.
  void append(const EventRecord &R) {
    *Cursor = R;
    if (LR_UNLIKELY(++Cursor == Limit))
      flush();
  }

  Runtime &RT;
  ThreadId Tid;
  SplitMix64 Rng;
  /// The log buffer: RuntimeConfig::ThreadBufferRecords records (at least
  /// one), filled from Buffer up to Cursor; Limit is one past its end.
  std::unique_ptr<EventRecord[]> Buffer;
  EventRecord *Cursor = nullptr;
  EventRecord *Limit = nullptr;
  /// Stats.MemOpsLogged as of the last flush(): the part already folded
  /// into runtime.memops_logged.
  uint64_t MemOpsFolded = 0;
  /// LocalStates[Slot][F]: per-sampler, per-function counters.
  std::vector<std::vector<SamplerFnState>> LocalStates;
  /// States of the primary sampler used by non-Experiment modes.
  std::vector<SamplerFnState> PrimaryStates;
  RuntimeStats Stats;
  /// This thread's telemetry slab (null when telemetry is off) and the
  /// direct dispatch-plane cell pointers hot paths bump through.
  telemetry::ThreadSlab *TelSlab = nullptr;
  std::atomic<uint64_t> *SampledCell = nullptr;
  std::atomic<uint64_t> *UnsampledCell = nullptr;
  /// Cached Runtime::perturber(); null outside fuzz runs.
  SchedulePerturber *Perturber = nullptr;
};

/// Tracer for the uninstrumented function copy: performs the accesses,
/// logs nothing, costs nothing.
class NullTracer {
public:
  static constexpr bool IsLogging = false;

  void read(const void *, uint32_t) {}
  void write(const void *, uint32_t) {}

  /// Reads *P (really) without logging.
  template <typename T> T load(const T *P, uint32_t) { return *P; }
  /// Writes *P (really) without logging.
  template <typename T, typename V> void store(T *P, V Val, uint32_t) {
    *P = static_cast<T>(Val);
  }

  /// Loop-granularity sampling hint (§7 extension); no-op here.
  void loopIteration() {}
};

/// Tracer for the instrumented function copy: logs every read and write
/// with this activation's sampler mask.
class LoggingTracer {
public:
  static constexpr bool IsLogging = true;

  /// \p Elide is the static analysis's elidable-site view for \p F
  /// (Runtime::elideView); the default view elides nothing.
  LoggingTracer(ThreadContext &TC, FunctionId F, uint16_t Mask,
                ElideView Elide = ElideView{})
      : TC(TC), PcFunction(F), Mask(Mask), Elide(Elide) {}

  void read(const void *Addr, uint32_t Site) {
    if (LR_UNLIKELY(Elide.test(Site))) {
      TC.countElided();
      return;
    }
    if (LR_LIKELY(Active))
      TC.logMemory(EventKind::Read, Addr, makePc(PcFunction, Site), Mask);
  }

  void write(const void *Addr, uint32_t Site) {
    if (LR_UNLIKELY(Elide.test(Site))) {
      TC.countElided();
      return;
    }
    if (LR_LIKELY(Active))
      TC.logMemory(EventKind::Write, Addr, makePc(PcFunction, Site), Mask);
  }

  /// Reads *P and logs the access.
  template <typename T> T load(const T *P, uint32_t Site) {
    read(P, Site);
    return *P;
  }

  /// Writes *P and logs the access.
  template <typename T, typename V> void store(T *P, V Val, uint32_t Site) {
    write(P, Site);
    *P = static_cast<T>(Val);
  }

  /// Loop-granularity sampling (§7 future-work extension): call once per
  /// iteration of a high-trip-count loop. After LoopFullIterations
  /// iterations of one activation, only every LoopDecayStride-th
  /// iteration's accesses are logged, bounding the cost of hot loops
  /// within a single sampled activation.
  void loopIteration() {
    ++LoopCount;
    if (LoopCount <= LoopFullIterations) {
      Active = true;
      return;
    }
    Active = (LoopCount % LoopDecayStride) == 0;
  }

  static constexpr uint32_t LoopFullIterations = 64;
  static constexpr uint32_t LoopDecayStride = 16;

private:
  ThreadContext &TC;
  FunctionId PcFunction;
  uint16_t Mask;
  ElideView Elide;
  bool Active = true;
  uint32_t LoopCount = 0;
};

template <typename BodyT>
void ThreadContext::run(FunctionId F, BodyT &&Body) {
  uint16_t Mask = computeSampleMask(F);
  if (Mask) {
    LoggingTracer T(*this, F, Mask, RT.elideView(F));
    Body(T);
  } else {
    NullTracer T;
    Body(T);
  }
}

} // namespace literace

#endif // LITERACE_RUNTIME_THREADCONTEXT_H
