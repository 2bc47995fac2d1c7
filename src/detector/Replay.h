//===-- detector/Replay.h - Log replay scheduling ---------------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reconstructs a processing order for a logged execution.
///
/// The log contains one program-order stream per thread. Cross-thread
/// ordering is recoverable only through the logical timestamps drawn by
/// synchronization operations: all operations hashing to the same counter
/// drew strictly increasing timestamps in their real serialization order
/// (§4.2). The replay scheduler therefore interleaves the per-thread
/// streams subject to one constraint: a sync event with timestamp k on
/// counter c is processed only after every timestamp < k on counter c.
/// Memory events have no constraint beyond program order.
///
/// Replay optionally filters memory events by sampler slot, implementing
/// the §5.3 methodology of running detection over each sampler's view of
/// one and the same execution. Sync events are never filtered.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_REPLAY_H
#define LITERACE_DETECTOR_REPLAY_H

#include "runtime/EventLog.h"
#include "runtime/TimestampManager.h"

#include <cassert>
#include <concepts>
#include <cstdint>
#include <vector>

namespace literace {

/// Receiver of replayed events, in a happens-before-consistent order.
class TraceConsumer {
public:
  virtual ~TraceConsumer();

  /// Called once per delivered event.
  virtual void onEvent(const EventRecord &R) = 0;

  /// Called when the replay skips over a timestamp gap left by dropped
  /// log segments (salvaged traces, ReplayOptions::AllowTimestampGaps).
  /// Synchronization edges may be missing from that point on; detectors
  /// should degrade conservatively (e.g. install an ordering barrier so
  /// cross-gap pairs are never reported as races). Default: no-op.
  virtual void onCoverageGap();
};

/// Replay configuration.
struct ReplayOptions {
  /// If in [0, MaxSamplerSlots), deliver only memory events whose mask has
  /// that sampler's bit. Negative: deliver all memory events.
  int SamplerSlot = -1;
  /// Tolerate missing timestamps (dropped segments of a salvaged trace):
  /// instead of declaring the log inconsistent, the replay advances the
  /// stalled counter to the next surviving timestamp and notifies the
  /// consumer via onCoverageGap(). Replay then never deadlocks on a
  /// salvaged trace.
  bool AllowTimestampGaps = false;
  /// When non-null, incremented once per skipped timestamp gap.
  uint64_t *OutTimestampGaps = nullptr;
};

/// The one replay engine (§4.4): batch replayTrace(), OnlineDetector and
/// every literace-collectd session all schedule through it. Events arrive
/// per thread in program order, chunk by chunk; drain() delivers whatever
/// has become processable, and drainAllowingGaps() finishes a stream whose
/// missing timestamps will never arrive. Not thread-safe; callers
/// serialize.
///
/// Each thread's pending events are a FIFO of chunks. A chunk is a
/// [Next, End) span plus the vector that owns it; the vector is empty when
/// the span is borrowed (batch replay borrows Trace::PerThread, so the
/// trace is never copied). All pending chunks live in one vector ordered
/// by thread id, each thread's in arrival order: only threads with pending
/// events have any state, so a forged thread id costs one entry, not one
/// per smaller id, and batch replay allocates nothing per thread.
class ReplayScheduler {
public:
  explicit ReplayScheduler(unsigned NumTimestampCounters,
                           ReplayOptions Options = ReplayOptions());

  /// Borrows every stream of \p T, which must outlive the scheduler.
  ReplayScheduler(const Trace &T, ReplayOptions Options);
  ReplayScheduler(Trace &&, ReplayOptions) = delete;

  /// Appends a copy of \p Count records of thread \p Tid's stream
  /// (program order).
  void addEvents(ThreadId Tid, const EventRecord *Records, size_t Count);

  /// Appends \p Records to thread \p Tid's stream, taking ownership.
  void addEvents(ThreadId Tid, std::vector<EventRecord> &&Records);

  /// Delivers every event that is currently processable. Returns the
  /// number consumed (memory events filtered out by
  /// ReplayOptions::SamplerSlot count as consumed).
  template <typename ConsumerT> size_t drain(ConsumerT &Consumer) {
    return drainStreams(Consumer, /*AllowStale=*/false);
  }

  /// End-of-stream drain for salvaged traces: like drain(), but when no
  /// more input is coming, pending events blocked on timestamps that were
  /// lost with dropped segments are unblocked by skipping each gap
  /// (notifying \p Consumer via onCoverageGap()). Call only after the
  /// last addEvents(); afterwards fullyDrained() is true.
  template <typename ConsumerT> size_t drainAllowingGaps(ConsumerT &Consumer);

  /// True if every added event has been delivered.
  bool fullyDrained() const { return Pending == 0; }

  /// Number of added-but-undelivered events.
  size_t pendingEvents() const { return Pending; }

  /// Timestamp gaps skipped by drainAllowingGaps().
  uint64_t timestampGaps() const { return Gaps; }

private:
  struct Chunk {
    ThreadId Tid;
    const EventRecord *Next;
    const EventRecord *End;
    std::vector<EventRecord> Owner; // Empty when the span is borrowed.

    Chunk(ThreadId Tid, const EventRecord *Next, const EventRecord *End,
          std::vector<EventRecord> Owner = {})
        : Tid(Tid), Next(Next), End(End), Owner(std::move(Owner)) {}
    // A copy would keep pointing into the original's records.
    Chunk(const Chunk &) = delete;
    Chunk(Chunk &&) = default;
    Chunk &operator=(Chunk &&) = default;
  };

  void push(Chunk C);

  /// Decides whether sync event \p R may be delivered now, and if so
  /// advances its counter. A timestamp-less (malformed) event or one
  /// behind its counter (a duplicate, or a counter gap-advanced past it)
  /// is delivered only when \p AllowStale: in a salvaged trace the gap
  /// barrier already makes detectors conservative about its ordering;
  /// otherwise it stays queued and the stream never fully drains.
  bool admitSync(const EventRecord &R, bool AllowStale) {
    if (R.Ts == 0)
      return AllowStale;
    uint64_t &Next = NextTs[counterForSyncVar(R.Addr, NumCounters)];
    if (R.Ts == Next) {
      ++Next;
      return true;
    }
    return AllowStale && R.Ts < Next;
  }

  template <typename ConsumerT>
  size_t drainStreams(ConsumerT &Consumer, bool AllowStale);

  unsigned NumCounters;
  ReplayOptions Options;
  /// Pending chunks by ascending Tid (the visiting order of each drain
  /// pass), each thread's in program order. None is empty between drains.
  std::vector<Chunk> Chunks;
  std::vector<uint64_t> NextTs;
  size_t Pending = 0;
  uint64_t Gaps = 0;
};

template <typename ConsumerT>
size_t ReplayScheduler::drainStreams(ConsumerT &Consumer, bool AllowStale) {
  // Detectors that expose onMemoryRun(records, max) take unfiltered
  // memory events a whole program-order run at a time (everything up to
  // the next sync event of the same thread, or the chunk's end), letting
  // them hoist the per-thread clock lookup and event dispatch out of
  // their hot loop. The consumer walks the span itself and returns how
  // many leading memory events it consumed, so each record is touched
  // exactly once. The delivered sequence is identical to per-event
  // delivery: a run is exactly the slice this loop would have handed to
  // onEvent one record at a time.
  constexpr bool HasRunSink =
      requires(ConsumerT &C, const EventRecord *P, size_t N) {
        { C.onMemoryRun(P, N) } -> std::convertible_to<size_t>;
      };
  const bool Unfiltered = Options.SamplerSlot < 0;

  size_t Delivered = 0;
  for (bool Progress = true; Progress;) {
    Progress = false;
    bool Blocked = false;
    for (size_t I = 0; I != Chunks.size(); ++I) {
      Chunk &C = Chunks[I];
      if (I != 0 && C.Tid != Chunks[I - 1].Tid)
        Blocked = false; // The next thread's first chunk.
      if (Blocked)
        continue; // Waits behind the thread's blocked chunk.
      const EventRecord *P = C.Next;
      while (P != C.End) {
        const EventRecord &R = *P;
        if constexpr (HasRunSink) {
          if (Unfiltered && isMemoryKind(R.Kind)) {
            P += Consumer.onMemoryRun(P, static_cast<size_t>(C.End - P));
            continue;
          }
        }
        if (isSyncKind(R.Kind)) {
          if (!admitSync(R, AllowStale)) {
            Blocked = true; // Waits for a timestamp not yet delivered.
            break;
          }
          Consumer.onEvent(R);
        } else if (Unfiltered || !isMemoryKind(R.Kind) ||
                   (R.Mask & (1u << Options.SamplerSlot))) {
          Consumer.onEvent(R);
        }
        ++P;
      }
      if (P != C.Next) {
        Delivered += static_cast<size_t>(P - C.Next);
        Progress = true;
        C.Next = P;
      }
    }
  }
  std::erase_if(Chunks, [](const Chunk &C) { return C.Next == C.End; });
  Pending -= Delivered;
  return Delivered;
}

template <typename ConsumerT>
size_t ReplayScheduler::drainAllowingGaps(ConsumerT &Consumer) {
  size_t Delivered = drainStreams(Consumer, /*AllowStale=*/true);
  while (Pending > 0) {
    // No more input is coming, and every stream's front is a sync event
    // ahead of its counter: those timestamps died with a dropped segment.
    // Skip the smallest missing range by advancing the counter of the
    // earliest blocked event straight to its timestamp. Picking the
    // smallest timestamp (first in Tid order on ties) makes the choice
    // independent of how the events were split into chunks.
    const EventRecord *Earliest = nullptr;
    for (size_t I = 0; I != Chunks.size(); ++I) {
      if (I != 0 && Chunks[I].Tid == Chunks[I - 1].Tid)
        continue; // Not the thread's front chunk.
      const EventRecord &Front = *Chunks[I].Next;
      assert(isSyncKind(Front.Kind) && Front.Ts != 0);
      if (!Earliest || Front.Ts < Earliest->Ts)
        Earliest = &Front;
    }
    NextTs[counterForSyncVar(Earliest->Addr, NumCounters)] = Earliest->Ts;
    ++Gaps;
    if (Options.OutTimestampGaps)
      ++*Options.OutTimestampGaps;
    Consumer.onCoverageGap();
    Delivered += drainStreams(Consumer, /*AllowStale=*/true);
  }
  return Delivered;
}

/// Replays \p T into \p Consumer in a happens-before-consistent order.
/// Returns false if the log is inconsistent (a timestamp is missing or
/// duplicated, so no valid order exists); everything deliverable around
/// the inconsistency has then been delivered. Templated on the concrete
/// consumer so that a `final` detector's onEvent()/onMemoryRun() inline
/// into the drain loop; a TraceConsumer& pays one virtual call per event.
template <typename ConsumerT>
bool replayTrace(const Trace &T, ConsumerT &Consumer,
                 const ReplayOptions &Options = ReplayOptions()) {
  ReplayScheduler Scheduler(T, Options);
  if (Options.AllowTimestampGaps)
    Scheduler.drainAllowingGaps(Consumer);
  else
    Scheduler.drain(Consumer);
  return Scheduler.fullyDrained();
}

} // namespace literace

#endif // LITERACE_DETECTOR_REPLAY_H
