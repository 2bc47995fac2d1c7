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

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
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

namespace replay_detail {

/// Returns true if \p R should be handed to the consumer under \p Options.
inline bool passesFilter(const EventRecord &R, const ReplayOptions &Options) {
  if (!isMemoryKind(R.Kind) || Options.SamplerSlot < 0)
    return true;
  return (R.Mask & (1u << Options.SamplerSlot)) != 0;
}

/// The gap to skip when every stream is stalled: which counter to
/// advance, and to what timestamp.
struct GapSkip {
  unsigned Counter = 0;
  uint64_t Ts = 0;
};

/// Shared earliest-blocked-event scan used by both gap-tolerant replay
/// paths (batch replayTrace and incremental drainAllowingGaps), so their
/// skip decisions — and therefore the delivered event sequences — cannot
/// diverge. \p ForEachFront invokes its callback once per non-empty
/// stream with that stream's front record. A front only blocks replay if
/// it is a sync event with a real timestamp strictly ahead of its
/// counter; among those the smallest timestamp wins, which makes the
/// choice deterministic regardless of stream enumeration order (two
/// fronts with equal Ts on the same counter pick the same skip; equal Ts
/// on different counters cannot both be minimal more than once per
/// round, and the next round handles the other).
template <typename ForEachFrontFn>
std::optional<GapSkip>
findEarliestBlockedEvent(ForEachFrontFn &&ForEachFront,
                         const std::vector<uint64_t> &NextTs,
                         unsigned NumCounters) {
  GapSkip Best;
  Best.Ts = std::numeric_limits<uint64_t>::max();
  bool Found = false;
  ForEachFront([&](const EventRecord &R) {
    // Non-sync and timestamp-less fronts never block (gap-tolerant
    // drains deliver them unconditionally); a sync front at or behind
    // its counter is deliverable, not blocked.
    if (!isSyncKind(R.Kind) || R.Ts == 0)
      return;
    const unsigned Counter = counterForSyncVar(R.Addr, NumCounters);
    if (R.Ts > NextTs[Counter] && R.Ts < Best.Ts) {
      Best.Ts = R.Ts;
      Best.Counter = Counter;
      Found = true;
    }
  });
  if (!Found)
    return std::nullopt;
  return Best;
}

} // namespace replay_detail

/// Statically typed replay loop: identical delivery order and gap
/// semantics to replayTrace(), but templated on the concrete consumer so
/// that a `final` detector's onEvent()/onCoverageGap() devirtualize and
/// inline straight into the loop — the replay-dispatch overhead on the
/// serial detection hot path disappears. replayTrace() below is this
/// template instantiated at the TraceConsumer base (one virtual call per
/// event), kept for heterogeneous consumers.
template <typename ConsumerT>
bool replayTraceWith(const Trace &T, ConsumerT &Consumer,
                     const ReplayOptions &Options = ReplayOptions()) {
  const unsigned NumCounters = T.NumTimestampCounters;
  const size_t NumThreads = T.PerThread.size();
  std::vector<size_t> Cursor(NumThreads, 0);
  std::vector<uint64_t> NextTs(NumCounters, 1);

  // Detectors that expose onMemoryRun(records, max) take unfiltered
  // memory events a whole program-order run at a time (everything up to
  // the next sync event of the same thread), letting them hoist the
  // per-thread clock lookup and event dispatch out of their hot loop.
  // The consumer walks the slice itself and returns how many leading
  // memory events it consumed, so each record is touched exactly once.
  // The delivered event sequence is identical to per-event delivery: a
  // run is exactly the consecutive slice this loop would have handed to
  // onEvent one record at a time.
  constexpr bool HasRunSink =
      requires(ConsumerT &C, const EventRecord *P, size_t N) {
        { C.onMemoryRun(P, N) } -> std::convertible_to<size_t>;
      };

  size_t Remaining = T.totalEvents();
  while (Remaining > 0) {
    bool Progress = false;
    for (size_t Tid = 0; Tid != NumThreads; ++Tid) {
      const auto &Stream = T.PerThread[Tid];
      size_t &C = Cursor[Tid];
      while (C < Stream.size()) {
        const EventRecord &R = Stream[C];
        if constexpr (HasRunSink) {
          if (isMemoryKind(R.Kind) && Options.SamplerSlot < 0) {
            const size_t Consumed =
                Consumer.onMemoryRun(&Stream[C], Stream.size() - C);
            Remaining -= Consumed;
            C += Consumed;
            Progress = true;
            continue;
          }
        }
        if (isSyncKind(R.Kind)) {
          if (R.Ts == 0) {
            // Malformed: sync event without a timestamp. A salvaged trace
            // is delivered without an ordering constraint (the gap
            // machinery keeps detectors conservative); a trusted one is
            // rejected.
            if (!Options.AllowTimestampGaps)
              return false;
            Consumer.onEvent(R);
          } else {
            unsigned Counter = counterForSyncVar(R.Addr, NumCounters);
            if (R.Ts < NextTs[Counter]) {
              // Duplicate (strict: inconsistent log) or an event whose
              // counter was gap-advanced past it; cross-gap order for
              // this counter is already conservatively barriered, so
              // deliver without touching the counter.
              if (!Options.AllowTimestampGaps)
                return false;
              Consumer.onEvent(R);
            } else if (R.Ts == NextTs[Counter]) {
              ++NextTs[Counter];
              Consumer.onEvent(R);
            } else {
              break; // Not yet enabled; try another thread.
            }
          }
        } else if (replay_detail::passesFilter(R, Options)) {
          Consumer.onEvent(R);
        }
        ++C;
        --Remaining;
        Progress = true;
      }
    }
    if (Progress || Remaining == 0)
      continue;
    // Every unfinished thread is blocked on a timestamp that never
    // arrives: with a trusted log that means it is inconsistent; with a
    // salvaged one, the timestamps died with a dropped segment.
    if (!Options.AllowTimestampGaps)
      return false;
    // Skip the smallest missing range: advance the counter of the
    // earliest blocked event straight to that event's timestamp, using
    // the same helper as the incremental path so both deliver identical
    // sequences on the same gapped trace.
    auto Skip = replay_detail::findEarliestBlockedEvent(
        [&](auto &&Visit) {
          for (size_t Tid = 0; Tid != NumThreads; ++Tid) {
            const auto &Stream = T.PerThread[Tid];
            if (Cursor[Tid] < Stream.size())
              Visit(Stream[Cursor[Tid]]);
          }
        },
        NextTs, NumCounters);
    if (!Skip)
      return false; // Defensive; cannot happen while Remaining > 0.
    NextTs[Skip->Counter] = Skip->Ts;
    if (Options.OutTimestampGaps)
      ++*Options.OutTimestampGaps;
    Consumer.onCoverageGap();
  }
  return true;
}

/// Replays \p T into \p Consumer. Returns false if the log is inconsistent
/// (a timestamp is missing or duplicated, so no valid order exists); in
/// that case a prefix may already have been delivered.
bool replayTrace(const Trace &T, TraceConsumer &Consumer,
                 const ReplayOptions &Options = ReplayOptions());

/// Incremental version of replayTrace for online detection (§4.4): events
/// arrive chunk by chunk while the program runs, and drain() delivers
/// whatever has become processable. Not thread-safe; callers serialize.
class ReplayScheduler {
public:
  explicit ReplayScheduler(unsigned NumTimestampCounters,
                           ReplayOptions Options = ReplayOptions());

  /// Appends \p Count records of thread \p Tid's stream (program order).
  void addEvents(ThreadId Tid, const EventRecord *Records, size_t Count);

  /// Delivers every event that is currently processable. Returns the
  /// number delivered.
  size_t drain(TraceConsumer &Consumer);

  /// End-of-stream drain for salvaged traces: like drain(), but when no
  /// more input is coming, pending events blocked on timestamps that were
  /// lost with dropped segments are unblocked by skipping each gap
  /// (notifying \p Consumer via onCoverageGap()). Call only after the
  /// last addEvents(); afterwards fullyDrained() is true.
  size_t drainAllowingGaps(TraceConsumer &Consumer);

  /// True if every added event has been delivered.
  bool fullyDrained() const { return Pending == 0; }

  /// Number of added-but-undelivered events.
  size_t pendingEvents() const { return Pending; }

  /// Timestamp gaps skipped by drainAllowingGaps().
  uint64_t timestampGaps() const { return Gaps; }

private:
  size_t drainImpl(TraceConsumer &Consumer, bool AllowStale);

  unsigned NumCounters;
  ReplayOptions Options;
  std::vector<std::deque<EventRecord>> Streams;
  std::vector<uint64_t> NextTs;
  size_t Pending = 0;
  uint64_t Gaps = 0;
};

} // namespace literace

#endif // LITERACE_DETECTOR_REPLAY_H
