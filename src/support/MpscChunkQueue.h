//===-- support/MpscChunkQueue.h - Bounded MPSC hand-off queue --*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded multi-producer/single-consumer queue used by the asynchronous
/// trace-flush pipeline (runtime/AsyncSink.h): application threads hand
/// full event chunks over, a dedicated flusher thread consumes them and
/// pays for compression, CRC framing, and write(2) off the hot path.
///
/// The slot protocol is the classic Vyukov bounded queue: every slot
/// carries a sequence number; a producer claims a slot by CASing the head
/// ticket, moves its value in, and publishes with a release store of the
/// sequence; the single consumer reads slots in ticket order, so its tail
/// is a plain counter (mirrored into an atomic only for observers). An
/// uncontended push costs one CAS plus one release store — no mutex on
/// the producer fast path, which is the point: the producers here are
/// application threads inside the §4.1 dispatch-and-log path.
///
/// A side that cannot make progress (queue full for a producer — the
/// backpressure bound — or empty for the consumer) spins briefly, then
/// parks on a condition variable with a short timeout; the peer nudges
/// parked waiters after completing an operation, and the timeout makes a
/// missed nudge cost bounded latency, not a hang. On a single-core host
/// the queue thus degrades to alternating timeslices instead of burning
/// the core in a spin loop. close() wakes everyone; push() fails after
/// close (the caller accounts the chunk as dropped) and pop() drains what
/// remains before reporting end-of-stream.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_SUPPORT_MPSCCHUNKQUEUE_H
#define LITERACE_SUPPORT_MPSCCHUNKQUEUE_H

#include "support/Compiler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace literace {

/// Occupancy/stall telemetry of one MpscChunkQueue (see stats()).
struct MpscQueueStats {
  /// Highest occupancy ever observed. A mark near capacity means the
  /// flusher is the bottleneck and producers feel backpressure.
  size_t DepthHighWater = 0;
  /// Times a producer exhausted its spin budget and parked (queue full).
  uint64_t ProducerParks = 0;
  /// Times the consumer exhausted its spin budget and parked (queue
  /// empty — it outpaces the producers).
  uint64_t ConsumerParks = 0;
};

/// Bounded MPSC FIFO. Any number of threads may push; exactly one thread
/// may pop. close() may be called from any thread; it is idempotent.
template <typename T> class MpscChunkQueue {
public:
  /// Capacity is rounded up to a power of two, minimum 16.
  explicit MpscChunkQueue(size_t CapacityHint) {
    size_t Capacity = 16;
    while (Capacity < CapacityHint)
      Capacity <<= 1;
    Slots = std::make_unique<Slot[]>(Capacity);
    for (size_t I = 0; I != Capacity; ++I)
      Slots[I].Seq.store(I, std::memory_order_relaxed);
    Mask = Capacity - 1;
  }

  MpscChunkQueue(const MpscChunkQueue &) = delete;
  MpscChunkQueue &operator=(const MpscChunkQueue &) = delete;

  /// Non-blocking push; false if the queue is full or closed. The value
  /// is moved from only on success.
  bool tryPush(T &Value) {
    if (LR_UNLIKELY(Closed.load(std::memory_order_acquire)))
      return false;
    size_t H = Head.load(std::memory_order_relaxed);
    for (;;) {
      Slot &S = Slots[H & Mask];
      const size_t Seq = S.Seq.load(std::memory_order_acquire);
      const intptr_t Diff =
          static_cast<intptr_t>(Seq) - static_cast<intptr_t>(H);
      if (Diff == 0) {
        if (Head.compare_exchange_weak(H, H + 1,
                                       std::memory_order_relaxed))
          break;
        // CAS failure reloaded H; retry with the fresh ticket.
      } else if (Diff < 0) {
        return false; // Full: the slot still holds an unconsumed value.
      } else {
        H = Head.load(std::memory_order_relaxed);
      }
    }
    Slot &S = Slots[H & Mask];
    S.Value = std::move(Value);
    S.Seq.store(H + 1, std::memory_order_release);
    noteDepth(H + 1);
    nudge();
    return true;
  }

  /// Blocking push: applies backpressure until the consumer frees a slot.
  /// Returns false (without consuming the value) only if the queue was
  /// closed while waiting.
  bool push(T &Value) {
    for (unsigned Attempt = 0; !tryPush(Value); ++Attempt) {
      if (Closed.load(std::memory_order_acquire))
        return false;
      if (Attempt < SpinLimit) {
        std::this_thread::yield();
        continue;
      }
      ProducerParks.fetch_add(1, std::memory_order_relaxed);
      parkUntil([&] {
        return Head.load(std::memory_order_relaxed) -
                       TailPub.load(std::memory_order_acquire) <=
                   Mask ||
               Closed.load(std::memory_order_acquire);
      });
    }
    return true;
  }

  /// Non-blocking pop (consumer only); false if the queue is empty.
  bool tryPop(T &Out) {
    Slot &S = Slots[Tail & Mask];
    const size_t Seq = S.Seq.load(std::memory_order_acquire);
    if (static_cast<intptr_t>(Seq) - static_cast<intptr_t>(Tail + 1) < 0)
      return false;
    Out = std::move(S.Value);
    // Recycle the slot for the producer one lap ahead.
    S.Seq.store(Tail + Mask + 1, std::memory_order_release);
    ++Tail;
    TailPub.store(Tail, std::memory_order_release);
    nudge();
    return true;
  }

  /// Blocking pop (consumer only). Returns false only at end-of-stream:
  /// the queue was closed and everything pushed was consumed.
  bool pop(T &Out) {
    for (unsigned Attempt = 0; !tryPop(Out); ++Attempt) {
      if (Closed.load(std::memory_order_acquire)) {
        // Re-check after observing the close so no trailing push is lost.
        if (tryPop(Out))
          return true;
        return false;
      }
      if (Attempt < SpinLimit) {
        std::this_thread::yield();
        continue;
      }
      ConsumerParks.fetch_add(1, std::memory_order_relaxed);
      parkUntil([&] {
        return Head.load(std::memory_order_acquire) !=
                   TailPub.load(std::memory_order_relaxed) ||
               Closed.load(std::memory_order_acquire);
      });
    }
    return true;
  }

  /// Rejects further pushes and wakes every waiter. Idempotent; callable
  /// from any thread. The consumer still drains queued values.
  void close() {
    Closed.store(true, std::memory_order_release);
    nudge();
  }

  bool closed() const { return Closed.load(std::memory_order_acquire); }

  /// Number of slots, after power-of-two rounding.
  size_t capacity() const { return Mask + 1; }

  /// Racy occupancy estimate; exact once producers have quiesced.
  size_t approxSize() const {
    const size_t H = Head.load(std::memory_order_acquire);
    const size_t Tl = TailPub.load(std::memory_order_acquire);
    return H >= Tl ? H - Tl : 0;
  }

  /// Occupancy/stall telemetry. Safe to read from any thread at any time.
  MpscQueueStats stats() const {
    MpscQueueStats S;
    S.DepthHighWater = HighWater.load(std::memory_order_relaxed);
    S.ProducerParks = ProducerParks.load(std::memory_order_relaxed);
    S.ConsumerParks = ConsumerParks.load(std::memory_order_relaxed);
    return S;
  }

private:
  static constexpr unsigned SpinLimit = 64;

  struct Slot {
    std::atomic<size_t> Seq{0};
    T Value{};
  };

  /// Raises the depth high-water mark. Depth against the producer's view
  /// of the published tail overestimates at worst by in-flight pops, which
  /// is the right bias for a backpressure warning light.
  void noteDepth(size_t HeadNow) {
    const size_t Depth = HeadNow - TailPub.load(std::memory_order_acquire);
    size_t Seen = HighWater.load(std::memory_order_relaxed);
    while (Depth > Seen &&
           !HighWater.compare_exchange_weak(Seen, Depth,
                                            std::memory_order_relaxed)) {
    }
  }

  /// Parks on the shared condition variable until \p ReadyFn holds or a
  /// short timeout elapses (whichever first); the caller re-polls either
  /// way, so a lost nudge is only latency.
  template <typename Fn> void parkUntil(Fn ReadyFn) {
    std::unique_lock<std::mutex> Guard(ParkLock);
    if (ReadyFn())
      return;
    Waiters.fetch_add(1, std::memory_order_seq_cst);
    ParkCv.wait_for(Guard, std::chrono::milliseconds(1));
    Waiters.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Wakes parked waiters, if any. Multiple producers can park at once,
  /// so a waiter count (not a single flag) gates the notify.
  void nudge() {
    if (Waiters.load(std::memory_order_seq_cst) == 0)
      return;
    std::lock_guard<std::mutex> Guard(ParkLock);
    ParkCv.notify_all();
  }

  std::unique_ptr<Slot[]> Slots;
  size_t Mask = 0;

  // Producer side: the CAS ticket shared by all producers.
  alignas(64) std::atomic<size_t> Head{0};
  std::atomic<size_t> HighWater{0};
  std::atomic<uint64_t> ProducerParks{0};

  // Consumer side: Tail is consumer-private; TailPub mirrors it for
  // producers (backpressure test) and observers (approxSize).
  alignas(64) size_t Tail = 0;
  std::atomic<size_t> TailPub{0};
  std::atomic<uint64_t> ConsumerParks{0};

  alignas(64) std::atomic<bool> Closed{false};
  std::atomic<unsigned> Waiters{0};
  std::mutex ParkLock;
  std::condition_variable ParkCv;
};

} // namespace literace

#endif // LITERACE_SUPPORT_MPSCCHUNKQUEUE_H
