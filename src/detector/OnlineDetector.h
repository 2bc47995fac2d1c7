//===-- detector/OnlineDetector.h - Concurrent detection -------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Online race detection (§4.4 / §7): the paper logs to disk and analyzes
/// offline, but notes that the same stream could be consumed by a detector
/// running concurrently on a spare core. OnlineDetector implements that: it
/// is a LogSink, so a Runtime can write straight into it; a worker thread
/// moves arriving chunks into ReplayScheduler, the same replay engine as
/// batch replayTrace(), and drains them into an HBDetector while the
/// instrumented program keeps running.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_DETECTOR_ONLINEDETECTOR_H
#define LITERACE_DETECTOR_ONLINEDETECTOR_H

#include "detector/HBDetector.h"
#include "detector/Replay.h"
#include "runtime/EventLog.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace literace {

/// A LogSink that performs happens-before detection concurrently with the
/// instrumented execution.
class OnlineDetector : public LogSink {
public:
  /// \p NumTimestampCounters must match the producing Runtime's
  /// configuration. Races accumulate into \p Report; do not read it until
  /// finish() has returned.
  OnlineDetector(unsigned NumTimestampCounters, RaceReport &Report,
                 ReplayOptions Options = ReplayOptions());
  ~OnlineDetector() override;

  void writeChunk(ThreadId Tid, const EventRecord *Records,
                  size_t Count) override;

  /// Signals end-of-stream, waits for the worker to process everything,
  /// and returns true if the whole stream was consistent and fully
  /// processed. With ReplayOptions::AllowTimestampGaps, events blocked on
  /// timestamps that never arrived (a crashed producer) are drained past
  /// coverage gaps instead of failing, and finish() returns true as long
  /// as everything was delivered. Idempotent.
  bool finish();

  /// Timestamp gaps skipped during the final drain (0 unless
  /// AllowTimestampGaps was set and the stream had holes).
  uint64_t timestampGaps() const;

  /// Events processed so far (approximate while running).
  uint64_t eventsProcessed() const {
    return Processed.load(std::memory_order_relaxed);
  }

  /// Peak number of chunks waiting in the hand-off queue — how far the
  /// drain worker fell behind the instrumented producers.
  size_t chunkQueueHighWater() const;

  /// Chunks accepted from producers so far.
  uint64_t chunksReceived() const;

private:
  void workerLoop();

  ReplayScheduler Scheduler;
  ReplayOptions Options;
  HBDetector Detector;

  mutable std::mutex Lock;
  std::condition_variable Ready;
  std::vector<std::pair<ThreadId, std::vector<EventRecord>>> Queue;
  size_t ChunkQueueHw = 0; // guarded by Lock
  uint64_t Chunks = 0;     // guarded by Lock
  bool Done = false;
  bool Consistent = true;
  std::atomic<uint64_t> Processed{0};
  std::thread Worker;
};

} // namespace literace

#endif // LITERACE_DETECTOR_ONLINEDETECTOR_H
