//===-- detector/OnlineDetector.cpp - Concurrent detection ---------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/OnlineDetector.h"

#include "telemetry/Metrics.h"

#include <algorithm>

using namespace literace;

OnlineDetector::OnlineDetector(unsigned NumTimestampCounters,
                               RaceReport &Report, ReplayOptions Options)
    : Scheduler(NumTimestampCounters, Options), Options(Options),
      Detector(Report) {
  Worker = std::thread([this] { workerLoop(); });
}

OnlineDetector::~OnlineDetector() { finish(); }

void OnlineDetector::writeChunk(ThreadId Tid, const EventRecord *Records,
                                size_t Count) {
  addBytes(Count * sizeof(EventRecord));
  {
    std::lock_guard<std::mutex> Guard(Lock);
    Queue.emplace_back(Tid,
                       std::vector<EventRecord>(Records, Records + Count));
    ChunkQueueHw = std::max(ChunkQueueHw, Queue.size());
    ++Chunks;
  }
  Ready.notify_one();
}

size_t OnlineDetector::chunkQueueHighWater() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return ChunkQueueHw;
}

uint64_t OnlineDetector::chunksReceived() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Chunks;
}

uint64_t OnlineDetector::timestampGaps() const {
  return Scheduler.timestampGaps();
}

bool OnlineDetector::finish() {
  {
    std::lock_guard<std::mutex> Guard(Lock);
    if (Done && !Worker.joinable())
      return Consistent;
    Done = true;
  }
  Ready.notify_one();
  if (Worker.joinable())
    Worker.join();
  // With gap tolerance, events blocked on timestamps that never arrived
  // (the producer crashed, or segments were lost) are drained past
  // coverage gaps now that end-of-stream is certain. The worker is
  // joined, so the scheduler and detector are safe to touch here.
  if (Options.AllowTimestampGaps && !Scheduler.fullyDrained())
    Processed.fetch_add(Scheduler.drainAllowingGaps(Detector),
                        std::memory_order_relaxed);
  // Anything still pending means some timestamp never arrived: the stream
  // was inconsistent (or truncated).
  {
    std::lock_guard<std::mutex> Guard(Lock);
    Consistent = Scheduler.fullyDrained();
  }
  // Online-plane telemetry, folded once per detector (the first finish()
  // to get here joined the worker, so the counts are final).
  if (telemetry::MetricsRegistry *M = telemetry::resolveRegistry(nullptr)) {
    telemetry::ThreadSlab &Slab = M->threadSlab();
    Slab.add(M->counter("online.events"), eventsProcessed());
    Slab.add(M->counter("online.chunks"), chunksReceived());
    Slab.gaugeMax(M->gaugeMax("online.chunk_queue_highwater"),
                  chunkQueueHighWater());
  }
  return Consistent;
}

void OnlineDetector::workerLoop() {
  std::vector<std::pair<ThreadId, std::vector<EventRecord>>> Batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> Guard(Lock);
      Ready.wait(Guard, [&] { return !Queue.empty() || Done; });
      Batch.swap(Queue);
      if (Batch.empty() && Done)
        return;
    }
    for (auto &Chunk : Batch)
      Scheduler.addEvents(Chunk.first, std::move(Chunk.second));
    Batch.clear();
    Processed.fetch_add(Scheduler.drain(Detector),
                        std::memory_order_relaxed);
  }
}
