//===-- detector/Replay.cpp - Log replay scheduling ----------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "detector/Replay.h"

#include <algorithm>

using namespace literace;

TraceConsumer::~TraceConsumer() = default;

void TraceConsumer::onCoverageGap() {}

ReplayScheduler::ReplayScheduler(unsigned NumTimestampCounters,
                                 ReplayOptions Options)
    : NumCounters(NumTimestampCounters), Options(Options),
      NextTs(NumTimestampCounters, 1) {}

ReplayScheduler::ReplayScheduler(const Trace &T, ReplayOptions Options)
    : ReplayScheduler(T.NumTimestampCounters, Options) {
  Chunks.reserve(T.PerThread.size());
  for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid) {
    const std::vector<EventRecord> &Stream = T.PerThread[Tid];
    push(Chunk(static_cast<ThreadId>(Tid), Stream.data(),
               Stream.data() + Stream.size()));
  }
}

void ReplayScheduler::addEvents(ThreadId Tid, const EventRecord *Records,
                                size_t Count) {
  addEvents(Tid, std::vector<EventRecord>(Records, Records + Count));
}

void ReplayScheduler::addEvents(ThreadId Tid,
                                std::vector<EventRecord> &&Records) {
  const EventRecord *Begin = Records.data();
  const EventRecord *End = Begin + Records.size();
  push(Chunk(Tid, Begin, End, std::move(Records)));
}

void ReplayScheduler::push(Chunk C) {
  const size_t Count = static_cast<size_t>(C.End - C.Next);
  if (Count == 0)
    return; // Every queued chunk has a front record.
  // Behind every queued chunk of the same thread, ahead of later threads.
  const auto At = std::upper_bound(
      Chunks.begin(), Chunks.end(), C.Tid,
      [](ThreadId Tid, const Chunk &Queued) { return Tid < Queued.Tid; });
  Chunks.insert(At, std::move(C));
  Pending += Count;
}
