//===-- pipebench/src/Probes.h - Benchmark-side spans ----------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracing for the traced runs. Spans are recorded from the benchmark's
/// own code around each call into a layer; the library itself is not
/// instrumented. Two forwarding decorators put spans on the calls the
/// library makes back into caller-supplied objects:
///
///   TimingSink    LogSink decorator around the v2 SegmentedFileSink —
///                 one span per writeChunk (on the application thread that
///                 flushed) and one for close();
///   TimingOutput  ByteOutput decorator passed as
///                 SegmentedFileSink::Options::Output — one span per
///                 write(2)-level call, nested under the sink span of the
///                 same thread.
///
/// Spans stay in memory and are written once, as Chrome trace JSON that
/// loads in Perfetto, when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_PROBES_H
#define PIPEBENCH_PROBES_H

#include "Arith.h"

#include "runtime/EventLog.h"
#include "support/ByteOutput.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

/// Thread-safe in-memory span store. Null recorder pointers everywhere
/// mean "untraced": ScopedSpan then does nothing.
class SpanRecorder {
public:
  SpanRecorder() : Epoch(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }
  uint64_t nextId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

  void commit(const Span &S) {
    std::lock_guard<std::mutex> Guard(Lock);
    Spans.push_back(S);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> Guard(Lock);
    return Spans;
  }

  /// Chrome trace-event JSON of every span (ts/dur in microseconds; exact
  /// nanosecond bounds and the span/parent/run ids ride in args).
  std::string toChromeJson() const;

private:
  std::chrono::steady_clock::time_point Epoch;
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Lock;
  std::vector<Span> Spans;
};

/// Dense index of the calling thread, assigned on first use.
uint32_t benchThreadIndex();

/// RAII span. With \p Parent 0 the span nests under the innermost open
/// span of the same thread (and inherits its run); a span whose parent is
/// on another thread names it explicitly.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *Rec, const char *Name, uint64_t Parent = 0,
             uint32_t Run = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return S.Id; }

private:
  SpanRecorder *Rec;
  Span S;
  uint64_t SavedId = 0;
  uint32_t SavedRun = 0;
};

/// Forwarding LogSink that puts a span on every writeChunk and on close.
/// Sink spans are parented to the recording span, which lives on the
/// main thread while chunks are flushed from the workload's threads.
class TimingSink final : public literace::LogSink {
public:
  TimingSink(literace::SegmentedFileSink &Inner, SpanRecorder &Rec,
             uint32_t Run)
      : Inner(Inner), Rec(Rec), Run(Run) {}

  /// Parents later sink spans to \p Span (the recording span, opened
  /// once the runtime is bound and no chunk has been flushed yet).
  void setParent(uint64_t Span) { RecordSpan = Span; }

  void writeChunk(literace::ThreadId Tid, const literace::EventRecord *Records,
                  size_t Count) override {
    ScopedSpan S(&Rec, "sink.writeChunk", RecordSpan, Run);
    Inner.writeChunk(Tid, Records, Count);
    addBytes(Count * sizeof(literace::EventRecord));
  }
  void flush() override { Inner.flush(); }
  void noteLostChunk(literace::ThreadId Tid, size_t Count) override {
    Inner.noteLostChunk(Tid, Count);
  }

  bool close() {
    ScopedSpan S(&Rec, "sink.close", RecordSpan, Run);
    return Inner.close();
  }

private:
  literace::SegmentedFileSink &Inner;
  SpanRecorder &Rec;
  uint64_t RecordSpan = 0;
  uint32_t Run;
};

/// Forwarding ByteOutput that puts a span on every write and counts the
/// bytes it accepted.
class TimingOutput final : public literace::ByteOutput {
public:
  TimingOutput(literace::ByteOutput &Inner, SpanRecorder &Rec)
      : Inner(Inner), Rec(Rec) {}

  literace::WriteResult write(const void *Data, size_t Size) override {
    ScopedSpan S(&Rec, "support.output.write");
    const literace::WriteResult R = Inner.write(Data, Size);
    Bytes.fetch_add(R.Written, std::memory_order_relaxed);
    return R;
  }
  bool flush() override { return Inner.flush(); }
  void close() override { Inner.close(); }
  bool ok() const override { return Inner.ok(); }

  uint64_t bytes() const { return Bytes.load(std::memory_order_relaxed); }

private:
  literace::ByteOutput &Inner;
  SpanRecorder &Rec;
  std::atomic<uint64_t> Bytes{0};
};

} // namespace pipebench

#endif // PIPEBENCH_PROBES_H
