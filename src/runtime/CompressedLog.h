//===-- runtime/CompressedLog.h - Delta/varint log encoding ----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compressed on-disk event format. The paper reports log volume as a
/// first-class cost (Table 5: up to 1.9 GB/s of raw full-logging data on
/// LKRHash); the raw FileSink writes fixed 32-byte records. Event streams
/// are highly regular — addresses cluster, program counters repeat,
/// timestamps increase — so a simple per-thread model compresses well:
///
///   - one byte of kind + flag bits per event,
///   - zig-zag varint DELTAS from the same thread's previous event for
///     address and pc,
///   - varint delta from the previous timestamp on the same stream,
///   - mask only when it differs from the previous one.
///
/// Typical traces shrink 3-6x (see bench/log_encoding). The encoder and
/// decoder are exact: decode(encode(T)) == T, enforced by the tests.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_RUNTIME_COMPRESSEDLOG_H
#define LITERACE_RUNTIME_COMPRESSEDLOG_H

#include "runtime/EventLog.h"

#include <optional>
#include <string>
#include <vector>

namespace literace {

/// The smallest encoded record: the header byte plus one-byte address and
/// pc varints. So N encoded bytes hold at most N / 3 records.
constexpr size_t MinEncodedRecordBytes = 3;

/// The largest encoded record: the header byte, ten-byte varints for the
/// zig-zagged address, pc and timestamp deltas (64 bits at 7 per byte),
/// and a three-byte varint for a 16-bit mask. So N records encode into at
/// most N * MaxEncodedRecordBytes bytes.
constexpr size_t MaxEncodedRecordBytes = 1 + 3 * 10 + 3;

/// Encodes \p Count records of one thread's event stream (program order)
/// into \p Out, appending. Returns the number of bytes appended.
size_t compressEventStream(const EventRecord *Records, size_t Count,
                           std::vector<uint8_t> &Out);

inline size_t compressEventStream(const std::vector<EventRecord> &Stream,
                                  std::vector<uint8_t> &Out) {
  return compressEventStream(Stream.data(), Stream.size(), Out);
}

/// Decodes a stream previously produced by compressEventStream. \p Tid
/// is stamped into every record (it is not stored in the encoding).
/// Returns std::nullopt on malformed input.
std::optional<std::vector<EventRecord>>
decompressEventStream(const uint8_t *Data, size_t Size, ThreadId Tid);

/// Result of a salvaging decode: the records decoded before the first
/// malformed byte (all of them when Complete).
struct PartialDecode {
  std::vector<EventRecord> Events;
  /// True when the whole input decoded cleanly.
  bool Complete = false;
  /// Bytes consumed by the decoded prefix.
  size_t BytesConsumed = 0;
};

/// Appends the records decoded from \p Data to \p Out, stopping at the
/// first malformed byte. Returns the bytes the decoded prefix consumed
/// (\p Size when the whole input decoded cleanly). When \p Counts is set,
/// the appended records' kinds are added to it.
size_t decompressEventStreamInto(const uint8_t *Data, size_t Size,
                                 ThreadId Tid, std::vector<EventRecord> &Out,
                                 EventKindCounts *Counts = nullptr);

/// Like decompressEventStream but keeps the longest cleanly decoded
/// prefix instead of rejecting the whole stream. Never fails: a garbage
/// input just yields an empty, incomplete decode.
PartialDecode decompressEventStreamPartial(const uint8_t *Data, size_t Size,
                                           ThreadId Tid);

/// A LogSink that buffers each thread's stream and writes one compressed
/// file on close(). Unlike FileSink this is not incremental — it is meant
/// for bounded captures where log size matters most.
class CompressedFileSink : public LogSink {
public:
  explicit CompressedFileSink(const std::string &Path,
                              unsigned NumTimestampCounters = 128);
  ~CompressedFileSink() override;

  void writeChunk(ThreadId Tid, const EventRecord *Records,
                  size_t Count) override;

  /// Encodes and writes the file. Returns false on I/O failure.
  bool close();

  /// Compressed bytes written by close() (0 before).
  uint64_t compressedBytes() const { return CompressedSize; }

private:
  std::string Path;
  unsigned NumTimestampCounters;
  std::mutex Lock;
  std::vector<std::vector<EventRecord>> PerThread;
  uint64_t CompressedSize = 0;
  bool Closed = false;
};

/// Reads a compressed log file back into a Trace. Returns std::nullopt
/// if the file is missing, not v1-compressed, or imperfect in any way:
/// readTrace() in strict mode (TraceReadOptions::Salvage off).
std::optional<Trace> readCompressedTraceFile(const std::string &Path);

} // namespace literace

#endif // LITERACE_RUNTIME_COMPRESSEDLOG_H
