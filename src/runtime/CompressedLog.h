//===-- runtime/CompressedLog.h - Delta/varint log encoding ----*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The delta/varint codec behind v2z segment payloads. The paper reports
/// log volume as a first-class cost (Table 5: up to 1.9 GB/s of raw
/// full-logging data on LKRHash); a raw v2 segment carries fixed 32-byte
/// records. Event streams are highly regular — addresses cluster, program
/// counters repeat, timestamps increase — so a simple per-thread model
/// compresses well:
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

/// Decodes a stream produced by compressEventStream, appending its records
/// to \p Out and stopping at the first malformed byte; \p Tid is stamped
/// into every record (it is not stored in the encoding). Returns the bytes
/// the decoded prefix consumed: \p Size exactly when the whole input
/// decoded cleanly. When \p Counts is set, the appended records' kinds are
/// added to it.
size_t decompressEventStreamInto(const uint8_t *Data, size_t Size,
                                 ThreadId Tid, std::vector<EventRecord> &Out,
                                 EventKindCounts *Counts = nullptr);

} // namespace literace

#endif // LITERACE_RUNTIME_COMPRESSEDLOG_H
