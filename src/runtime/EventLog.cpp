//===-- runtime/EventLog.cpp - Event streams and log sinks ---------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/EventLog.h"

#include "runtime/CompressedLog.h"
#include "support/ByteOutput.h"
#include "support/Crc32.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <iterator>
#include <sys/mman.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace literace;

namespace {

constexpr uint64_t FileMagic = 0x4C695465526163ULL; // "LiteRac"
/// FileHeader, then checksummed segments (docs/LOG_FORMAT.md).
constexpr uint32_t SegmentedFileVersion = 2;
/// Headers of the retired v1 formats, which readTrace() refuses by name:
/// FileMagic with this version, or a file starting with the magic below.
constexpr uint32_t RetiredVersion1 = 1;
constexpr uint64_t RetiredCompressedMagic = 0x4C52436F6D7001ULL;

struct FileHeader {
  uint64_t Magic;
  uint32_t Version;
  uint32_t NumTimestampCounters;
};

/// v2 segment framing. Each frame is SegmentHeader + PayloadBytes of
/// payload. HeaderCrc covers the first 24 header bytes, so a reader can
/// trust the framing (and skip by PayloadBytes) before touching the
/// payload; PayloadCrc catches payload damage independently.
constexpr uint32_t SegmentMagic = 0x4753524Cu; // "LRSG" on disk
constexpr uint8_t SegEncodingRaw = 0;
constexpr uint8_t SegEncodingCompressed = 1;
constexpr uint8_t SegFlagFooter = 0x01;
/// Upper bound a reader believes for one payload; the writer stays far
/// below it (MaxRecordsPerSegment records).
constexpr uint32_t MaxSegmentPayload = 1u << 26;
/// Records per frame cap: bounds frame-buffer memory on both sides.
constexpr size_t MaxRecordsPerSegment = 1u << 16;
/// A CRC-valid header claiming a thread id above this is treated as
/// damage rather than trusted into a giant PerThread resize.
constexpr uint32_t MaxReasonableTid = 1u << 20;

struct SegmentHeader {
  uint32_t Magic;
  uint8_t Encoding;
  uint8_t Flags;
  uint16_t Reserved;
  uint32_t Tid;
  uint32_t EventCount;
  uint32_t PayloadBytes;
  uint32_t PayloadCrc;
  uint32_t HeaderCrc;
};
static_assert(sizeof(SegmentHeader) == 28,
              "segment header layout is part of the log file format");

constexpr size_t SegmentHeaderCrcBytes =
    sizeof(SegmentHeader) - sizeof(uint32_t);

/// Payload of the footer frame sealed by a clean close(). DroppedEvents
/// records writer-side loss (hard write failures, async Drop-policy
/// backpressure); a reader that sees it nonzero knows the file is an
/// accounted subset of the execution even though every byte present is
/// intact. Legacy footers are 16 bytes (no DroppedEvents field) and are
/// still accepted.
struct SegmentFooterPayload {
  uint64_t TotalEvents;
  uint64_t TotalSegments;
  uint64_t DroppedEvents;
};
static_assert(sizeof(SegmentFooterPayload) == 24,
              "footer payload layout is part of the log file format");
constexpr size_t LegacyFooterPayloadBytes = 16;

bool validKind(uint8_t K) {
  return K <= static_cast<uint8_t>(EventKind::PolicyMeta);
}

/// Reads up to \p Size bytes of \p Fd into \p Out, stopping short only
/// at end of input or on an error. Returns the bytes read.
size_t readUpTo(int Fd, uint8_t *Out, size_t Size) {
  size_t Got = 0;
  while (Got < Size) {
    const ssize_t N = ::read(Fd, Out + Got, Size - Got);
    if (N > 0)
      Got += static_cast<size_t>(N);
    else if (N == 0 || errno != EINTR)
      break; // EOF, or an error: keep what was read
  }
  return Got;
}

/// A whole file held in one allocation (left uninitialized: read(2)
/// fills the first Size bytes).
struct FileBytes {
  std::unique_ptr<uint8_t[]> Data;
  size_t Size = 0;
};

/// Reads \p Fd to its end into one buffer sized from fstat. The buffer
/// grows only if the file grows (or, for a pipe, has no size up front).
/// Deliberately not mmap: a file truncated under a mapping would SIGBUS
/// the reader instead of reading as a truncated tail.
FileBytes readToEnd(int Fd) {
  struct stat St;
  const size_t Known =
      ::fstat(Fd, &St) == 0 ? static_cast<size_t>(St.st_size) : 0;
  // The slack lets EOF show as a short read instead of a full buffer.
  size_t Cap = Known + (size_t{1} << 16);
  FileBytes F;
  F.Data = std::make_unique_for_overwrite<uint8_t[]>(Cap);
  for (;;) {
    if (F.Size == Cap) {
      auto Grown = std::make_unique_for_overwrite<uint8_t[]>(Cap * 2);
      std::memcpy(Grown.get(), F.Data.get(), F.Size);
      F.Data = std::move(Grown);
      Cap *= 2;
    }
    const size_t Want = Cap - F.Size;
    const size_t N = readUpTo(Fd, F.Data.get() + F.Size, Want);
    F.Size += N;
    if (N < Want)
      break;
  }
  return F;
}

/// Parses and validates a segment header at \p P (magic, header CRC, and
/// sanity bounds). Returns false on anything a salvager should resync
/// over.
bool parseSegmentHeader(const uint8_t *P, size_t Avail, SegmentHeader &H) {
  if (Avail < sizeof(SegmentHeader))
    return false;
  std::memcpy(&H, P, sizeof(H));
  if (H.Magic != SegmentMagic)
    return false;
  if (crc32c(P, SegmentHeaderCrcBytes) != H.HeaderCrc)
    return false;
  if (H.PayloadBytes > MaxSegmentPayload || H.Tid > MaxReasonableTid ||
      H.Encoding > SegEncodingCompressed)
    return false;
  return true;
}

/// Finds the next offset >= \p From holding a CRC-valid segment header,
/// or \p Size if there is none.
size_t findNextHeader(const uint8_t *Data, size_t Size, size_t From) {
  SegmentHeader H;
  for (size_t O = From; O + sizeof(SegmentHeader) <= Size; ++O) {
    uint32_t Magic;
    std::memcpy(&Magic, Data + O, sizeof(Magic));
    if (Magic == SegmentMagic && parseSegmentHeader(Data + O, Size - O, H))
      return O;
  }
  return Size;
}

/// Forward iterator over the records of a raw payload, loading each with
/// memcpy (the payload is only 4-byte aligned in the file). Appending
/// through vector::insert from it copies every record exactly once, where
/// resize() would first value-initialize them all.
class PayloadRecordIterator {
public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = EventRecord;
  using difference_type = std::ptrdiff_t;
  using pointer = const EventRecord *;
  using reference = EventRecord;

  explicit PayloadRecordIterator(const uint8_t *At) : At(At) {}

  EventRecord operator*() const {
    EventRecord R;
    std::memcpy(&R, At, sizeof(EventRecord));
    return R;
  }
  PayloadRecordIterator &operator++() {
    At += sizeof(EventRecord);
    return *this;
  }
  PayloadRecordIterator operator++(int) {
    PayloadRecordIterator Old = *this;
    ++*this;
    return Old;
  }
  bool operator==(const PayloadRecordIterator &) const = default;

private:
  const uint8_t *At;
};

/// Appends a raw frame's records to \p Records: they are copied in once,
/// then one pass folds each into the payload CRC32C (the copies are
/// byte-identical to the payload), kind-checks it and counts it into
/// \p Counts. The header must carry its count (payloadCarriesCount()).
/// On a CRC or kind failure the records are trimmed back off and false
/// returned; \p Counts then counts nothing kept.
bool appendRawPayload(const SegmentHeader &H, const uint8_t *Payload,
                      std::vector<EventRecord> &Records,
                      EventKindCounts &Counts) {
  const size_t Base = Records.size();
  Records.insert(Records.end(), PayloadRecordIterator(Payload),
                 PayloadRecordIterator(Payload + size_t{H.EventCount} *
                                                     sizeof(EventRecord)));
  const EventRecord *Out = Records.data() + Base;
  uint32_t Crc = crc32cInit();
  bool KindsOk = true;
  for (uint32_t I = 0; I != H.EventCount; ++I) {
    Crc = crc32cUpdate(Crc, &Out[I], sizeof(EventRecord));
    KindsOk &= validKind(static_cast<uint8_t>(Out[I].Kind));
    Counts.note(Out[I].Kind);
  }
  if (crc32cFinal(Crc) == H.PayloadCrc && KindsOk)
    return true;
  Records.resize(Base);
  return false;
}

/// Decodes a compressed frame's payload (CRC already checked) onto
/// \p Records, counting kinds into \p Counts. A payload that is malformed
/// or decodes to another count than its header's is trimmed back off and
/// false returned; \p Counts then counts nothing kept.
bool appendCompressedPayload(const SegmentHeader &H, const uint8_t *Payload,
                             std::vector<EventRecord> &Records,
                             EventKindCounts &Counts) {
  const size_t Base = Records.size();
  if (decompressEventStreamInto(Payload, H.PayloadBytes, H.Tid, Records,
                                &Counts) == H.PayloadBytes &&
      Records.size() - Base == H.EventCount)
    return true;
  Records.resize(Base);
  return false;
}

/// Frame-loop consumer of readTrace(): appends straight into
/// Trace::PerThread. Threads ends up one past the highest thread with a
/// recovered segment, the length PerThread is trimmed back to.
struct AppendToTrace {
  Trace &T;
  size_t Threads = 0;

  std::vector<EventRecord> &open(uint32_t Tid) {
    if (Tid >= T.PerThread.size())
      T.PerThread.resize(Tid + 1);
    return T.PerThread[Tid];
  }
  void close(uint32_t Tid, bool Ok) {
    if (Ok)
      Threads = std::max<size_t>(Threads, Tid + 1);
  }
};

/// True if a data frame's payload can carry the EventCount its header
/// claims: exactly, for raw records; at MinEncodedRecordBytes a record at
/// the least, for compressed ones.
bool payloadCarriesCount(const SegmentHeader &H) {
  if (H.Encoding == SegEncodingRaw)
    return H.PayloadBytes ==
           static_cast<uint64_t>(H.EventCount) * sizeof(EventRecord);
  return H.EventCount <= H.PayloadBytes / MinEncodedRecordBytes;
}

/// Asks for transparent huge pages under each stream of \p T: the 2 MiB
/// aligned interior of its reserved capacity, so streams smaller than a
/// huge page are left alone. Must run before appends first touch the
/// pages. Advice only; failure (THP set to never) changes nothing.
void adviseHugePages(Trace &T) {
  constexpr uintptr_t HugePage = uintptr_t{2} << 20;
  for (std::vector<EventRecord> &Stream : T.PerThread) {
    const auto Begin = reinterpret_cast<uintptr_t>(Stream.data());
    const uintptr_t End = Begin + Stream.capacity() * sizeof(EventRecord);
    const uintptr_t First = (Begin + HugePage - 1) & ~(HugePage - 1);
    const uintptr_t Last = End & ~(HugePage - 1);
    if (First < Last)
      ::madvise(reinterpret_cast<void *>(First), Last - First, MADV_HUGEPAGE);
  }
}

/// Reserves Trace::PerThread from frame headers alone, so decoding
/// appends without regrowing, then advises huge pages under it. Walks the
/// headers of \p Fd from offset \p O with pread (28 bytes each), stopping
/// at the first damaged header or incomplete frame, and sums the
/// EventCount of every data frame whose payload can carry it
/// (payloadCarriesCount()). So the total reserved is at most
/// fileSize / MinEncodedRecordBytes records whatever the headers claim.
/// An input that cannot be seeked (a FIFO) is not reserved.
void reservePerThread(int Fd, uint64_t O, Trace &T) {
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode))
    return;
  const uint64_t Size = static_cast<uint64_t>(St.st_size);
  std::vector<size_t> Counts;
  uint8_t Bytes[sizeof(SegmentHeader)];
  SegmentHeader H;
  while (Size - std::min(O, Size) >= sizeof(SegmentHeader) &&
         ::pread(Fd, Bytes, sizeof(Bytes), static_cast<off_t>(O)) ==
             static_cast<ssize_t>(sizeof(Bytes)) &&
         parseSegmentHeader(Bytes, sizeof(Bytes), H) &&
         Size - O - sizeof(SegmentHeader) >= H.PayloadBytes) {
    if (!(H.Flags & SegFlagFooter) && payloadCarriesCount(H)) {
      if (H.Tid >= Counts.size())
        Counts.resize(H.Tid + 1);
      Counts[H.Tid] += H.EventCount;
    }
    O += sizeof(SegmentHeader) + H.PayloadBytes;
  }
  if (Counts.size() > T.PerThread.size())
    T.PerThread.resize(Counts.size());
  for (size_t Tid = 0; Tid != Counts.size(); ++Tid)
    T.PerThread[Tid].reserve(Counts[Tid]);
  adviseHugePages(T);
}

} // namespace

size_t Trace::totalEvents() const {
  size_t N = 0;
  for (const auto &Stream : PerThread)
    N += Stream.size();
  return N;
}

size_t Trace::memoryOps() const {
  size_t N = 0;
  for (const auto &Stream : PerThread)
    for (const EventRecord &R : Stream)
      if (isMemoryKind(R.Kind))
        ++N;
  return N;
}

size_t Trace::syncOps() const {
  size_t N = 0;
  for (const auto &Stream : PerThread)
    for (const EventRecord &R : Stream)
      if (isSyncKind(R.Kind))
        ++N;
  return N;
}

size_t Trace::memoryOpsForSlot(unsigned Slot) const {
  assert(Slot < MaxSamplerSlots && "slot out of range");
  const uint16_t Bit = static_cast<uint16_t>(1u << Slot);
  size_t N = 0;
  for (const auto &Stream : PerThread)
    for (const EventRecord &R : Stream)
      if (isMemoryKind(R.Kind) && (R.Mask & Bit))
        ++N;
  return N;
}

namespace {
/// Set by AsyncLogSink around its consumer loop; read by sinks to
/// classify writes (see isTraceFlusherThread() in EventLog.h).
thread_local bool TraceFlusherThread = false;
} // namespace

bool literace::isTraceFlusherThread() { return TraceFlusherThread; }

void literace::setTraceFlusherThread(bool Value) {
  TraceFlusherThread = Value;
}

LogSink::~LogSink() = default;

void LogSink::flush() {}

void LogSink::noteLostChunk(ThreadId, size_t) {}

MemorySink::MemorySink(unsigned NumTimestampCounters)
    : NumTimestampCounters(NumTimestampCounters) {}

void MemorySink::writeChunk(ThreadId Tid, const EventRecord *Records,
                            size_t Count) {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Tid >= PerThread.size())
    PerThread.resize(Tid + 1);
  PerThread[Tid].insert(PerThread[Tid].end(), Records, Records + Count);
  addBytes(Count * sizeof(EventRecord));
}

Trace MemorySink::takeTrace() {
  std::lock_guard<std::mutex> Guard(Lock);
  Trace T;
  T.NumTimestampCounters = NumTimestampCounters;
  T.PerThread = std::move(PerThread);
  PerThread.clear();
  return T;
}

void NullSink::writeChunk(ThreadId, const EventRecord *, size_t Count) {
  addBytes(Count * sizeof(EventRecord));
}

SegmentedFileSink::SegmentedFileSink(const std::string &Path,
                                     unsigned NumTimestampCounters,
                                     const Options &Opts)
    : Compress(Opts.Compress), MaxRetries(Opts.MaxRetries),
      Metrics(Opts.Metrics) {
  if (Opts.Output) {
    Out = Opts.Output;
  } else {
    Owned = std::make_unique<FileByteOutput>(Path);
    Out = Owned.get();
  }
  if (!Out->ok())
    return;
  FileHeader Header{FileMagic, SegmentedFileVersion, NumTimestampCounters};
  HeaderOk = writeAll(&Header, sizeof(Header));
  if (!HeaderOk)
    Failed = true;
}

SegmentedFileSink::SegmentedFileSink(const std::string &Path,
                                     unsigned NumTimestampCounters)
    : SegmentedFileSink(Path, NumTimestampCounters, Options()) {}

SegmentedFileSink::~SegmentedFileSink() { close(); }

bool SegmentedFileSink::ok() const { return HeaderOk && !Failed; }

bool SegmentedFileSink::writeAll(const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  size_t Remaining = Size;
  unsigned Attempts = 0;
  while (Remaining) {
    WriteResult R = Out->write(P, Remaining);
    P += R.Written;
    Remaining -= R.Written;
    if (!Remaining)
      break;
    if (R.Written == 0) {
      if (!R.Transient || Attempts >= MaxRetries)
        return false;
      ++Attempts;
      ++Retries;
      // Escalating backoff; EINTR-class failures usually clear at once.
      std::this_thread::sleep_for(
          std::chrono::microseconds(1ull << std::min(Attempts, 10u)));
    } else {
      if (!R.Transient)
        return false;
      // Short write with progress: keep going without burning the
      // retry budget, which is for attempts that accept nothing.
      ++Retries;
      Attempts = 0;
    }
  }
  return true;
}

bool SegmentedFileSink::writeFrame(ThreadId Tid, const EventRecord *Records,
                                   size_t Count) {
  Frame.clear();
  Frame.resize(sizeof(SegmentHeader));
  if (Compress) {
    compressEventStream(Records, Count, Frame);
  } else {
    const uint8_t *Bytes = reinterpret_cast<const uint8_t *>(Records);
    Frame.insert(Frame.end(), Bytes, Bytes + Count * sizeof(EventRecord));
  }
  size_t PayloadSize = Frame.size() - sizeof(SegmentHeader);
  SegmentHeader H{};
  H.Magic = SegmentMagic;
  H.Encoding = Compress ? SegEncodingCompressed : SegEncodingRaw;
  H.Tid = Tid;
  H.EventCount = static_cast<uint32_t>(Count);
  H.PayloadBytes = static_cast<uint32_t>(PayloadSize);
  H.PayloadCrc = crc32c(Frame.data() + sizeof(SegmentHeader), PayloadSize);
  H.HeaderCrc = crc32c(&H, SegmentHeaderCrcBytes);
  std::memcpy(Frame.data(), &H, sizeof(H));
  if (!writeAll(Frame.data(), Frame.size()))
    return false;
  ++Segments;
  Events += Count;
  addBytes(Count * sizeof(EventRecord));
  return true;
}

void SegmentedFileSink::noteLostChunk(ThreadId, size_t Count) {
  std::lock_guard<std::mutex> Guard(Lock);
  Dropped += Count;
}

void SegmentedFileSink::writeChunk(ThreadId Tid, const EventRecord *Records,
                                   size_t Count) {
  std::lock_guard<std::mutex> Guard(Lock);
  if (isTraceFlusherThread())
    ++FlusherWrites;
  else
    ++AppWrites;
  if (Failed || Closed || !HeaderOk) {
    Dropped += Count;
    return;
  }
  size_t Off = 0;
  while (Off < Count) {
    size_t N = std::min(Count - Off, MaxRecordsPerSegment);
    if (!writeFrame(Tid, Records + Off, N)) {
      Failed = true;
      Dropped += Count - Off;
      return;
    }
    Off += N;
  }
}

void SegmentedFileSink::flush() {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Out && !Closed)
    Out->flush();
}

bool SegmentedFileSink::close() {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Closed)
    return HeaderOk && !Failed && Dropped == 0;
  Closed = true;
  bool Sealed = false;
  if (HeaderOk && !Failed) {
    SegmentFooterPayload Totals{Events, Segments, Dropped};
    Frame.clear();
    Frame.resize(sizeof(SegmentHeader) + sizeof(Totals));
    std::memcpy(Frame.data() + sizeof(SegmentHeader), &Totals,
                sizeof(Totals));
    SegmentHeader H{};
    H.Magic = SegmentMagic;
    H.Encoding = SegEncodingRaw;
    H.Flags = SegFlagFooter;
    H.PayloadBytes = sizeof(Totals);
    H.PayloadCrc = crc32c(&Totals, sizeof(Totals));
    H.HeaderCrc = crc32c(&H, SegmentHeaderCrcBytes);
    std::memcpy(Frame.data(), &H, sizeof(H));
    Sealed = writeAll(Frame.data(), Frame.size());
    if (Sealed)
      Out->flush();
    else
      Failed = true;
  }
  if (Out)
    Out->close();
  if (telemetry::MetricsRegistry *M = telemetry::resolveRegistry(Metrics)) {
    telemetry::ThreadSlab &Slab = M->threadSlab();
    Slab.add(M->counter("sink.retries"), Retries);
    Slab.add(M->counter("sink.segments_written"), Segments);
    Slab.add(M->counter("sink.writes.app_thread"), AppWrites);
    Slab.add(M->counter("sink.writes.flusher_thread"), FlusherWrites);
    if (Dropped)
      Slab.add(M->counter("sink.events_dropped"), Dropped);
  }
  return Sealed && Dropped == 0;
}

void SegmentedFileSink::abandon() {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Closed)
    return;
  Closed = true;
  if (Out)
    Out->close();
}

const char *literace::traceFormatName(TraceFormat F) {
  switch (F) {
  case TraceFormat::Unknown:
    return "unknown";
  case TraceFormat::V2Segmented:
    return "v2-segmented";
  }
  return "unknown";
}

TraceReadResult literace::readTrace(const std::string &Path,
                                    const TraceReadOptions &Options) {
  TraceReadResult Res;
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Res.Error = "cannot open " + Path;
    return Res;
  }
  TraceReadStats &S = Res.Stats;

  // Sniff the format from the file header.
  uint8_t Head[sizeof(FileHeader)];
  const size_t HeadSize = readUpTo(Fd, Head, sizeof(Head));
  FileHeader Header{};
  if (HeadSize == sizeof(Header))
    std::memcpy(&Header, Head, sizeof(Header));
  if ((Header.Magic == FileMagic && Header.Version == RetiredVersion1) ||
      Header.Magic == RetiredCompressedMagic) {
    // Refused, not scanned: a v1 file holds no v2 frames to salvage.
    ::close(Fd);
    Res.Error = Path + " is in the retired v1 trace format, which is no "
                       "longer read; re-record it";
    return Res;
  }
  // A damaged or missing file header is no reason to stop: frames are
  // self-describing, so the decoder resyncs on the first valid one.
  // Frames still start right after a merely damaged header, so the
  // reservation walks them from there in both cases.
  reservePerThread(Fd, sizeof(FileHeader), Res.T);
  SegmentStreamDecoder D;
  D.feed(Head, HeadSize);
  const bool FoundFrame = D.decodeAll(Fd, Res.T);
  ::close(Fd);
  if (!FoundFrame && !(Header.Magic == FileMagic &&
                       Header.Version == SegmentedFileVersion &&
                       Header.NumTimestampCounters != 0)) {
    Res.Error = "not a literace trace file: " + Path;
    return Res;
  }
  S = D.stats();
  S.BytesRead = D.bytesConsumed();

  if (telemetry::MetricsRegistry *M =
          telemetry::resolveRegistry(Options.Metrics)) {
    telemetry::ThreadSlab &Slab = M->threadSlab();
    Slab.add(M->counter("trace.segments.recovered"), S.SegmentsRecovered);
    Slab.add(M->counter("trace.segments.dropped"), S.SegmentsDropped);
  }

  const bool Loss = S.SegmentsDropped != 0 || S.TruncatedTail ||
                    S.SalvagedHeader || !S.CleanShutdown ||
                    S.EventsDroppedByWriter != 0 || S.FooterTotalsMismatch;
  if (!Loss) {
    Res.Status = TraceReadStatus::Ok;
    return Res;
  }
  std::string Note = "recovered " + std::to_string(S.EventsRecovered) +
                     " events in " + std::to_string(S.SegmentsRecovered) +
                     " segments; dropped " +
                     std::to_string(S.SegmentsDropped) + " segments (" +
                     std::to_string(S.BytesDropped) + " bytes)";
  if (S.TruncatedTail)
    Note += "; truncated tail";
  if (S.SalvagedHeader)
    Note += "; file header damaged";
  if (!S.CleanShutdown)
    Note += "; no clean shutdown marker";
  if (S.EventsDroppedByWriter != 0)
    Note += "; writer dropped " + std::to_string(S.EventsDroppedByWriter) +
            " event(s) before they reached the file";
  if (S.FooterTotalsMismatch)
    Note += "; footer totals disagree with recovered contents";
  if (Options.Salvage) {
    Res.Status = TraceReadStatus::Salvaged;
    Res.Error = Note;
  } else {
    Res.Status = TraceReadStatus::Unreadable;
    Res.Error = "strict mode refused damaged trace: " + Note;
    Res.T.PerThread.clear();
    S.MemoryEvents = S.SyncEvents = 0;
  }
  return Res;
}

std::vector<SegmentInfo> literace::scanSegments(const std::string &Path) {
  std::vector<SegmentInfo> Inventory;
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return Inventory;
  const FileBytes File = readToEnd(Fd);
  ::close(Fd);
  const uint8_t *Data = File.Data.get();
  const size_t Size = File.Size;

  size_t O = 0;
  if (Size >= sizeof(FileHeader)) {
    FileHeader Header;
    std::memcpy(&Header, Data, sizeof(Header));
    if (Header.Magic == FileMagic &&
        Header.Version == SegmentedFileVersion)
      O = sizeof(FileHeader);
  }
  while (O < Size) {
    SegmentHeader H;
    if (O + sizeof(SegmentHeader) <= Size &&
        parseSegmentHeader(Data + O, Size - O, H)) {
      SegmentInfo Info;
      Info.Offset = O;
      Info.Tid = H.Tid;
      Info.EventCount = H.EventCount;
      Info.PayloadBytes = H.PayloadBytes;
      Info.Encoding = H.Encoding;
      Info.IsFooter = (H.Flags & SegFlagFooter) != 0;
      Info.HeaderOk = true;
      size_t End = O + sizeof(SegmentHeader) + H.PayloadBytes;
      Info.PayloadOk =
          End <= Size &&
          crc32c(Data + O + sizeof(SegmentHeader), H.PayloadBytes) ==
              H.PayloadCrc;
      Inventory.push_back(Info);
      O = End <= Size ? End : Size;
      continue;
    }
    // Record a damaged frame when the magic is present but the header
    // fails validation; then resync.
    uint32_t Magic = 0;
    if (O + sizeof(Magic) <= Size)
      std::memcpy(&Magic, Data + O, sizeof(Magic));
    if (Magic == SegmentMagic) {
      SegmentInfo Info;
      Info.Offset = O;
      Inventory.push_back(Info);
    }
    O = findNextHeader(Data, Size, O + 1);
  }
  return Inventory;
}

//===----------------------------------------------------------------------===//
// SegmentStreamDecoder
//===----------------------------------------------------------------------===//

SegmentStreamDecoder::SegmentStreamDecoder() {
  Stats.Format = TraceFormat::V2Segmented;
}

SegmentStreamDecoder::~SegmentStreamDecoder() = default;

namespace {
/// Frame-loop consumer of SegmentStreamDecoder::feed(): one Chunk per
/// segment.
struct PushChunks {
  std::deque<SegmentStreamDecoder::Chunk> &Ready;

  std::vector<EventRecord> &open(uint32_t Tid) {
    Ready.push_back({Tid, {}});
    return Ready.back().Records;
  }
  void close(uint32_t, bool Ok) {
    if (!Ok)
      Ready.pop_back();
  }
};
} // namespace

void SegmentStreamDecoder::feed(const void *Data, size_t Size) {
  if (Finished || Size == 0)
    return;
  BytesFed += Size;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  PushChunks Out{Ready};
  if (Buffer.empty()) {
    // Nothing carried over: decode straight from the caller's bytes and
    // keep only the unfinished tail.
    const size_t Used = parse(P, Size, Out);
    Buffer.assign(P + Used, P + Size);
    return;
  }
  Buffer.insert(Buffer.end(), P, P + Size);
  const size_t Used = parse(Buffer.data(), Buffer.size(), Out);
  Buffer.erase(Buffer.begin(), Buffer.begin() + Used);
}

bool SegmentStreamDecoder::decodeAll(int Fd, Trace &T) {
  assert(Ready.empty() && !Finished && "decodeAll after decoded frames");
  AppendToTrace Out{T};
  // The window: the unconsumed stream bytes sit at its front.
  size_t Cap = std::max(ReadWindowBytes, Buffer.size());
  auto Window = std::make_unique_for_overwrite<uint8_t[]>(Cap);
  size_t Have = Buffer.size();
  std::copy(Buffer.begin(), Buffer.end(), Window.get());
  Buffer = {};
  uint64_t Skipped = 0; // truncated-tail bytes counted but never held
  for (;;) {
    if (Have == Cap) {
      // parse() left a full window: the head of one CRC-valid frame
      // larger than the window. Grow to hold it only as far as its bytes
      // are arriving.
      SegmentHeader H;
      [[maybe_unused]] const bool Valid =
          parseSegmentHeader(Window.get(), Have, H);
      assert(Valid && "only an unfinished frame can fill the window");
      const size_t FrameBytes = sizeof(SegmentHeader) + H.PayloadBytes;
      size_t Grown = std::min(FrameBytes, 2 * Cap); // a pipe: by doubling
      struct stat St;
      const off_t Pos = ::lseek(Fd, 0, SEEK_CUR);
      if (Pos >= 0 && ::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode)) {
        const uint64_t Left =
            St.st_size > Pos ? static_cast<uint64_t>(St.st_size - Pos) : 0;
        if (Left < FrameBytes - Have) {
          // The frame runs past the end of the file: a truncated tail.
          Skipped = Left;
          BytesFed += Left;
          break;
        }
        Grown = FrameBytes;
      }
      auto Larger = std::make_unique_for_overwrite<uint8_t[]>(Grown);
      std::memcpy(Larger.get(), Window.get(), Have);
      Window = std::move(Larger);
      Cap = Grown;
    }
    const size_t N = readUpTo(Fd, Window.get() + Have, Cap - Have);
    if (N == 0)
      break;
    BytesFed += N;
    Have += N;
    const size_t Used = parse(Window.get(), Have, Out);
    std::memmove(Window.get(), Window.get() + Used, Have - Used);
    Have -= Used;
  }
  Finished = true;
  // Past the window's bytes, settle() reads only the tail's header.
  settle(Window.get(), Have + Skipped);
  T.PerThread.resize(Out.Threads);
  T.NumTimestampCounters = NumCounters;
  return FrameSeen;
}

/// Walks the frames in Data[0, Size) and returns the offset it stopped
/// at: the start of an incomplete frame, or — while resyncing — one byte
/// short of a header's length before the end, since a valid header may
/// straddle it. settle() accounts what is left once the bytes end.
///
/// Damaged headers are resynced over by scanning for the next CRC-valid
/// one; one damage episode counts as one dropped segment, even across
/// calls (ResyncOpen). CRC-valid headers are trusted for frame lengths,
/// so a bad-payload frame costs exactly itself. Decoded payloads go to
/// \p Out: Out.open(Tid) names the vector to append thread Tid's records
/// to, and Out.close(Tid, Ok) follows each open() (on failure the vector
/// is already trimmed back).
template <typename Consumer>
size_t SegmentStreamDecoder::parse(const uint8_t *Data, size_t Size,
                                   Consumer &Out) {
  size_t O = 0;
  if (!HeaderSeen) {
    if (Size < sizeof(FileHeader))
      return 0;
    FileHeader Header;
    std::memcpy(&Header, Data, sizeof(Header));
    if (Header.Magic == FileMagic &&
        Header.Version == SegmentedFileVersion &&
        Header.NumTimestampCounters != 0) {
      NumCounters = Header.NumTimestampCounters;
      O = sizeof(FileHeader);
    } else {
      // Damaged or missing stream header. v2 frames are self-describing,
      // so resync on the first CRC-valid frame magic.
      Stats.SalvagedHeader = true;
    }
    HeaderSeen = true;
  }

  while (Size - O >= sizeof(SegmentHeader)) {
    SegmentHeader H;
    if (!parseSegmentHeader(Data + O, Size - O, H)) {
      LastDecodedWasFooter = false;
      size_t Next = findNextHeader(Data, Size, O + 1);
      if (Next == Size)
        Next = Size - (sizeof(SegmentHeader) - 1);
      if (!ResyncOpen) {
        ++Stats.SegmentsDropped;
        ResyncOpen = true;
      }
      Stats.BytesDropped += Next - O;
      O = Next;
      continue;
    }
    ResyncOpen = false;
    FrameSeen = true;
    const size_t FrameBytes = sizeof(SegmentHeader) + H.PayloadBytes;
    if (Size - O < FrameBytes)
      break; // The rest of the payload has not arrived (yet).

    const uint8_t *Payload = Data + O + sizeof(SegmentHeader);
    const bool IsFooter = (H.Flags & SegFlagFooter) != 0;
    bool Decoded = false;
    if (IsFooter) {
      if ((H.PayloadBytes == sizeof(SegmentFooterPayload) ||
           H.PayloadBytes == LegacyFooterPayloadBytes) &&
          crc32c(Payload, H.PayloadBytes) == H.PayloadCrc) {
        // memcpy field-wise: legacy footers stop after TotalSegments.
        SegmentFooterPayload Footer{};
        std::memcpy(&Footer, Payload, H.PayloadBytes);
        FooterTotalEvents = Footer.TotalEvents;
        FooterTotalSegments = Footer.TotalSegments;
        FooterDroppedEvents = Footer.DroppedEvents;
        FooterSeen = Decoded = true;
      }
    } else if (payloadCarriesCount(H)) {
      // A raw payload is checked in the same pass that copies it; a
      // compressed one is checked before it is decoded.
      EventKindCounts Counts;
      std::vector<EventRecord> &Records = Out.open(H.Tid);
      Decoded = H.Encoding == SegEncodingRaw
                    ? appendRawPayload(H, Payload, Records, Counts)
                    : crc32c(Payload, H.PayloadBytes) == H.PayloadCrc &&
                          appendCompressedPayload(H, Payload, Records,
                                                  Counts);
      Out.close(H.Tid, Decoded);
      if (Decoded) {
        Stats.EventsRecovered += H.EventCount;
        Stats.MemoryEvents += Counts.Memory;
        Stats.SyncEvents += Counts.Sync;
        ++Stats.SegmentsRecovered;
      }
    }
    if (Decoded) {
      Stats.BytesRecovered += FrameBytes;
    } else {
      ++Stats.SegmentsDropped;
      Stats.BytesDropped += FrameBytes;
      if (!IsFooter)
        ++Stats.PerThreadDropped[H.Tid];
    }
    LastDecodedWasFooter = Decoded && IsFooter;
    O += FrameBytes;
  }
  return O;
}

void SegmentStreamDecoder::noteGap(uint64_t ShedBytes) {
  if (Finished || ShedBytes == 0)
    return;
  if (!Buffer.empty()) {
    // The buffered partial frame can never complete: its remainder is
    // inside the hole. A CRC-valid header in it still attributes the
    // loss to its thread, as in finish()'s truncated-tail accounting.
    SegmentHeader H;
    if (parseSegmentHeader(Buffer.data(), Buffer.size(), H))
      ++Stats.PerThreadDropped[H.Tid];
    Stats.BytesDropped += Buffer.size();
    Buffer.clear();
  }
  if (!ResyncOpen) {
    ++Stats.SegmentsDropped;
    ResyncOpen = true;
  }
  Stats.BytesDropped += ShedBytes;
  LastDecodedWasFooter = false;
}

void SegmentStreamDecoder::finish() {
  if (Finished)
    return;
  Finished = true;
  settle(Buffer.data(), Buffer.size());
  Buffer.clear();
  Buffer.shrink_to_fit();
}

void SegmentStreamDecoder::settle(const uint8_t *Tail, size_t Leftover) {
  if (Leftover != 0) {
    // The producer died (or the connection broke) mid-frame. A CRC-valid
    // header in the tail is trustworthy, so the loss is attributable to
    // its thread, exactly as in file salvage.
    Stats.TruncatedTail = true;
    if (!ResyncOpen)
      ++Stats.SegmentsDropped;
    Stats.BytesDropped += Leftover;
    SegmentHeader H;
    if (parseSegmentHeader(Tail, Leftover, H))
      ++Stats.PerThreadDropped[H.Tid];
    LastDecodedWasFooter = false;
  }
  Stats.CleanShutdown = LastDecodedWasFooter;
  if (Stats.CleanShutdown) {
    Stats.EventsDroppedByWriter = FooterDroppedEvents;
    // Cross-check the footer's totals, but only when nothing else went
    // wrong — with dropped or truncated segments a disagreement is
    // already explained and accounted.
    if (Stats.SegmentsDropped == 0 && !Stats.TruncatedTail &&
        (FooterTotalEvents != Stats.EventsRecovered ||
         FooterTotalSegments != Stats.SegmentsRecovered))
      Stats.FooterTotalsMismatch = true;
  }
}

bool SegmentStreamDecoder::take(Chunk &Out) {
  if (Ready.empty())
    return false;
  Out = std::move(Ready.front());
  Ready.pop_front();
  return true;
}
