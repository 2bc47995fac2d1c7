//===-- bench/log_encoding.cpp - Log format size/throughput -----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Quantifies the log-volume theme of Table 5 one level deeper: bytes per
// event and encode/decode throughput of raw 32-byte records (the payload
// of a v2 segment) versus the delta/varint encoding (the payload of a v2z
// segment), on a real full-logging trace of the Apache-1 benchmark. Frame
// headers are left out of both rows.
//
//===----------------------------------------------------------------------===//

#include "harness/DetectionExperiment.h"
#include "harness/Tables.h"
#include "runtime/CompressedLog.h"
#include "support/TableFormatter.h"
#include "support/Timer.h"

#include <cstdio>

using namespace literace;

int main() {
  WorkloadParams Params = paramsFromEnv();
  auto W = makeWorkload(WorkloadKind::Httpd1);
  std::fprintf(stderr, "producing the trace...\n");
  ExperimentRun Run = executeExperiment(*W, Params);
  const Trace &T = Run.TraceData;
  const size_t Events = T.totalEvents();
  const uint64_t RawBytes = Events * sizeof(EventRecord);

  WallTimer Timer;
  std::vector<std::vector<uint8_t>> Encoded(T.PerThread.size());
  uint64_t CompressedBytes = 0;
  for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid)
    CompressedBytes += compressEventStream(T.PerThread[Tid], Encoded[Tid]);
  double EncodeSec = Timer.seconds();

  Timer.restart();
  size_t DecodedEvents = 0;
  std::vector<EventRecord> Back;
  for (size_t Tid = 0; Tid != T.PerThread.size(); ++Tid) {
    Back.clear();
    if (decompressEventStreamInto(Encoded[Tid].data(), Encoded[Tid].size(),
                                  static_cast<ThreadId>(Tid),
                                  Back) != Encoded[Tid].size()) {
      std::fprintf(stderr, "error: decode failed\n");
      return 1;
    }
    DecodedEvents += Back.size();
  }
  double DecodeSec = Timer.seconds();
  if (DecodedEvents != Events) {
    std::fprintf(stderr, "error: decode dropped events\n");
    return 1;
  }

  TableFormatter Table("Log encodings on one Apache-1 full-logging trace");
  Table.addRow({"Format", "Bytes/event", "Total MB", "Encode M ev/s",
                "Decode M ev/s"});
  Table.addRow({"raw (32B records, v2)", "32.0",
                TableFormatter::num(RawBytes / 1e6), "-", "-"});
  Table.addRow(
      {"delta/varint (v2z)",
       TableFormatter::num(static_cast<double>(CompressedBytes) / Events,
                           1),
       TableFormatter::num(CompressedBytes / 1e6),
       TableFormatter::num(Events / 1e6 / EncodeSec),
       TableFormatter::num(Events / 1e6 / DecodeSec)});
  Table.print();
  std::printf("compression ratio: %.2fx\n",
              static_cast<double>(RawBytes) / CompressedBytes);
  return 0;
}
