//===-- tools/literace-fsck.cpp - Trace integrity checker -------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Integrity checker for recorded logs (docs/ROBUSTNESS.md): walks the
// file the same way the salvage reader does and reports what a detection
// run would actually see — per-segment CRC status, the footer, per-thread
// coverage, and the recovery percentage. Use it to answer "how much of
// the crashed run survived?" before spending detector time on it.
//
// Usage:
//   literace-fsck <log.bin> [--segments] [--quiet]
//   literace-fsck --spool <dir> [--quiet]
//
//   --segments  also print the per-frame inventory (v2 logs)
//   --spool     audit a collector spool directory instead of one log:
//               validates the triage checkpoint, salvages every session
//               journal through the same reader the daemon's recovery
//               uses, and cross-checks the two (journals the checkpoint
//               tracks, journal sizes vs. checkpointed positions). This
//               answers "what would a daemon restarted on this directory
//               recover?" without starting one.
//   --quiet     suppress everything except errors; rely on the exit code
//
// Exit codes:
//   0  clean: every byte accounted for, clean shutdown / consistent spool
//   4  recoverable: a coherent partial state was salvaged (some loss)
//   1  unreadable: not a literace log / no recoverable spool state
//   2  usage error
//
//===----------------------------------------------------------------------===//

#include "collector/Checkpoint.h"
#include "runtime/EventLog.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/stat.h>

using namespace literace;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <log.bin> [--segments] [--quiet]\n"
               "       %s --spool <dir> [--quiet]\n",
               Argv0, Argv0);
  return 2;
}

const char *yesNo(bool B) { return B ? "yes" : "no"; }

/// Audits a collector spool directory (docs/ROBUSTNESS.md). Returns the
/// process exit code.
int auditSpool(const std::string &Dir, bool Quiet) {
  using namespace literace::collector;

  // 1. The checkpoint: must decode as literace.triage.v1 if present.
  CollectorCheckpoint Ckpt;
  bool HaveCkpt = false;
  bool CkptBad = false;
  std::string Text, CkptError;
  const std::string CkptPath = Dir + "/" + checkpointFileName();
  if (readFileInto(CkptPath, Text)) {
    if (decodeCheckpoint(Text, Ckpt, &CkptError))
      HaveCkpt = true;
    else
      CkptBad = true;
  }
  if (!Quiet) {
    std::printf("%s: collector spool\n", Dir.c_str());
    if (HaveCkpt)
      std::printf("  checkpoint:     ok (%zu race(s), %zu in-flight "
                  "session(s), next id %llu)\n",
                  Ckpt.Races.size(), Ckpt.Sessions.size(),
                  static_cast<unsigned long long>(Ckpt.NextSessionId));
    else if (CkptBad)
      std::printf("  checkpoint:     CORRUPT (%s)\n", CkptError.c_str());
    else
      std::printf("  checkpoint:     absent\n");
  }

  // 2. Every session journal: salvage it the way recovery would.
  const std::vector<std::string> Journals = listJournalFiles(Dir);
  bool AnyLoss = CkptBad;
  bool AnyReadable = HaveCkpt;
  uint64_t TotalEvents = 0;
  for (const std::string &Name : Journals) {
    uint64_t Id = 0, Hi = 0, Lo = 0;
    bool Resumable = false;
    parseJournalFileName(Name, Id, Hi, Lo, Resumable);
    const std::string Path = Dir + "/" + Name;
    struct stat St {};
    const uint64_t Size =
        ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                       : 0;

    const CheckpointSessionEntry *E = nullptr;
    for (const CheckpointSessionEntry &S : Ckpt.Sessions)
      if (S.Id == Id) {
        E = &S;
        break;
      }
    // A journal the checkpoint does not track is normal (created after
    // the last checkpoint, or the checkpoint is gone) — recovery replays
    // it with zero published counts. A checkpointed size *larger* than
    // the file is not: bytes the daemon acked as durable are missing.
    const bool ShortOfCheckpoint = E && E->JournalBytes > Size;

    const TraceReadResult R = readTrace(Path);
    if (R.readable())
      AnyReadable = true;
    const TraceReadStats &S = R.Stats;
    const uint64_t TotalSegments = S.SegmentsRecovered + S.SegmentsDropped;
    const double Pct =
        TotalSegments == 0
            ? 100.0
            : 100.0 * static_cast<double>(S.SegmentsRecovered) /
                  static_cast<double>(TotalSegments);
    TotalEvents += S.EventsRecovered;
    if (!R.readable() || S.SegmentsDropped != 0 || ShortOfCheckpoint)
      AnyLoss = true;
    if (!Quiet) {
      std::printf("  %s: session %llu %s", Name.c_str(),
                  static_cast<unsigned long long>(Id),
                  Resumable ? "(resumable)" : "(legacy)");
      if (!R.readable()) {
        std::printf(" UNREADABLE%s%s\n", R.Error.empty() ? "" : ": ",
                    R.Error.c_str());
        continue;
      }
      std::printf(": %llu event(s), %.1f%% of segments, footer %s",
                  static_cast<unsigned long long>(S.EventsRecovered), Pct,
                  yesNo(S.CleanShutdown));
      if (E)
        std::printf(", checkpointed at %llu/%llu byte(s)",
                    static_cast<unsigned long long>(E->JournalBytes),
                    static_cast<unsigned long long>(Size));
      else
        std::printf(", untracked by checkpoint");
      if (ShortOfCheckpoint)
        std::printf("  [MISSING ACKED BYTES]");
      std::printf("\n");
    }
  }

  // 3. Checkpointed sessions whose journal is gone: fine only when the
  // daemon finished them (checkpoint-then-unlink crash window), which a
  // later checkpoint would have pruned. Flag them as recoverable loss of
  // context, not data (their published counts are still in the totals).
  uint64_t Unbacked = 0;
  for (const CheckpointSessionEntry &S : Ckpt.Sessions) {
    bool Found = false;
    for (const std::string &Name : Journals) {
      uint64_t Id = 0, Hi = 0, Lo = 0;
      bool Resumable = false;
      parseJournalFileName(Name, Id, Hi, Lo, Resumable);
      if (Id == S.Id) {
        Found = true;
        break;
      }
    }
    if (!Found) {
      ++Unbacked;
      if (!Quiet)
        std::printf("  session %llu: in checkpoint but no journal "
                    "(finished in the unlink window)\n",
                    static_cast<unsigned long long>(S.Id));
    }
  }

  if (!Quiet)
    std::printf("  recoverable:    %llu event(s) across %zu journal(s)\n",
                static_cast<unsigned long long>(TotalEvents),
                Journals.size());
  if (!AnyReadable && !Journals.empty())
    return 1; // journals exist but nothing is salvageable
  if (!HaveCkpt && Journals.empty()) {
    if (CkptBad)
      return 1;
    if (!Quiet)
      std::printf("empty spool\n");
    return 0;
  }
  if (AnyLoss || Unbacked != 0) {
    if (!Quiet)
      std::printf("recoverable\n");
    return 4;
  }
  if (!Quiet)
    std::printf("clean\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Path;
  std::string SpoolDir;
  bool Segments = false;
  bool Quiet = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--segments")
      Segments = true;
    else if (Arg == "--quiet")
      Quiet = true;
    else if (Arg == "--spool" && I + 1 < Argc)
      SpoolDir = Argv[++I];
    else if (Arg[0] != '-' && Path.empty())
      Path = Arg;
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }
  if (!SpoolDir.empty())
    return auditSpool(SpoolDir, Quiet);
  if (Path.empty())
    return usage(Argv[0]);

  TraceReadResult Read = readTrace(Path);
  if (!Read.readable()) {
    std::fprintf(stderr, "%s: unreadable%s%s\n", Path.c_str(),
                 Read.Error.empty() ? "" : ": ", Read.Error.c_str());
    return 1;
  }
  const TraceReadStats &S = Read.Stats;

  if (Segments && S.Format == TraceFormat::V2Segmented) {
    std::printf("    offset        tid     events    payload  crc\n");
    for (const SegmentInfo &Seg : scanSegments(Path)) {
      if (Seg.IsFooter) {
        std::printf("%10llu     footer                        %s\n",
                    static_cast<unsigned long long>(Seg.Offset),
                    Seg.HeaderOk && Seg.PayloadOk ? "ok" : "BAD");
        continue;
      }
      std::printf("%10llu %10u %10u %10u  %s\n",
                  static_cast<unsigned long long>(Seg.Offset), Seg.Tid,
                  Seg.EventCount, Seg.PayloadBytes,
                  !Seg.HeaderOk   ? "BAD header"
                  : !Seg.PayloadOk ? "BAD payload"
                                   : "ok");
    }
  }

  const uint64_t TotalSegments = S.SegmentsRecovered + S.SegmentsDropped;
  const double RecoveredPct =
      TotalSegments == 0
          ? 100.0
          : 100.0 * static_cast<double>(S.SegmentsRecovered) /
                static_cast<double>(TotalSegments);
  if (!Quiet) {
    std::printf("%s: %s\n", Path.c_str(), traceFormatName(S.Format));
    std::printf("  segments:       %llu recovered, %llu dropped (%.1f%% "
                "recovered)\n",
                static_cast<unsigned long long>(S.SegmentsRecovered),
                static_cast<unsigned long long>(S.SegmentsDropped),
                RecoveredPct);
    std::printf("  events:         %llu recovered\n",
                static_cast<unsigned long long>(S.EventsRecovered));
    if (S.BytesDropped != 0)
      std::printf("  bytes dropped:  %llu\n",
                  static_cast<unsigned long long>(S.BytesDropped));
    std::printf("  clean shutdown: %s\n", yesNo(S.CleanShutdown));
    std::printf("  truncated tail: %s\n", yesNo(S.TruncatedTail));
    if (S.EventsDroppedByWriter != 0)
      std::printf("  writer dropped: %llu event(s) (write failures or "
                  "async drop-policy backpressure)\n",
                  static_cast<unsigned long long>(S.EventsDroppedByWriter));
    if (S.FooterTotalsMismatch)
      std::printf("  footer totals:  disagree with recovered contents\n");
    if (S.SalvagedHeader)
      std::printf("  file header:    damaged (segments found by scan)\n");
    // Every thread with recovered events or dropped segments, in id order.
    const std::vector<std::vector<EventRecord>> &Streams = Read.T.PerThread;
    const size_t Threads = std::max<size_t>(
        Streams.size(), S.PerThreadDropped.empty()
                            ? 0
                            : S.PerThreadDropped.rbegin()->first + 1);
    for (size_t T = 0; T != Threads; ++T) {
      const uint64_t Rec = T < Streams.size() ? Streams[T].size() : 0;
      const auto Dropped = S.PerThreadDropped.find(static_cast<uint32_t>(T));
      const uint64_t Drop =
          Dropped == S.PerThreadDropped.end() ? 0 : Dropped->second;
      if (Rec == 0 && Drop == 0)
        continue;
      std::printf("  thread %-3zu      %llu event(s)%s", T,
                  static_cast<unsigned long long>(Rec),
                  Drop != 0 ? ", " : "\n");
      if (Drop != 0)
        std::printf("%llu dropped segment(s)\n",
                    static_cast<unsigned long long>(Drop));
    }
  }

  if (Read.Status == TraceReadStatus::Ok) {
    if (!Quiet)
      std::printf("clean\n");
    return 0;
  }
  if (!Quiet)
    std::printf("recoverable: %s\n", Read.Error.c_str());
  return 4;
}
