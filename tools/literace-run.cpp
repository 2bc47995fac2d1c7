//===-- tools/literace-run.cpp - Workload recorder CLI ----------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Runs one of the bundled benchmark workloads under a chosen
// instrumentation mode and writes the event log to disk, ready for
// literace-report. This is the "profiler side" of the paper's offline
// workflow (§4.4), packaged as a command-line tool.
//
// Crash consistency: the default output is the v2 segmented format, whose
// frames are durable the moment they are written. A signal/atexit path
// additionally flushes whatever the sink still buffers and writes the
// metrics sidecar best-effort, then re-raises so the caller sees the
// workload's abnormal exit (128+signal) rather than a silent 0.
//
// Usage:
//   literace-run <workload> <out.bin> [--mode <mode>] [--scale <x>]
//                [--seed <n>] [--elide] [--no-elide] [--format v2|v2z]
//                [--flush sync|async] [--flush-policy block|drop]
//                [--kill-after-bytes <n>] [--abort-after-bytes <n>]
//                [--connect <socket>]
//
//   <workload>  channel-stdlib | channel | concrt-messaging |
//               concrt-scheduling | httpd-1 | httpd-2 | browser-start |
//               browser-render | lkrhash | lflist
//   <mode>      sync | literace (default) | full
//   --elide     run the pre-execution static analysis and skip logging
//               for sites it proves race-free (see literace-analyze)
//   --no-elide  escape hatch: force elision off even with --elide
//   --format    v2 (default, segmented+checksummed) or v2z (segmented
//               with compressed payloads)
//   --flush     sync (default): application threads write to the file
//               sink directly. async: chunks are handed to a bounded
//               queue and a dedicated flusher thread pays for framing,
//               compression, and write(2) — app threads never block on
//               trace I/O (docs/ROBUSTNESS.md)
//   --flush-policy
//               with --flush async: block (default, lossless
//               backpressure) or drop (discard whole chunks when the
//               queue is full; the loss is accounted in the v2 footer
//               and surfaces as a salvaged trace)
//   --kill-after-bytes / --abort-after-bytes
//               fault injection for the recovery tests: SIGKILL (no
//               handler can run) or abort() the process once the sink has
//               accepted that many payload bytes
//   --connect   additionally stream the v2 byte stream to a
//               literace-collectd daemon listening on the given unix
//               socket (docs/COLLECTOR.md). The on-disk file stays
//               authoritative. By default the connection is fault-
//               tolerant (docs/ROBUSTNESS.md): bytes are retained in a
//               bounded on-disk spool until the daemon acks them as
//               journaled, and a torn connection or daemon restart is
//               ridden out with capped exponential backoff + jitter and
//               a resume handshake, so the delivered stream stays byte-
//               identical. Loss happens only when the spool cap is hit,
//               and every shed byte is accounted in the metrics sidecar
//               (sink.tee.*).
//   --connect-strict
//               exit 1 when any streamed byte was lost (spool-cap trims
//               or an undrained tail at exit); without it loss only
//               degrades the stream and warns
//   --connect-spool <path>
//               spool file location (default <out.bin>.spool; unlinked
//               on clean exit)
//   --connect-spool-cap <bytes>
//               retained-unacked spool budget (default 64 MiB); hitting
//               it sheds the oldest unacked bytes
//   --connect-drain-ms <ms>
//               how long exit may keep reconnecting to drain the spool
//               backlog (default 5000)
//   --connect-legacy
//               use the fire-and-forget stream (no spool, no resume);
//               a broken connection degrades the run to file-only
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalysis.h"
#include "runtime/AsyncSink.h"
#include "support/ByteOutput.h"
#include "telemetry/Metrics.h"
#include "workloads/Workload.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

using namespace literace;

namespace {

std::optional<RunMode> parseMode(const std::string &Name) {
  if (Name == "sync")
    return RunMode::SyncLogging;
  if (Name == "literace")
    return RunMode::LiteRace;
  if (Name == "full")
    return RunMode::FullLogging;
  return std::nullopt;
}

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <workload> <out.bin> [--mode sync|literace|full]\n"
      "          [--scale <x>] [--seed <n>] [--elide] [--no-elide]\n"
      "          [--format v2|v2z] [--flush sync|async]\n"
      "          [--flush-policy block|drop] [--kill-after-bytes <n>]\n"
      "          [--abort-after-bytes <n>] [--connect <socket>]\n"
      "          [--connect-strict] [--connect-spool <path>]\n"
      "          [--connect-spool-cap <bytes>] [--connect-drain-ms <ms>]\n"
      "          [--connect-legacy]\n"
      "workloads:\n%s\n",
      Argv0, workloadNameList("  ").c_str());
  return 2;
}

/// Crash-path state shared with the signal handlers. Writes are ordered
/// before handler installation, so plain pointers are fine; Entered
/// serializes the (unlikely) case of a second fatal signal arriving while
/// the first is being handled.
LogSink *ActiveSink = nullptr;
Runtime *ActiveRuntime = nullptr;
const char *ActiveSidecarPath = nullptr;
std::atomic<bool> Entered{false};

void writeSidecarBestEffort() {
  if (!ActiveRuntime || !ActiveSidecarPath || !ActiveRuntime->metrics())
    return;
  telemetry::MetricsSnapshot Snap = ActiveRuntime->metricsSnapshot();
  Snap.stampCapture();
  if (std::FILE *File = std::fopen(ActiveSidecarPath, "wb")) {
    const std::string Json = Snap.toJson();
    std::fwrite(Json.data(), 1, Json.size(), File);
    std::fclose(File);
  }
}

/// Fatal-signal path: flush open segments so everything the workload
/// produced so far is recoverable, leave the sidecar if possible, then die
/// with the default disposition so the parent sees 128+sig. Not strictly
/// async-signal-safe (it allocates), but this runs only when the process
/// is about to die anyway — a secondary crash here loses nothing that was
/// not already lost.
void onFatalSignal(int Sig) {
  if (Entered.exchange(true)) {
    std::signal(Sig, SIG_DFL);
    std::raise(Sig);
    return;
  }
  if (ActiveSink)
    ActiveSink->flush();
  writeSidecarBestEffort();
  std::signal(Sig, SIG_DFL);
  std::raise(Sig);
}

void onExitFlush() {
  // Covers std::exit() from workload code: the sink's destructor would run
  // only for static-storage sinks, so flush explicitly.
  if (ActiveSink)
    ActiveSink->flush();
}

void installCrashPath() {
  static const int Fatal[] = {SIGINT,  SIGTERM, SIGHUP, SIGSEGV,
                              SIGBUS,  SIGILL,  SIGFPE, SIGABRT};
  for (int Sig : Fatal)
    std::signal(Sig, onFatalSignal);
  std::atexit(onExitFlush);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage(Argv[0]);

  auto Kind = workloadKindByName(Argv[1]);
  if (!Kind) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Argv[1]);
    return usage(Argv[0]);
  }
  std::string OutPath = Argv[2];
  RunMode Mode = RunMode::LiteRace;
  std::string Format = "v2";
  bool AsyncFlush = false;
  FlushPolicy Policy = FlushPolicy::Block;
  bool Elide = false;
  bool NoElide = false;
  uint64_t KillAfterBytes = 0;
  uint64_t AbortAfterBytes = 0;
  std::string ConnectPath;
  bool ConnectStrict = false;
  bool ConnectLegacy = false;
  std::string ConnectSpoolPath;
  uint64_t ConnectSpoolCap = 64ull << 20;
  uint64_t ConnectDrainMs = 5000;
  WorkloadParams Params;
  for (int I = 3; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--elide") {
      Elide = true;
    } else if (Arg == "--no-elide") {
      NoElide = true;
    } else if (Arg == "--mode" && I + 1 < Argc) {
      auto Parsed = parseMode(Argv[++I]);
      if (!Parsed) {
        std::fprintf(stderr, "error: unknown mode '%s'\n", Argv[I]);
        return usage(Argv[0]);
      }
      Mode = *Parsed;
    } else if (Arg == "--format" && I + 1 < Argc) {
      Format = Argv[++I];
      if (Format != "v2" && Format != "v2z") {
        std::fprintf(stderr, "error: unknown format '%s'\n", Format.c_str());
        return usage(Argv[0]);
      }
    } else if ((Arg == "--flush" && I + 1 < Argc) ||
               Arg.rfind("--flush=", 0) == 0) {
      const std::string Val =
          Arg[7] == '=' ? Arg.substr(8) : std::string(Argv[++I]);
      if (Val == "sync") {
        AsyncFlush = false;
      } else if (Val == "async") {
        AsyncFlush = true;
      } else {
        std::fprintf(stderr, "error: unknown flush mode '%s'\n",
                     Val.c_str());
        return usage(Argv[0]);
      }
    } else if (Arg == "--flush-policy" && I + 1 < Argc) {
      const std::string Val = Argv[++I];
      if (Val == "block") {
        Policy = FlushPolicy::Block;
      } else if (Val == "drop") {
        Policy = FlushPolicy::Drop;
      } else {
        std::fprintf(stderr, "error: unknown flush policy '%s'\n",
                     Val.c_str());
        return usage(Argv[0]);
      }
    } else if (Arg == "--scale" && I + 1 < Argc) {
      Params.Scale = std::atof(Argv[++I]);
    } else if (Arg == "--seed" && I + 1 < Argc) {
      Params.Seed = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--kill-after-bytes" && I + 1 < Argc) {
      KillAfterBytes = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--abort-after-bytes" && I + 1 < Argc) {
      AbortAfterBytes = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--connect" && I + 1 < Argc) {
      ConnectPath = Argv[++I];
    } else if (Arg == "--connect-strict") {
      ConnectStrict = true;
    } else if (Arg == "--connect-legacy") {
      ConnectLegacy = true;
    } else if (Arg == "--connect-spool" && I + 1 < Argc) {
      ConnectSpoolPath = Argv[++I];
    } else if (Arg == "--connect-spool-cap" && I + 1 < Argc) {
      ConnectSpoolCap = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--connect-drain-ms" && I + 1 < Argc) {
      ConnectDrainMs = std::strtoull(Argv[++I], nullptr, 10);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }

  // The sink: v2 frames are checksummed and durable as written, so a
  // crash costs at most the events still in per-thread buffers
  // (docs/ROBUSTNESS.md).
  std::unique_ptr<SegmentedFileSink> V2;
  std::unique_ptr<AsyncLogSink> Async;
  std::unique_ptr<FileByteOutput> FileOut;
  std::unique_ptr<SocketByteOutput> SocketOut;
  std::unique_ptr<SpoolingSocketOutput> SpoolOut;
  std::unique_ptr<TeeByteOutput> Tee;
  SegmentedFileSink::Options SinkOpts;
  SinkOpts.Compress = (Format == "v2z");
  if (!ConnectPath.empty()) {
    // Tee the exact byte stream to the collector: the file stays
    // authoritative (its WriteResult governs retries), and only
    // file-accepted bytes are forwarded, so daemon and disk see
    // byte-identical v2 streams.
    FileOut = std::make_unique<FileByteOutput>(OutPath);
    if (!FileOut->ok()) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   OutPath.c_str());
      return 1;
    }
    ByteOutput *Secondary = nullptr;
    if (ConnectLegacy) {
      SocketOut = std::make_unique<SocketByteOutput>(ConnectPath);
      if (!SocketOut->ok()) {
        std::fprintf(stderr,
                     "error: cannot connect to collector socket '%s'\n",
                     ConnectPath.c_str());
        return 1;
      }
      Secondary = SocketOut.get();
    } else {
      // Fault-tolerant transport: the stream survives torn connections
      // and daemon restarts via the on-disk spool and the resume
      // handshake; a daemon that never appears only costs the spool.
      SpoolingSocketOutput::Options SpoolOpts;
      SpoolOpts.SocketPath = ConnectPath;
      SpoolOpts.SpoolPath = ConnectSpoolPath.empty()
                                ? OutPath + ".spool"
                                : ConnectSpoolPath;
      SpoolOpts.SpoolCapBytes = ConnectSpoolCap;
      SpoolOpts.DrainDeadlineMs = ConnectDrainMs;
      SpoolOpts.JitterSeed = Params.Seed + 1;
      SpoolOut = std::make_unique<SpoolingSocketOutput>(
          std::move(SpoolOpts));
      Secondary = SpoolOut.get();
    }
    Tee = std::make_unique<TeeByteOutput>(*FileOut, *Secondary);
    SinkOpts.Output = Tee.get();
  }
  V2 = std::make_unique<SegmentedFileSink>(
      OutPath, /*NumTimestampCounters=*/128, SinkOpts);
  if (!V2->ok()) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 OutPath.c_str());
    return 1;
  }
  LogSink *Sink = V2.get();
  // The durable sink, as distinct from the front the runtime writes to.
  // The fault-injection watcher below polls it so --kill-after-bytes
  // triggers on bytes the file actually accepted, not bytes queued.
  LogSink *Durable = Sink;
  if (AsyncFlush) {
    AsyncLogSink::Options AsyncOpts;
    AsyncOpts.Policy = Policy;
    Async = std::make_unique<AsyncLogSink>(*Sink, AsyncOpts);
    Sink = Async.get();
  }

  RuntimeConfig Config;
  Config.Mode = Mode;
  Config.Seed = Params.Seed;
  Config.DisableElision = NoElide;
  Runtime RT(Config, Sink);
  std::unique_ptr<Workload> W = makeWorkload(*Kind);
  W->bind(RT);
  if (Elide) {
    AnalysisResult Analysis = analyzeAndInstall(RT);
    std::fprintf(stderr, "static analysis: %zu/%zu declared sites %s\n",
                 Analysis.ElidableSites, Analysis.DeclaredSites,
                 NoElide ? "elidable (elision disabled by --no-elide)"
                         : "elided");
  }

  const std::string SidecarPath = OutPath + ".metrics.json";
  ActiveSink = Sink;
  ActiveRuntime = &RT;
  ActiveSidecarPath = SidecarPath.c_str();
  installCrashPath();

  // Deterministic fault injection for the recovery tests: a watcher kills
  // or aborts the process once the sink has accepted N payload bytes,
  // mid-run, exactly like a crashing production workload would.
  if (KillAfterBytes != 0 || AbortAfterBytes != 0) {
    std::thread([Durable, KillAfterBytes, AbortAfterBytes] {
      for (;;) {
        const uint64_t B = Durable->bytesWritten();
        if (KillAfterBytes != 0 && B >= KillAfterBytes)
          ::kill(::getpid(), SIGKILL);
        if (AbortAfterBytes != 0 && B >= AbortAfterBytes)
          std::abort();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }).detach();
  }

  std::fprintf(stderr, "running %s in %s mode (scale %.2f)...\n",
               W->name().c_str(), runModeName(Mode), Params.Scale);
  W->run(RT, Params);

  bool SinkClean = true;
  if (Async) {
    // Drain the hand-off queue and retire the flusher before sealing the
    // durable sink, so the footer covers every accepted chunk.
    const bool AsyncClean = Async->close();
    const MpscQueueStats QS = Async->queueStats();
    std::fprintf(stderr,
                 "async flush (%s): %llu chunk(s) enqueued, %llu dropped, "
                 "queue depth high-water %zu, %llu producer park(s)\n",
                 flushPolicyName(Policy),
                 static_cast<unsigned long long>(Async->chunksEnqueued()),
                 static_cast<unsigned long long>(Async->chunksDropped()),
                 QS.DepthHighWater,
                 static_cast<unsigned long long>(QS.ProducerParks));
    SinkClean = AsyncClean;
  }
  SinkClean = V2->close() && SinkClean;
  if (!SinkClean)
    std::fprintf(stderr,
                 "warning: %llu event(s) lost before reaching the file "
                 "(%llu retries)\n",
                 static_cast<unsigned long long>(V2->eventsDropped()),
                 static_cast<unsigned long long>(V2->retries()));
  uint64_t StreamLost = 0;
  if (SpoolOut) {
    // Seal the transport: drains the spool backlog (reconnecting under
    // the --connect-drain-ms budget) before loss is assessed.
    SpoolOut->close();
    StreamLost = SpoolOut->bytesLost() + Tee->secondaryBytesLost();
    if (StreamLost == 0)
      std::fprintf(
          stderr,
          "streamed the trace to collector at %s "
          "(%llu reconnect(s), %llu byte(s) spooled, %llu replayed)\n",
          ConnectPath.c_str(),
          static_cast<unsigned long long>(SpoolOut->reconnects()),
          static_cast<unsigned long long>(SpoolOut->spooledBytes()),
          static_cast<unsigned long long>(SpoolOut->replayedBytes()));
    else
      std::fprintf(
          stderr,
          "warning: %llu streamed byte(s) lost (%llu spool-cap gap, "
          "%llu undelivered at exit; the on-disk trace is complete)\n",
          static_cast<unsigned long long>(StreamLost),
          static_cast<unsigned long long>(SpoolOut->gapBytes()),
          static_cast<unsigned long long>(SpoolOut->undeliveredBytes()));
  } else if (Tee) {
    StreamLost = Tee->secondaryBytesLost();
    if (Tee->secondaryOk())
      std::fprintf(stderr, "streamed the trace to collector at %s\n",
                   ConnectPath.c_str());
    else
      std::fprintf(stderr,
                   "warning: collector connection lost; %llu byte(s) were "
                   "not streamed (the on-disk trace is complete)\n",
                   static_cast<unsigned long long>(
                       Tee->secondaryBytesLost()));
  }
  // The run is over; keep the handlers but detach the sink (it is closed).
  ActiveSink = nullptr;

  // The size on disk, not bytesWritten(): that counts uncompressed
  // record bytes, which overstates a v2z file several-fold.
  struct stat St;
  const uint64_t FileBytes =
      ::stat(OutPath.c_str(), &St) == 0 && S_ISREG(St.st_mode)
          ? static_cast<uint64_t>(St.st_size)
          : Sink->bytesWritten();
  RuntimeStats Stats = RT.stats();
  std::fprintf(stderr,
               "wrote %s (%s): %.1f MB, %llu memory ops, %llu sync ops, "
               "%u threads, %zu functions\n",
               OutPath.c_str(), Format.c_str(),
               static_cast<double>(FileBytes) / 1e6,
               static_cast<unsigned long long>(Stats.MemOpsLogged),
               static_cast<unsigned long long>(Stats.SyncOps),
               RT.numThreads(), RT.registry().size());

  // Streaming telemetry rides in the same sidecar so loss is always
  // visible post-hoc, strict mode or not: sink.tee.lost_bytes is the
  // one-number answer to "did the collector see everything?".
  if (RT.metrics() && Tee) {
    telemetry::MetricsRegistry *M = RT.metrics();
    telemetry::ThreadSlab &Slab = M->threadSlab();
    Slab.add(M->counter("sink.tee.lost_bytes"), StreamLost);
    if (SpoolOut) {
      Slab.add(M->counter("sink.tee.reconnects"), SpoolOut->reconnects());
      Slab.add(M->counter("sink.tee.spooled_bytes"),
               SpoolOut->spooledBytes());
      Slab.add(M->counter("sink.tee.replayed_bytes"),
               SpoolOut->replayedBytes());
      Slab.add(M->counter("sink.tee.cap_hits"), SpoolOut->capHits());
      Slab.add(M->counter("sink.tee.trimmed_bytes"),
               SpoolOut->trimmedBytes());
      Slab.add(M->counter("sink.tee.gap_bytes"), SpoolOut->gapBytes());
      Slab.add(M->counter("sink.tee.undelivered_bytes"),
               SpoolOut->undeliveredBytes());
      Slab.add(M->counter("sink.tee.spool_errors"),
               SpoolOut->spoolErrors());
    }
  }

  // Sidecar telemetry: the log format carries no runtime counters, so
  // literace-stat reads them from <out>.metrics.json. Suppressed by the
  // LITERACE_TELEMETRY kill switch along with all other telemetry.
  if (RT.metrics()) {
    telemetry::MetricsSnapshot Snap = RT.metricsSnapshot();
    // Stamp capture time and pid so sidecars from concurrent processes
    // merge and order unambiguously (literace-stat --metrics a --metrics b).
    Snap.stampCapture();
    if (std::FILE *File = std::fopen(SidecarPath.c_str(), "wb")) {
      const std::string Json = Snap.toJson();
      const bool Ok =
          std::fwrite(Json.data(), 1, Json.size(), File) == Json.size();
      std::fclose(File);
      if (Ok)
        std::fprintf(stderr, "wrote %s (%zu metrics)\n", SidecarPath.c_str(),
                     Snap.Counters.size() + Snap.Gauges.size() +
                         Snap.Histograms.size());
    } else {
      std::fprintf(stderr, "warning: cannot write '%s'\n",
                   SidecarPath.c_str());
    }
  }
  ActiveRuntime = nullptr;
  ActiveSidecarPath = nullptr;
  // Data lost at the sink means the log on disk under-represents the run;
  // report it in the exit code so scripted pipelines notice. Streaming
  // loss counts only under --connect-strict (the file stays complete).
  if (ConnectStrict && StreamLost != 0) {
    std::fprintf(stderr,
                 "error: --connect-strict: %llu streamed byte(s) lost\n",
                 static_cast<unsigned long long>(StreamLost));
    return 1;
  }
  return SinkClean ? 0 : 1;
}
