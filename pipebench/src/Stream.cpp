//===-- pipebench/src/Stream.cpp - Live collector workload ----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// collector-stream: an in-process CollectorServer (what literace-collectd
// runs) fed over AF_UNIX by one closed-loop client. The client streams the
// exact v2 bytes of an httpd-1 LiteRace recording as a fresh session,
// waits until the server reports that session complete, and starts the
// next one, cycling through eight recordings made in setup. Every session
// is checked against batch detection over the same bytes.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "collector/Collector.h"
#include "detector/HBDetector.h"
#include "detector/Replay.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"
#include "telemetry/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>

#include <sched.h>

using namespace literace;
using namespace literace::collector;

namespace pipebench {

namespace {

/// Inputs per run, recorded in setup from seeds drawn from the run's
/// seed; sessions cycle through them. A recording's size depends on how
/// the threads were scheduled while it was made (httpd-1 under LiteRace
/// logs 103k-127k events), so with one input every timing would move
/// with that one recording's size.
constexpr unsigned Inputs = 8;
/// Client write size: the stream reaches the server in socket-sized
/// pieces, never as a whole file.
constexpr size_t WriteBytes = 64 * 1024;
/// Sessions per run at minimum, so each input's p90 has at least ten
/// samples beyond it.
constexpr size_t MinSessions = 100 * Inputs;
/// Sessions one server takes before the run replaces it with a fresh one.
/// CollectorServer keeps every session it has accepted (README.md,
/// Findings), so its memory grows with the sessions a run had time for;
/// a fixed count per server makes peak_rss_mb a property of the code.
constexpr uint64_t SessionsPerServer = 500;
/// CPUs the client and the server's threads run on (restrictToCpus).
constexpr unsigned LoadCpus = 2;
/// A relative socket path: the run's working directory may be deeper
/// than sun_path allows.
const char *const SocketPath = "pipebench-collector.sock";
const char *const InputPath = "stream-input.bin";
/// Span run ids of sessions start here; setup recordings use 1, 2, ...
constexpr uint32_t FirstSessionRun = 1000;

/// The batch reference over one input: what literace-report reports on
/// the same bytes.
struct Reference {
  std::vector<uint8_t> Bytes;
  uint64_t Events = 0;
  std::set<StaticRaceKey> Races;
};

/// One finished session as the client saw it.
struct SessionSample {
  uint64_t Id = 0;      ///< the server's session id
  double SessionS = 0;  ///< connect → result seen, wall clock
  double CpuS = 0;      ///< the same span in process CPU seconds
  double LatencyS = 0;  ///< last byte sent → result seen, wall clock
  double SendBusyS = 0; ///< inside the socket writes
  size_t Input = 0;     ///< which input it streamed
  bool Traced = false;
};

std::vector<uint8_t> readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In), {});
}

/// The per-session checks: clean end with footer, nothing dropped, and
/// the same event and race counts as batch detection on the same bytes.
std::string checkSession(const SessionStatus &S, const Reference &Ref) {
  if (!S.Clean)
    return "session " + std::to_string(S.Id) + " ended without its footer";
  if (S.BytesDropped != 0 || S.SegmentsDropped != 0)
    return "session " + std::to_string(S.Id) + " dropped " +
           std::to_string(S.BytesDropped) + " byte(s)";
  if (S.Events != Ref.Events || S.Races != Ref.Races.size())
    return "session " + std::to_string(S.Id) + " saw " +
           std::to_string(S.Events) + " events / " +
           std::to_string(S.Races) + " races, batch saw " +
           std::to_string(Ref.Events) + " / " +
           std::to_string(Ref.Races.size());
  return std::string();
}

/// Writes the next piece of the stream (retrying partial writes).
bool sendPiece(SocketByteOutput &Sock, const Reference &Ref, size_t &At,
               SessionSample &Out) {
  const size_t End = std::min(Ref.Bytes.size(), At + WriteBytes);
  WallTimer Timer;
  while (At < End) {
    const WriteResult W = Sock.write(Ref.Bytes.data() + At, End - At);
    At += W.Written;
    if (W.Written == 0 && !W.Transient)
      return false;
  }
  Out.SendBusyS += Timer.seconds();
  return true;
}

/// Streams one session and waits for its result; \p Error is set when the
/// stream failed. The session's result is checked when its server is
/// retired. The client is the server's only one, so the server's
/// completion count reaching the session's id means it is done.
SessionSample streamSession(CollectorServer &Server, const Reference &Ref,
                            SpanRecorder *Spans, uint32_t Run,
                            std::string &Error) {
  using Clock = std::chrono::steady_clock;
  SessionSample Out;
  Out.Traced = Spans != nullptr;
  const double Cpu0 = processCpuS();
  const Clock::time_point Start = Clock::now();
  ScopedSpan Root(Spans, "collector.session", 0, Run);
  std::optional<SocketByteOutput> Sock;
  size_t At = 0;
  {
    ScopedSpan S(Spans, "collector.connect");
    // Ids count up from 1 in accept order, and every earlier session of
    // this server has completed.
    Out.Id = Server.sessionsAccepted() + 1;
    Sock.emplace(SocketPath);
    if (!Sock->ok() || !sendPiece(*Sock, Ref, At, Out)) {
      Error = "cannot stream to the collector socket";
      return Out;
    }
  }
  {
    ScopedSpan S(Spans, "collector.client_send");
    while (At < Ref.Bytes.size())
      if (!sendPiece(*Sock, Ref, At, Out)) {
        Error = "collector connection broke mid-stream";
        return Out;
      }
    Sock->close();
  }
  const Clock::time_point LastByte = Clock::now();
  {
    ScopedSpan S(Spans, "collector.wait_result");
    Server.waitForSessions(Out.Id);
  }
  const Clock::time_point Done = Clock::now();
  Out.CpuS = processCpuS() - Cpu0;
  Out.SessionS = std::chrono::duration<double>(Done - Start).count();
  Out.LatencyS = std::chrono::duration<double>(Done - LastByte).count();
  return Out;
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the first \p N CPUs it may run on. On a shared virtual machine a
/// virtual CPU is now and then descheduled by the host for milliseconds,
/// and a session's result waits for every thread on its path; with the
/// client, reader and detection threads on fewer virtual CPUs, fewer of
/// those pauses land on the path, so latency varies less from run to run.
void restrictToCpus(unsigned N) {
  cpu_set_t Allowed;
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int Cpu = 0; Cpu < CPU_SETSIZE && N; ++Cpu)
    if (CPU_ISSET(Cpu, &Allowed)) {
      CPU_SET(Cpu, &Set);
      --N;
    }
  ::sched_setaffinity(0, sizeof(Set), &Set);
}

/// A running server with the metrics registry it reports into (declared
/// first, so it outlives the server).
struct Served {
  telemetry::MetricsRegistry Registry;
  std::unique_ptr<CollectorServer> Server;
};

std::unique_ptr<Served> startServer(std::string &Error) {
  auto S = std::make_unique<Served>();
  CollectorConfig Config;
  Config.IngestSocketPath = SocketPath;
  Config.Metrics = &S->Registry;
  S->Server = std::make_unique<CollectorServer>(std::move(Config));
  if (!S->Server->start(&Error))
    return nullptr;
  return S;
}

/// Numeric field \p Path (dot-separated) of the /status document.
double statusField(const std::string &Json, const std::string &Path) {
  std::optional<telemetry::JsonValue> Doc = telemetry::parseJson(Json);
  const telemetry::JsonValue *V = Doc ? &*Doc : nullptr;
  size_t B = 0;
  while (V && B <= Path.size()) {
    const size_t E = std::min(Path.find('.', B), Path.size());
    V = V->find(Path.substr(B, E - B));
    B = E + 1;
  }
  return V ? V->Number : 0.0;
}

/// Traced-run references: one session's bytes re-run through the pieces
/// the server uses — SegmentStreamDecoder fed in the client's write sizes,
/// then ReplayScheduler + HBDetector chunk by chunk.
void sessionReferences(const Reference &Ref, RunResult &Out) {
  std::vector<double> Decode, Detect;
  for (int Rep = 0; Rep != 5; ++Rep) {
    SegmentStreamDecoder Decoder;
    std::vector<SegmentStreamDecoder::Chunk> Chunks;
    WallTimer Timer;
    for (size_t At = 0; At < Ref.Bytes.size(); At += WriteBytes) {
      Decoder.feed(Ref.Bytes.data() + At,
                   std::min(WriteBytes, Ref.Bytes.size() - At));
      SegmentStreamDecoder::Chunk C;
      while (Decoder.take(C))
        Chunks.push_back(std::move(C));
    }
    Decoder.finish();
    Decode.push_back(Timer.seconds());

    RaceReport Report;
    Timer.restart();
    ReplayScheduler Scheduler(Decoder.numTimestampCounters());
    HBDetector Detector(Report);
    uint64_t Delivered = 0;
    for (const SegmentStreamDecoder::Chunk &C : Chunks) {
      Scheduler.addEvents(C.Tid, C.Records.data(), C.Records.size());
      Delivered += Scheduler.drain(Detector);
    }
    Detect.push_back(Timer.seconds());
    if (!Decoder.footerSeen() || !Scheduler.fullyDrained() ||
        Delivered != Ref.Events || Report.keys() != Ref.Races) {
      Out.fail("decoder/replay reference disagrees with batch detection");
      return;
    }
  }
  Out.metric("collector.decode_s", median(Decode));
  Out.metric("collector.replay_detect_s", median(Detect));
}

} // namespace

void runStream(const RunOptions &Opts, RunResult &Out) {
  SpanRecorder *Rec = Opts.Trace ? &Out.Spans : nullptr;

  // Setup: record the inputs the client streams (httpd-1 under LiteRace,
  // v2), each with batch detection over it as its reference.
  std::vector<double> SetupS, RecordS, Slowdown, PerEvent;
  std::vector<std::map<std::string, double>> Layers;
  std::vector<Reference> Refs(Inputs);
  SplitMix64 Seeds(Opts.Seed);
  for (unsigned I = 0; I != Inputs; ++I) {
    Reference &Ref = Refs[I];
    const double Cpu0 = processCpuS();
    const uint32_t Run = I + 1;
    const Recording R = recordOnce(WorkloadKind::Httpd1, RunMode::LiteRace,
                                   false, Seeds.next(), InputPath, Rec, Run);
    const Analysis A = analyzeOnce(InputPath, Rec, Run);
    Ref.Bytes = readBytes(InputPath);
    Ref.Events = A.Events;
    Ref.Races = A.Report.keys();
    SetupS.push_back(processCpuS() - Cpu0);

    std::string Error = checkReadBack(R, A);
    if (Error.empty() && Ref.Bytes.size() != R.FileBytes)
      Error = "input file changed size while read";
    Out.operation(Error.empty() ? "" : "setup: " + Error);
    RecordS.push_back(R.RecordCpuS);
    if (auto S = recordSlowdown(R.RecordCpuS, R.BaselineCpuS))
      Slowdown.push_back(*S);
    if (auto P = ratio(static_cast<double>(R.FileBytes),
                       static_cast<double>(R.EventsWritten)))
      PerEvent.push_back(*P);
    if (Rec) {
      std::map<std::string, double> L = layerMetrics(R, A, Rec->spans(), Run);
      L.erase("trace.coverage"); // here coverage is the sessions'
      Layers.push_back(std::move(L));
    }
  }
  if (Out.Failed)
    return;
  restrictToCpus(LoadCpus);
  resetPeakRss();

  // Retires the current server: checks every session it took, and its
  // deduplicated race set, against batch detection over the same inputs,
  // then stops it.
  std::unique_ptr<Served> Current;
  std::vector<SessionSample> Pending, Samples;
  std::vector<double> DetectionRates;
  uint64_t BytesDropped = 0, EventsIngested = 0;
  double SegmentsDropped = 0, QueueHighWater = 0;
  unsigned Servers = 0;
  auto Retire = [&] {
    CollectorServer &Server = *Current->Server;
    std::map<uint64_t, SessionStatus> Status;
    for (const SessionStatus &S : Server.sessionStatuses()) {
      Status[S.Id] = S;
      BytesDropped += S.BytesDropped;
    }
    std::set<StaticRaceKey> Expected;
    for (const SessionSample &S : Pending) {
      const Reference &Ref = Refs[S.Input];
      Expected.insert(Ref.Races.begin(), Ref.Races.end());
      auto It = Status.find(S.Id);
      const std::string Error =
          It == Status.end() ? "session " + std::to_string(S.Id) + " vanished"
                             : checkSession(It->second, Ref);
      Out.operation(Error);
      if (Error.empty())
        Samples.push_back(S);
    }
    Pending.clear();
    std::set<StaticRaceKey> Live;
    for (const TriagedRace &R : Server.triage().races())
      Live.insert(R.Key);
    if (Live != Expected)
      Out.fail("triage race set differs from batch detection (" +
               std::to_string(Live.size()) + " vs " +
               std::to_string(Expected.size()) + ")");
    if (auto Rate = detectionRate(Live.size(), Expected.size()))
      DetectionRates.push_back(*Rate);
    const std::string StatusJson = Server.statusJson();
    QueueHighWater = std::max(
        QueueHighWater, statusField(StatusJson, "ingest.queue.high_water"));
    SegmentsDropped += statusField(StatusJson, "ingest.segments_dropped");
    Server.stop();
    EventsIngested +=
        Current->Registry.snapshot().counter("collector.events.ingested");
    Current.reset();
    std::remove(SocketPath);
    ++Servers;
  };

  // Closed loop: the next session starts once the last one's result is
  // in. Traced runs alternate traced and untraced rounds over the inputs,
  // so the tracing overhead is measured in-run.
  const StealMeter Steal;
  WallTimer Window;
  for (uint32_t N = 0; Window.seconds() < Opts.Seconds ||
                       Samples.size() + Pending.size() < MinSessions;
       ++N) {
    std::string Error;
    if (!Current && !(Current = startServer(Error))) {
      Out.operation("collector did not start: " + Error);
      break;
    }
    const size_t Input = N % Inputs;
    SessionSample S = streamSession(*Current->Server, Refs[Input],
                                    Rec && N / Inputs % 2 == 1 ? Rec : nullptr,
                                    FirstSessionRun + N, Error);
    if (!Error.empty()) {
      Out.operation(Error);
      break; // a broken stream would only repeat the failure
    }
    S.Input = Input;
    Pending.push_back(S);
    if (Current->Server->sessionsAccepted() >= SessionsPerServer)
      Retire();
  }
  if (Current)
    Retire();

  std::vector<double> Cpu[2], Session[2], Latency, SendBusy;
  std::vector<std::vector<double>> LatencyByInput(Inputs), CpuByInput(Inputs);
  uint64_t Events = 0;
  double CpuTotal = 0;
  for (const SessionSample &S : Samples) {
    if (!S.Traced) {
      Events += Refs[S.Input].Events;
      CpuTotal += S.CpuS;
    }
    Cpu[S.Traced].push_back(S.CpuS);
    Session[S.Traced].push_back(S.SessionS);
    if (!S.Traced) {
      Latency.push_back(S.LatencyS);
      LatencyByInput[S.Input].push_back(S.LatencyS);
      CpuByInput[S.Input].push_back(S.CpuS);
    } else
      SendBusy.push_back(S.SendBusyS);
  }
  if (Latency.empty()) {
    Out.fail("no session completed");
    return;
  }
  Out.metric("setup_s", median(SetupS));
  Out.metric("record_s", median(RecordS));
  Out.metric("record_slowdown", median(Slowdown));
  Out.metric("analyze_s", median(Cpu[0]));
  Out.metric("pipeline_s", median(RecordS) + median(Cpu[0]));
  Out.metric("log_bytes_per_event", median(PerEvent));
  if (DetectionRates.size() == Servers)
    Out.metric("detection_rate", median(DetectionRates));
  else
    Out.fail("batch reference found no races to rate detection against");
  if (auto Rate = ratio(static_cast<double>(Events), CpuTotal))
    Out.metric("ingest_events_per_s", *Rate);
  // As offline, the result latency is the CPU time of the analysis that
  // produces the result, here a whole session's; the wall-clock time from
  // the last byte to the result goes in the result document (README.md,
  // "Host noise", says why). Percentiles are taken per input, and the
  // metric is their median over the inputs: a recording's size depends
  // on its schedule (some come out 20% larger), and a pooled percentile
  // would move with how many large ones a run drew.
  bool P90Supported = true;
  auto PerInput = [&](const std::vector<std::vector<double>> &ByInput,
                      double Q) {
    std::vector<double> V;
    for (const std::vector<double> &L : ByInput)
      if (!L.empty()) {
        V.push_back(Q == 50 ? median(L) : percentile(L, Q));
        P90Supported = P90Supported && supportsPercentile(L.size(), 90);
      }
    return median(V) * 1e3;
  };
  Out.metric("result_latency_p50_ms", PerInput(CpuByInput, 50));
  Out.metric("result_latency_p90_ms", PerInput(CpuByInput, 90));
  Out.metric("peak_rss_mb", peakRssMb());
  const std::optional<double> Tail = highestSupportedPercentile(Latency.size());
  Out.detail("host_steal_pct", jsonNumber(Steal.percent()));
  Out.detail("sessions", std::to_string(Samples.size()));
  Out.detail("servers", std::to_string(Servers));
  Out.detail("session_wall_s", jsonNumber(median(Session[0])));
  Out.detail("latency_samples", std::to_string(Latency.size()));
  Out.detail("p90_supported", P90Supported ? "true" : "false");
  Out.detail("wall_latency_p50_ms", jsonNumber(PerInput(LatencyByInput, 50)));
  Out.detail("wall_latency_p90_ms", jsonNumber(PerInput(LatencyByInput, 90)));
  Out.detail("latency_tail_percentile", Tail ? jsonNumber(*Tail) : "null");
  if (Tail)
    Out.detail("latency_tail_ms", jsonNumber(percentile(Latency, *Tail) * 1e3));
  std::vector<double> InputEvents, InputBytes, InputRaces;
  for (const Reference &Ref : Refs) {
    InputEvents.push_back(static_cast<double>(Ref.Events));
    InputBytes.push_back(static_cast<double>(Ref.Bytes.size()));
    InputRaces.push_back(static_cast<double>(Ref.Races.size()));
  }
  Out.detail("input_events", jsonArray(InputEvents));
  Out.detail("input_bytes", jsonArray(InputBytes));
  Out.detail("input_races", jsonArray(InputRaces));

  if (Opts.Trace) {
    for (const auto &[K, V] : medianByKey(Layers))
      Out.metric(K, V);
    Out.metric("collector.client_send_s", median(SendBusy));
    Out.metric("collector.queue_depth_highwater", QueueHighWater);
    Out.metric("collector.events_ingested",
               static_cast<double>(EventsIngested));
    Out.metric("collector.segments_dropped", SegmentsDropped);
    Out.metric("collector.bytes_dropped", static_cast<double>(BytesDropped));
    // Coverage of a session: the wall-clock self-times of its stages
    // (connect, sends, the wait for the result) over its wall time.
    std::map<uint32_t, std::vector<Span>> ByRun;
    for (const Span &S : Rec->spans())
      if (S.Run >= FirstSessionRun)
        ByRun[S.Run].push_back(S);
    std::vector<double> Coverage;
    for (const auto &[Run, Spans] : ByRun) {
      uint64_t Session = 0, Stages = 0;
      for (const Span &S : Spans)
        if (S.Parent == 0)
          Session = S.duration();
      for (const auto &[Name, Ns] : wallSelfByName(Spans))
        if (Name != "collector.session")
          Stages += Ns;
      if (auto C = ratio(static_cast<double>(Stages),
                         static_cast<double>(Session)))
        Coverage.push_back(*C);
    }
    Out.metric("trace.coverage", median(Coverage));
    if (auto Overhead = ratio(median(Cpu[1]), median(Cpu[0])))
      Out.metric("trace.overhead", *Overhead - 1.0);
    fileReferences(InputPath, Out);
    sessionReferences(Refs.back(), Out);
  }
  std::remove(InputPath);
}

} // namespace pipebench
