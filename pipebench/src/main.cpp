//===-- pipebench/src/main.cpp - End-to-end pipeline benchmark ------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Measures the user-visible LiteRace pipeline end to end and layer by layer
// (README.md in this directory lists every metric and workload).
//
// Usage:
//   pipebench --workload <name> --seed <n> --seconds <s> --trace 0|1
//             [--out-dir <dir>]
//   pipebench --compare <result-a.json> <result-b.json>
//
// A run prints its full result document (host fingerprint, sample counts,
// errors) on one line and then, as the last line of standard output, the
// summary {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Both go to
// <out-dir>, with the spans of a traced run as Chrome trace JSON that
// loads in Perfetto. --compare refuses (exit 2) to compare two result
// documents whose host fingerprints differ.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "detector/VectorClock.h"
#include "telemetry/Json.h"
#include "telemetry/Timeline.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

using namespace literace;

namespace pipebench {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local uint64_t CurrentSpan = 0;
thread_local uint32_t CurrentRun = 0;
std::atomic<uint32_t> NextThreadIndex{0};
} // namespace

uint32_t benchThreadIndex() {
  thread_local uint32_t Index =
      NextThreadIndex.fetch_add(1, std::memory_order_relaxed);
  return Index;
}

ScopedSpan::ScopedSpan(SpanRecorder *Rec, const char *Name, uint64_t Parent,
                       uint32_t Run)
    : Rec(Rec) {
  if (!Rec)
    return;
  S.Id = Rec->nextId();
  S.Parent = Parent ? Parent : CurrentSpan;
  S.Run = Parent || Run ? Run : CurrentRun;
  S.Thread = benchThreadIndex();
  S.Name = Name;
  SavedId = CurrentSpan;
  SavedRun = CurrentRun;
  CurrentSpan = S.Id;
  CurrentRun = S.Run;
  S.Begin = Rec->nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!Rec)
    return;
  S.End = Rec->nowNs();
  CurrentSpan = SavedId;
  CurrentRun = SavedRun;
  Rec->commit(S);
}

std::string SpanRecorder::toChromeJson() const {
  telemetry::TraceWriter W;
  constexpr uint32_t Pid = 1;
  W.nameProcess(Pid, "pipebench");
  std::map<uint32_t, bool> Threads;
  for (const Span &S : spans()) {
    if (!Threads[S.Thread]) {
      Threads[S.Thread] = true;
      W.nameThread(Pid, S.Thread,
                   S.Thread == 0 ? "main"
                                 : "thread " + std::to_string(S.Thread));
    }
    telemetry::TraceEvent E;
    E.Name = S.Name;
    E.Cat = "pipebench";
    E.Phase = 'X';
    E.TsUs = S.Begin / 1000;
    E.DurUs = S.duration() / 1000;
    E.Pid = Pid;
    E.Tid = S.Thread;
    E.Args = {{"span_id", S.Id},
              {"parent_id", S.Parent},
              {"run_id", S.Run},
              {"begin_ns", S.Begin},
              {"dur_ns", S.duration()}};
    W.add(std::move(E));
  }
  return W.toJson();
}

//===----------------------------------------------------------------------===//
// Metric tables (the names BENCHMARK.json declares)
//===----------------------------------------------------------------------===//

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"record_s", "s"},
    {"record_slowdown", "ratio"},
    {"analyze_s", "s"},
    {"pipeline_s", "s"},
    {"log_bytes_per_event", "B/event"},
    {"detection_rate", "ratio"},
    {"ingest_events_per_s", "1/s"},
    {"result_latency_p50_ms", "ms"},
    {"result_latency_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics. A layer that is not on a workload's path reports 0.
const MetricDef PerLayer[] = {
    {"runtime.dispatch_checks", "count"},
    {"runtime.sampled_activations", "count"},
    {"runtime.sampled_fraction", "ratio"},
    {"runtime.events_logged", "count"},
    {"runtime.self_s", "s"},
    {"sink.write_calls", "count"},
    {"sink.write_busy_s", "s"},
    {"sink.write_wall_s", "s"},
    {"sink.close_s", "s"},
    {"sink.encode_s", "s"},
    {"support.output_write_s", "s"},
    {"support.output_bytes", "B"},
    {"support.crc_s", "s"},
    {"reader.read_s", "s"},
    {"reader.mb_per_s", "MB/s"},
    {"reader.segments_recovered", "count"},
    {"reader.segments_dropped", "count"},
    {"reader.file_io_s", "s"},
    {"detector.detect_s", "s"},
    {"detector.events_per_s", "1/s"},
    {"report.render_s", "s"},
    {"collector.client_send_s", "s"},
    {"collector.queue_depth_highwater", "count"},
    {"collector.events_ingested", "count"},
    {"collector.segments_dropped", "count"},
    {"collector.bytes_dropped", "B"},
    {"collector.decode_s", "s"},
    {"collector.replay_detect_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"error_rate", "ratio"},
};

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t Colon = Line.find(':');
      if (Colon != std::string::npos) {
        size_t B = Colon + 1;
        while (B < Line.size() && Line[B] == ' ')
          ++B;
        return Line.substr(B);
      }
    }
  return "unknown";
}

Fingerprint hostFingerprint() {
  const char *Telemetry = std::getenv("LITERACE_TELEMETRY");
  return {
      {"host_cores", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpuModel()},
      {"vectorclock_simd", LITERACE_VECTORCLOCK_SIMD},
      {"compiler", PIPEBENCH_COMPILER},
      {"build_type", PIPEBENCH_BUILD_TYPE},
      {"literace_native", PIPEBENCH_NATIVE},
      {"literace_telemetry", Telemetry ? Telemetry : ""},
  };
}

} // namespace

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  for (int Precision = 6; Precision <= 17; ++Precision) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}

std::string jsonArray(const std::vector<double> &V) {
  std::string J = "[";
  for (size_t I = 0; I != V.size(); ++I)
    J += (I ? ", " : "") + jsonNumber(V[I]);
  return J + "]";
}

namespace {

std::string quote(const std::string &S) {
  return "\"" + telemetry::jsonEscape(S) + "\"";
}

std::string metricsJson(const RunResult &R, bool Trace) {
  std::string J = "{";
  bool First = true;
  auto Emit = [&](const MetricDef &M) {
    auto It = R.metrics().find(M.Name);
    const double V = It == R.metrics().end() ? 0.0 : It->second;
    J += (First ? "" : ", ") + quote(M.Name) + ": {\"value\": " + jsonNumber(V) +
         ", \"unit\": " + quote(M.Unit) + "}";
    First = false;
  };
  if (Trace)
    for (const MetricDef &M : PerLayer)
      Emit(M);
  else
    for (const MetricDef &M : EndToEnd)
      Emit(M);
  return J + "}";
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Data;
  return static_cast<bool>(Out);
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload <name> --seed <n> --seconds <s> "
               "--trace 0|1 [--out-dir <dir>]\n"
               "       pipebench --compare <result-a.json> <result-b.json>\n"
               "workloads: offline-full offline-full-v2z offline-sampled "
               "collector-stream\n");
  return 2;
}

/// --compare: per-metric change between two result documents, refused
/// when their fingerprints or workloads differ.
int compareResults(const std::string &PathA, const std::string &PathB) {
  std::optional<telemetry::JsonValue> Docs[2];
  const std::string Paths[2] = {PathA, PathB};
  for (int I = 0; I != 2; ++I) {
    std::optional<std::string> Text = readFile(Paths[I]);
    if (Text)
      Docs[I] = telemetry::parseJson(*Text);
    if (!Docs[I] || !Docs[I]->find("fingerprint") ||
        !Docs[I]->find("metrics")) {
      std::fprintf(stderr, "error: '%s' is not a pipebench result\n",
                   Paths[I].c_str());
      return 1;
    }
  }
  Fingerprint F[2];
  for (int I = 0; I != 2; ++I) {
    for (const auto &[K, V] : Docs[I]->find("fingerprint")->Object)
      F[I][K] = V.Str;
    if (const telemetry::JsonValue *W = Docs[I]->find("workload"))
      F[I]["workload"] = W->Str; // different inputs are no comparison either
  }
  const std::vector<std::string> Diff = fingerprintMismatches(F[0], F[1]);
  if (!Diff.empty()) {
    std::fprintf(stderr, "refusing to compare results from different "
                         "hosts, builds or workloads:\n");
    for (const std::string &D : Diff)
      std::fprintf(stderr, "  %s\n", D.c_str());
    return 2;
  }
  std::printf("%-34s %14s %14s %9s\n", "metric", "a", "b", "change");
  for (const auto &[Name, VA] : Docs[0]->find("metrics")->Object) {
    const telemetry::JsonValue *VB = Docs[1]->find("metrics")->find(Name);
    const telemetry::JsonValue *A = VA.find("value");
    const telemetry::JsonValue *B = VB ? VB->find("value") : nullptr;
    if (!A || !B)
      continue;
    const std::optional<double> Rel = ratio(B->Number, A->Number);
    std::printf("%-34s %14.6g %14.6g %8.1f%%\n", Name.c_str(), A->Number,
                B->Number, Rel ? (*Rel - 1.0) * 100.0 : 0.0);
  }
  return 0;
}

} // namespace

} // namespace pipebench

int main(int Argc, char **Argv) {
  using namespace pipebench;
  RunOptions Opts;
  std::string OutDir = ".";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--compare" && I + 2 < Argc)
      return compareResults(Argv[I + 1], Argv[I + 2]);
    if (I + 1 >= Argc)
      return usage();
    const std::string Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = !Val.empty() && *End == '\0';
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = !Val.empty() && *End == '\0' && Opts.Seconds > 0;
    } else if (Arg == "--trace") {
      Opts.Trace = Val == "1";
      HaveTrace = Val == "0" || Val == "1";
    } else if (Arg == "--out-dir") {
      OutDir = Val;
    } else {
      return usage();
    }
  }
  const bool Offline = Opts.Workload == "offline-full" ||
                       Opts.Workload == "offline-full-v2z" ||
                       Opts.Workload == "offline-sampled";
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace ||
      (!Offline && Opts.Workload != "collector-stream"))
    return usage();

  RunResult R;
  if (Offline)
    runOffline(Opts, R);
  else
    runStream(Opts, R);
  const std::string Stem = OutDir + "/" + Opts.Workload + "-seed" +
                           std::to_string(Opts.Seed) + "-trace" +
                           (Opts.Trace ? "1" : "0");
  if (Opts.Trace) {
    // Every span goes out as Chrome trace JSON, checked by the validator
    // the telemetry tests use for Perfetto-loadable files.
    const std::string Chrome = R.Spans.toChromeJson();
    std::string Why;
    if (!telemetry::validateChromeTraceJson(Chrome, &Why) ||
        !writeFile(Stem + ".perfetto.json", Chrome))
      R.fail("span timeline not written: " + Why);
    R.detail("timeline", quote(Stem + ".perfetto.json"));
  }
  if (!Opts.Trace)
    for (const MetricDef &M : EndToEnd)
      if (!R.metrics().count(M.Name))
        R.fail(std::string(M.Name) + " was not measured");
  const double ErrorRate =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1.0;
  R.metric("error_rate", ErrorRate);
  const bool Correct = R.Attempted > 0 && R.Failed == 0;
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "check failed: %s\n", E.c_str());

  std::string Doc = "{\"schema\": \"literace.pipebench.v1\", \"workload\": " +
                    quote(Opts.Workload) +
                    ", \"seed\": " + std::to_string(Opts.Seed) +
                    ", \"seconds\": " + jsonNumber(Opts.Seconds) +
                    ", \"trace\": " + (Opts.Trace ? "true" : "false") +
                    ", \"correct\": " + (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"fingerprint\": {";
  bool First = true;
  for (const auto &[K, V] : hostFingerprint()) {
    Doc += (First ? "" : ", ") + quote(K) + ": " + quote(V);
    First = false;
  }
  Doc += "}, \"error_rate\": " + jsonNumber(ErrorRate) + ", \"errors\": [";
  for (size_t I = 0; I != R.Errors.size(); ++I)
    Doc += (I ? ", " : "") + quote(R.Errors[I]);
  Doc += "], \"details\": {";
  First = true;
  for (const auto &[K, V] : R.Details) {
    Doc += (First ? "" : ", ") + quote(K) + ": " + V;
    First = false;
  }
  const std::string Metrics = metricsJson(R, Opts.Trace);
  Doc += "}, \"metrics\": " + Metrics + "}";
  if (!writeFile(Stem + ".json", Doc))
    std::fprintf(stderr, "warning: cannot write %s.json\n", Stem.c_str());

  std::printf("%s\n", Doc.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
