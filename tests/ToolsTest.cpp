//===-- tests/ToolsTest.cpp - CLI tool end-to-end ---------------------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
// Drives the literace-run / literace-report binaries as a user would:
// record a workload to disk, analyze the log with each detector backend,
// and check exit codes and output. Tool paths are injected by CMake.
//
//===----------------------------------------------------------------------===//

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <map>
#include <cerrno>
#include <set>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#ifndef LITERACE_TOOL_DIR
#error "CMake must define LITERACE_TOOL_DIR"
#endif

namespace {

/// Runs a command, capturing stdout+stderr; returns {exit code, output}.
std::pair<int, std::string> runCommand(const std::string &Command) {
  std::string Full = Command + " 2>&1";
  std::FILE *Pipe = popen(Full.c_str(), "r");
  if (!Pipe)
    return {-1, ""};
  std::string Output;
  std::array<char, 512> Buffer;
  while (std::fgets(Buffer.data(), Buffer.size(), Pipe))
    Output += Buffer.data();
  int Status = pclose(Pipe);
  // A tool dying on a signal (the crash-injection tests) surfaces as
  // 128+sig, matching what a shell reports.
  if (WIFSIGNALED(Status))
    return {128 + WTERMSIG(Status), Output};
  return {WEXITSTATUS(Status), Output};
}

std::string toolPath(const char *Name) {
  return std::string(LITERACE_TOOL_DIR) + "/" + Name;
}

std::string tempLog() {
  return std::string(::testing::TempDir()) + "toolstest.bin";
}

TEST(ToolsTest, RunThenReportFindsRaces) {
  std::string Log = tempLog();
  auto [RunCode, RunOut] = runCommand(toolPath("literace-run") +
                                      " channel " + Log +
                                      " --mode full --scale 0.05");
  ASSERT_EQ(RunCode, 0) << RunOut;
  EXPECT_NE(RunOut.find("Dryad Channel"), std::string::npos);
  EXPECT_NE(RunOut.find("wrote"), std::string::npos);

  auto [RepCode, RepOut] =
      runCommand(toolPath("literace-report") + " " + Log);
  EXPECT_EQ(RepCode, 3) << RepOut; // 3 = races found.
  EXPECT_NE(RepOut.find("static race"), std::string::npos);
  EXPECT_NE(RepOut.find("rare"), std::string::npos);
  std::remove(Log.c_str());
}

TEST(ToolsTest, ReportBackendsAgreeOnRaceCount) {
  std::string Log = tempLog();
  auto [RunCode, RunOut] = runCommand(toolPath("literace-run") +
                                      " concrt-messaging " + Log +
                                      " --mode full --scale 0.05");
  ASSERT_EQ(RunCode, 0) << RunOut;
  auto [HbCode, HbOut] = runCommand(toolPath("literace-report") + " " +
                                    Log + " --quiet");
  auto [FtCode, FtOut] = runCommand(toolPath("literace-report") + " " +
                                    Log + " --quiet --detector fasttrack");
  EXPECT_EQ(HbCode, FtCode);
  // First line of each: "<N> static race(s): ..." — compare the counts.
  EXPECT_EQ(HbOut.substr(0, HbOut.find(' ')),
            FtOut.substr(0, FtOut.find(' ')));
  std::remove(Log.c_str());
}

TEST(ToolsTest, StatsFlagPrintsHottestFunctions) {
  std::string Log = tempLog();
  ASSERT_EQ(runCommand(toolPath("literace-run") + " lkrhash " + Log +
                       " --mode literace --scale 0.02")
                .first,
            0);
  auto [Code, Out] = runCommand(toolPath("literace-report") + " " + Log +
                                " --stats --quiet");
  EXPECT_EQ(Code, 0) << Out; // Micro-benchmark: no races.
  EXPECT_NE(Out.find("hottest functions"), std::string::npos);
  EXPECT_NE(Out.find("events:"), std::string::npos);
  std::remove(Log.c_str());
}

TEST(ToolsTest, BadArgumentsGiveUsage) {
  auto [Code1, Out1] = runCommand(toolPath("literace-run"));
  EXPECT_EQ(Code1, 2);
  EXPECT_NE(Out1.find("usage:"), std::string::npos);

  auto [Code2, Out2] =
      runCommand(toolPath("literace-run") + " not-a-workload /tmp/x.bin");
  EXPECT_EQ(Code2, 2);
  EXPECT_NE(Out2.find("unknown workload"), std::string::npos);

  auto [Code3, Out3] = runCommand(toolPath("literace-report"));
  EXPECT_EQ(Code3, 2);
  EXPECT_NE(Out3.find("usage:"), std::string::npos);

  auto [Code4, Out4] =
      runCommand(toolPath("literace-report") + " /nonexistent/log.bin");
  EXPECT_EQ(Code4, 1);
  EXPECT_NE(Out4.find("not a readable"), std::string::npos);
}

TEST(ToolsTest, SuppressionsChangeTheExitCode) {
  std::string Log = tempLog();
  ASSERT_EQ(runCommand(toolPath("literace-run") + " channel " + Log +
                       " --mode full --scale 0.05")
                .first,
            0);
  // Find all reported sites, write them into a suppression file, and
  // verify the tool then reports a clean exit.
  auto [Code, Out] = runCommand(toolPath("literace-report") + " " + Log);
  ASSERT_EQ(Code, 3) << Out;
  std::string SuppPath = std::string(::testing::TempDir()) + "supp.txt";
  std::FILE *Supp = std::fopen(SuppPath.c_str(), "w");
  ASSERT_NE(Supp, nullptr);
  std::fputs("# triaged as benign diagnostics\n", Supp);
  // Lines look like "  fn4:5 <-> fn8:121  x93"; recover pcs by brute
  // force: suppress every fnN:site token via its numeric pc.
  size_t Position = 0;
  while ((Position = Out.find("fn", Position)) != std::string::npos) {
    unsigned Fn = 0, Site = 0;
    if (std::sscanf(Out.c_str() + Position, "fn%u:%u", &Fn, &Site) == 2)
      std::fprintf(Supp, "0x%llx\n",
                   (static_cast<unsigned long long>(Fn) << 32) | Site);
    ++Position;
  }
  std::fclose(Supp);
  auto [Code2, Out2] = runCommand(toolPath("literace-report") + " " + Log +
                                  " --suppress " + SuppPath + " --quiet");
  EXPECT_EQ(Code2, 0) << Out2;
  EXPECT_NE(Out2.find("after suppressions"), std::string::npos);
  std::remove(Log.c_str());
  std::remove(SuppPath.c_str());
}

TEST(ToolsTest, AnalyzePrintsPolicyAndJustifications) {
  auto [Code, Out] = runCommand(toolPath("literace-analyze") + " lkrhash");
  EXPECT_EQ(Code, 0) << Out;
  // All six declared sites of the stripe-locked table are elidable.
  EXPECT_NE(Out.find("policy: 6/6 sites elidable"), std::string::npos);
  EXPECT_NE(Out.find("lock-consistent"), std::string::npos);
  EXPECT_NE(Out.find("lkr.insert:1"), std::string::npos);
}

TEST(ToolsTest, AnalyzeAuditPassesOnChannel) {
  auto [Code, Out] = runCommand(toolPath("literace-analyze") +
                                " channel --audit --scale 0.04");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("audit passed"), std::string::npos);
  EXPECT_EQ(Out.find("LOST:"), std::string::npos) << Out;
}

TEST(ToolsTest, AnalyzeRejectsUnknownWorkload) {
  auto [Code, Out] = runCommand(toolPath("literace-analyze") + " nope");
  EXPECT_EQ(Code, 2);
  EXPECT_NE(Out.find("usage:"), std::string::npos);
  // The usage error lists the valid workload names (parity with
  // literace-run, which shares the same registry).
  EXPECT_NE(Out.find("workloads:"), std::string::npos);
  EXPECT_NE(Out.find("channel-stdlib"), std::string::npos);
  EXPECT_NE(Out.find("scicompute"), std::string::npos);
  auto [RunCode, RunOut] = runCommand(toolPath("literace-run") + " nope x");
  EXPECT_EQ(RunCode, 2);
  EXPECT_NE(RunOut.find("channel-stdlib"), std::string::npos);
}

TEST(ToolsTest, AnalyzeExplainPrintsTheProofChain) {
  auto [Code, Out] = runCommand(toolPath("literace-analyze") +
                                " channel --explain chan.ring");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("chan.ring: phase-ordered"), std::string::npos);
  EXPECT_NE(Out.find("proof chain"), std::string::npos);
  EXPECT_NE(Out.find("PROVED"), std::string::npos);
  // The chain shows what each earlier pass concluded before mhp fired.
  EXPECT_NE(Out.find("thread-escape:"), std::string::npos);
  EXPECT_NE(Out.find("lockset:"), std::string::npos);

  auto [BadCode, BadOut] = runCommand(toolPath("literace-analyze") +
                                      " channel --explain no.such.var");
  EXPECT_EQ(BadCode, 2);
  EXPECT_NE(BadOut.find("unknown variable"), std::string::npos);
  EXPECT_NE(BadOut.find("chan.ring"), std::string::npos); // Offered names.
}

TEST(ToolsTest, AnalyzeJsonDumpIsWellFormedAndRedirectable) {
  auto [Code, Out] =
      runCommand(toolPath("literace-analyze") + " channel --json");
  EXPECT_EQ(Code, 0) << Out;
  // Bare --json replaces the human report: first byte is the document.
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out[0], '{');
  EXPECT_NE(Out.find("\"workload\": \"channel\""), std::string::npos);
  EXPECT_NE(Out.find("\"verdict\": \"phase-ordered\""), std::string::npos);
  EXPECT_NE(Out.find("\"class\": \"redundant\""), std::string::npos);

  std::string Path = std::string(::testing::TempDir()) + "verdicts.json";
  auto [FileCode, FileOut] = runCommand(
      toolPath("literace-analyze") + " channel --json=" + Path);
  EXPECT_EQ(FileCode, 0) << FileOut;
  // --json=PATH keeps the human report on stdout.
  EXPECT_NE(FileOut.find("Per-variable verdicts"), std::string::npos);
  std::FILE *File = std::fopen(Path.c_str(), "r");
  ASSERT_NE(File, nullptr);
  std::fclose(File);
  std::remove(Path.c_str());
}

TEST(ToolsTest, AnalyzePassesFlagRestrictsTheAnalysis) {
  // With only the lockset pass, Channel's phase-ordered and redundant
  // elisions disappear; the lock-protected queue state survives.
  auto [Code, Out] = runCommand(toolPath("literace-analyze") +
                                " channel --passes lockset");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_EQ(Out.find("phase-ordered"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("(redundant)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("lock-consistent"), std::string::npos);

  auto [AllCode, AllOut] =
      runCommand(toolPath("literace-analyze") + " channel --passes all");
  EXPECT_EQ(AllCode, 0) << AllOut;
  EXPECT_NE(AllOut.find("phase-ordered"), std::string::npos);
  EXPECT_NE(AllOut.find("(redundant)"), std::string::npos);

  auto [BadCode, BadOut] = runCommand(toolPath("literace-analyze") +
                                      " lkrhash --passes bogus");
  EXPECT_EQ(BadCode, 2);
  EXPECT_NE(BadOut.find("unknown pass"), std::string::npos);
}

TEST(ToolsTest, AnalyzeAuditReportsPerPassAttribution) {
  auto [Code, Out] = runCommand(toolPath("literace-analyze") +
                                " channel --audit --scale 0.04");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("per-pass differential audit"), std::string::npos);
  EXPECT_NE(Out.find("mhp"), std::string::npos);
  EXPECT_NE(Out.find("redundancy"), std::string::npos);
  EXPECT_EQ(Out.find("RACE LOST"), std::string::npos) << Out;
}

TEST(ToolsTest, AnalyzeFuzzRunsTheConservatismCheck) {
  auto [Code, Out] =
      runCommand(toolPath("literace-analyze") + " browser-start --fuzz");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("conservatism fuzzer"), std::string::npos);
  EXPECT_NE(Out.find("0 violations"), std::string::npos);
  EXPECT_NE(Out.find("fuzzer passed"), std::string::npos);
}

TEST(ToolsTest, RunElideFlagShrinksTheLog) {
  std::string Log = tempLog();
  std::string Elided = std::string(::testing::TempDir()) + "elided.bin";
  ASSERT_EQ(runCommand(toolPath("literace-run") + " lkrhash " + Log +
                       " --mode full --scale 0.02 --seed 7")
                .first,
            0);
  auto [Code, Out] = runCommand(toolPath("literace-run") + " lkrhash " +
                                Elided +
                                " --mode full --scale 0.02 --seed 7 --elide");
  ASSERT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("static analysis: 6/6 declared sites elided"),
            std::string::npos);
  // Every LKRHash memory op comes from an elided site.
  EXPECT_NE(Out.find(", 0 memory ops"), std::string::npos);

  auto [NoElideCode, NoElideOut] =
      runCommand(toolPath("literace-run") + " lkrhash " + Elided +
                 " --mode full --scale 0.02 --seed 7 --elide --no-elide");
  ASSERT_EQ(NoElideCode, 0) << NoElideOut;
  EXPECT_NE(NoElideOut.find("elision disabled by --no-elide"),
            std::string::npos);
  EXPECT_EQ(NoElideOut.find(", 0 memory ops"), std::string::npos);
  std::remove(Log.c_str());
  std::remove(Elided.c_str());
}

TEST(ToolsTest, FuzzSweepsReportsRecallAndWritesJson) {
  std::string Json = std::string(::testing::TempDir()) + "fuzz.json";
  auto [Code, Out] =
      runCommand(toolPath("literace-fuzz") +
                 " mpmc-queue --seeds 5 --scale 0.01 --json=" + Json);
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("Fuzz recall"), std::string::npos);
  EXPECT_NE(Out.find("mpmc-enq-tally"), std::string::npos);
  EXPECT_NE(Out.find("Per-seed outcomes"), std::string::npos);
  std::FILE *File = std::fopen(Json.c_str(), "r");
  ASSERT_NE(File, nullptr);
  char Buf[4096] = {};
  size_t Got = std::fread(Buf, 1, sizeof(Buf) - 1, File);
  std::fclose(File);
  std::string Doc(Buf, Got);
  EXPECT_NE(Doc.find("\"benchmark\""), std::string::npos);
  EXPECT_NE(Doc.find("\"families\""), std::string::npos);
  std::remove(Json.c_str());
}

TEST(ToolsTest, FuzzReplaysASeedBitForBit) {
  // --check-determinism runs the seed twice with a fresh engine and
  // workload; --seed makes it a repro run (no sweep-level recall gate).
  auto [Code, Out] = runCommand(
      toolPath("literace-fuzz") +
      " task-executor --seed 3 --scale 0.01 --check-determinism");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("identical"), std::string::npos);
}

TEST(ToolsTest, FuzzRejectsUnknownWorkloadWithUsage) {
  auto [Code, Out] = runCommand(toolPath("literace-fuzz") + " nope");
  EXPECT_EQ(Code, 2);
  EXPECT_NE(Out.find("usage:"), std::string::npos);
  EXPECT_NE(Out.find("mpmc-queue"), std::string::npos);
  EXPECT_NE(Out.find("task-executor"), std::string::npos);
}

/// Extracts the integer rendered after \p Name in literace-stat's
/// "  name   value" triage lines; -1 when the line is absent.
long long statValue(const std::string &Out, const std::string &Name) {
  size_t At = Out.find(Name);
  if (At == std::string::npos)
    return -1;
  long long Value = -1;
  std::sscanf(Out.c_str() + At + Name.size(), " %lld", &Value);
  return Value;
}

TEST(ToolsTest, StatEndToEndOnBrowserWorkload) {
  std::string Log = tempLog();
  std::string MetricsOut = std::string(::testing::TempDir()) + "metrics.json";
  std::string TraceOut = std::string(::testing::TempDir()) + "trace.json";
  auto [RunCode, RunOut] =
      runCommand(toolPath("literace-run") + " browser-start " + Log +
                 " --mode literace --scale 0.5 --elide");
  ASSERT_EQ(RunCode, 0) << RunOut;
  // literace-run leaves a metrics sidecar next to the log.
  EXPECT_NE(RunOut.find(".metrics.json"), std::string::npos);

  auto [Code, Out] = runCommand(toolPath("literace-stat") + " " + Log +
                                " --json " + MetricsOut +
                                " --perfetto " + TraceOut);
  ASSERT_EQ(Code, 0) << Out;
  // The acceptance triple: nonzero sampled, unsampled, and elided
  // counters from the recording runtime's sidecar.
  EXPECT_GT(statValue(Out, "runtime.sampled_activations"), 0) << Out;
  EXPECT_GT(statValue(Out, "runtime.unsampled_activations"), 0) << Out;
  EXPECT_GT(statValue(Out, "runtime.memops_elided"), 0) << Out;
  // Trace-derived metrics join the same snapshot.
  EXPECT_GT(statValue(Out, "trace.events"), 0) << Out;
  EXPECT_NE(Out.find("hottest functions"), std::string::npos);

  // Both artifacts exist; the Perfetto file was validated structurally by
  // the tool itself before writing (it refuses to emit invalid JSON).
  std::FILE *Metrics = std::fopen(MetricsOut.c_str(), "r");
  ASSERT_NE(Metrics, nullptr);
  std::fclose(Metrics);
  std::FILE *Trace = std::fopen(TraceOut.c_str(), "r");
  ASSERT_NE(Trace, nullptr);
  std::fclose(Trace);
  EXPECT_NE(Out.find("ui.perfetto.dev"), std::string::npos);

  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
  std::remove(MetricsOut.c_str());
  std::remove(TraceOut.c_str());
}

TEST(ToolsTest, StatWithoutSidecarStillProfilesTheTrace) {
  std::string Log = tempLog();
  // Kill switch: no telemetry, hence no sidecar written.
  ASSERT_EQ(runCommand("LITERACE_TELEMETRY=off " + toolPath("literace-run") +
                       " channel " + Log + " --mode literace --scale 0.05")
                .first,
            0);
  std::FILE *Sidecar = std::fopen((Log + ".metrics.json").c_str(), "r");
  EXPECT_EQ(Sidecar, nullptr) << "kill switch must suppress the sidecar";
  if (Sidecar)
    std::fclose(Sidecar);

  auto [Code, Out] = runCommand(toolPath("literace-stat") + " " + Log);
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_GT(statValue(Out, "trace.events"), 0) << Out;
  EXPECT_NE(Out.find("no runtime sidecar"), std::string::npos);
  std::remove(Log.c_str());
}

TEST(ToolsTest, ReportMetricsFlagWritesSnapshot) {
  std::string Log = tempLog();
  // --metrics takes a directory; both artifacts land inside it.
  std::string MetricsDir = ::testing::TempDir();
  std::string MetricsOut = MetricsDir + "/metrics.json";
  std::string TraceOut = MetricsDir + "/trace.perfetto.json";
  ASSERT_EQ(runCommand(toolPath("literace-run") + " concrt-scheduling " +
                       Log + " --mode literace --scale 0.05")
                .first,
            0);
  // The detector-plane counters fold into the process registry and
  // hence into metrics.json.
  auto [Code, Out] = runCommand(toolPath("literace-report") + " " + Log +
                                " --quiet --metrics " + MetricsDir);
  EXPECT_LE(Code, 3) << Out; // Races may or may not be found.
  std::FILE *Metrics = std::fopen(MetricsOut.c_str(), "r");
  ASSERT_NE(Metrics, nullptr);
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Metrics)) != 0)
    Data.append(Buf, N);
  std::fclose(Metrics);
  EXPECT_NE(Data.find("literace.metrics.v1"), std::string::npos);
  EXPECT_NE(Data.find("detector."), std::string::npos);
  std::FILE *Trace = std::fopen(TraceOut.c_str(), "r");
  ASSERT_NE(Trace, nullptr);
  std::fclose(Trace);
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
  std::remove(MetricsOut.c_str());
  std::remove(TraceOut.c_str());
}

// v1 is no longer written: asking for it is a usage error, with or
// without a collector connection, and records nothing.
TEST(ToolsTest, V1FormatFlagIsAUsageError) {
  const std::string Log = tempLog();
  std::remove(Log.c_str());
  for (const char *Extra : {"", " --connect /tmp/nowhere.sock"}) {
    auto [Code, Out] =
        runCommand(toolPath("literace-run") + " channel " + Log +
                   " --scale 0.05 --format v1" + Extra);
    EXPECT_EQ(Code, 2) << Out;
    EXPECT_NE(Out.find("unknown format 'v1'"), std::string::npos) << Out;
    EXPECT_NE(Out.find("usage:"), std::string::npos) << Out;
    struct stat St;
    EXPECT_NE(::stat(Log.c_str(), &St), 0) << "a log was written";
  }
}

// Files in the retired v1 formats, built by hand (a header and one
// record): both tools refuse them as unreadable, naming the format.
TEST(ToolsTest, FsckAndReportRefuseRetiredV1Files) {
  const std::string Log = tempLog();
  const uint64_t RawMagic = 0x4C695465526163ULL;
  const uint64_t CompressedMagic = 0x4C52436F6D7001ULL;
  const uint32_t RawHeader[2] = {1, 128};        // version, counters
  const uint32_t CompressedHeader[2] = {128, 1}; // counters, threads
  for (const bool Compressed : {false, true}) {
    const std::string Where = Compressed ? "v1 compressed" : "v1 raw";
    std::FILE *F = std::fopen(Log.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fwrite(Compressed ? &CompressedMagic : &RawMagic, 8, 1, F);
    std::fwrite(Compressed ? CompressedHeader : RawHeader, 8, 1, F);
    const uint8_t Body[40] = {}; // a chunk header and one zero record
    std::fwrite(Body, 1, sizeof(Body), F);
    std::fclose(F);
    auto [FsckCode, FsckOut] =
        runCommand(toolPath("literace-fsck") + " " + Log);
    EXPECT_EQ(FsckCode, 1) << Where << ": " << FsckOut;
    EXPECT_NE(FsckOut.find("unreadable"), std::string::npos) << FsckOut;
    EXPECT_NE(FsckOut.find("v1 trace format"), std::string::npos) << FsckOut;
    auto [RepCode, RepOut] =
        runCommand(toolPath("literace-report") + " " + Log);
    EXPECT_EQ(RepCode, 1) << Where << ": " << RepOut;
    EXPECT_NE(RepOut.find("v1 trace format"), std::string::npos) << RepOut;
  }
  std::remove(Log.c_str());
}

// literace-report reads a named pipe as it reads the file: same report,
// same exit code. The pipe cannot be seeked or sized up front.
TEST(ToolsTest, ReportReadsANamedPipe) {
  const std::string Log = tempLog();
  const std::string Fifo = std::string(::testing::TempDir()) + "toolstest.fifo";
  ASSERT_EQ(runCommand(toolPath("literace-run") + " channel " + Log +
                       " --mode full --scale 0.05")
                .first,
            0);
  std::remove(Fifo.c_str());
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  // stderr carries the path and the timing line; compare stdout only.
  auto [FileCode, FileOut] = runCommand(
      "(" + toolPath("literace-report") + " " + Log + " 2>/dev/null)");
  auto [PipeCode, PipeOut] =
      runCommand("(cat " + Log + " > " + Fifo + " & " +
                 toolPath("literace-report") + " " + Fifo + " 2>/dev/null)");
  EXPECT_EQ(FileCode, 3) << FileOut;
  EXPECT_EQ(PipeCode, FileCode) << PipeOut;
  EXPECT_EQ(PipeOut, FileOut);
  std::remove(Fifo.c_str());
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
}

// --stats prints one line per stage (read, profile, detect, render);
// their wall times add up to the tool's own ("stage total"), and the read
// line carries the bytes read and the read's minor page faults.
TEST(ToolsTest, ReportStatsTimesEveryStage) {
  const std::string Log = tempLog();
  ASSERT_EQ(runCommand(toolPath("literace-run") + " channel " + Log +
                       " --mode full --scale 0.05")
                .first,
            0);
  auto [Code, Out] =
      runCommand(toolPath("literace-report") + " " + Log + " --stats --quiet");
  EXPECT_EQ(Code, 3) << Out;
  std::map<std::string, double> WallMs;
  for (const char *Stage : {"read", "profile", "detect", "render", "total"}) {
    const std::string Tag = std::string("stage ") + Stage + ": ";
    const size_t At = Out.find(Tag);
    ASSERT_NE(At, std::string::npos) << Stage << "\n" << Out;
    const std::string Line = Out.substr(At, Out.find('\n', At) - At);
    const size_t Wall = Line.find(" ms wall");
    ASSERT_NE(Wall, std::string::npos) << Line;
    WallMs[Stage] = std::atof(Line.c_str() + Line.rfind(' ', Wall - 1) + 1);
    EXPECT_NE(Line.find(" ms cpu"), std::string::npos) << Line;
    if (std::string(Stage) == "read") {
      EXPECT_NE(Line.find(" MB, "), std::string::npos) << Line;
      EXPECT_NE(Line.find(" minor faults"), std::string::npos) << Line;
    }
  }
  const double Sum = WallMs["read"] + WallMs["profile"] + WallMs["detect"] +
                     WallMs["render"];
  // Each figure is printed to 0.1 ms.
  EXPECT_LE(Sum, WallMs["total"] + 0.2) << Out;
  EXPECT_GE(Sum, 0.9 * WallMs["total"] - 0.2) << Out;
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
}

TEST(ToolsTest, FsckPassesCleanLogsOfEveryFormat) {
  for (const char *Format : {"v2", "v2z"}) {
    std::string Log = tempLog();
    ASSERT_EQ(runCommand(toolPath("literace-run") + " channel " + Log +
                         " --scale 0.05 --format " + Format)
                  .first,
              0)
        << Format;
    auto [Code, Out] = runCommand(toolPath("literace-fsck") + " " + Log);
    EXPECT_EQ(Code, 0) << Format << ": " << Out;
    EXPECT_NE(Out.find("clean"), std::string::npos) << Format;
    std::remove(Log.c_str());
    std::remove((Log + ".metrics.json").c_str());
  }
}

TEST(ToolsTest, RunSummaryPrintsTheSizeOnDisk) {
  // v2z encodes several-fold below the raw record bytes, so the summary
  // line is only right if it reports the closed file's size.
  std::string Log = tempLog();
  auto [Code, Out] = runCommand(toolPath("literace-run") + " channel " + Log +
                                " --mode full --scale 0.05 --format v2z");
  ASSERT_EQ(Code, 0) << Out;
  const std::string Tag = "(v2z): ";
  const size_t At = Out.find(Tag);
  ASSERT_NE(At, std::string::npos) << Out;
  const double PrintedMb = std::atof(Out.c_str() + At + Tag.size());
  struct stat St;
  ASSERT_EQ(::stat(Log.c_str(), &St), 0);
  const double FileMb = static_cast<double>(St.st_size) / 1e6;
  // Printed with one decimal: equal within rounding.
  EXPECT_NEAR(PrintedMb, FileMb, 0.05 + 1e-9) << Out;
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
}

TEST(ToolsTest, FsckRejectsGarbageAndMissingFiles) {
  auto [MissingCode, MissingOut] =
      runCommand(toolPath("literace-fsck") + " /nonexistent/log.bin");
  EXPECT_EQ(MissingCode, 1);
  EXPECT_NE(MissingOut.find("unreadable"), std::string::npos);
  auto [UsageCode, UsageOut] = runCommand(toolPath("literace-fsck"));
  EXPECT_EQ(UsageCode, 2);
  EXPECT_NE(UsageOut.find("usage:"), std::string::npos);
}

TEST(ToolsTest, KilledRunPropagatesTheSignalAndLeavesASalvageableLog) {
  std::string Log = tempLog();
  auto [RunCode, RunOut] =
      runCommand(toolPath("literace-run") + " channel " + Log +
                 " --mode full --scale 1.0 --kill-after-bytes 120000");
  EXPECT_EQ(RunCode, 137) << RunOut; // 128 + SIGKILL.

  // The frames written before the kill are durable and salvageable.
  auto [FsckCode, FsckOut] =
      runCommand(toolPath("literace-fsck") + " " + Log);
  EXPECT_EQ(FsckCode, 4) << FsckOut;
  EXPECT_NE(FsckOut.find("recoverable"), std::string::npos);
  EXPECT_EQ(FsckOut.find("clean shutdown: yes"), std::string::npos);

  // Detection runs on the salvaged subset (default --salvage)…
  auto [RepCode, RepOut] =
      runCommand(toolPath("literace-report") + " " + Log + " --quiet");
  EXPECT_TRUE(RepCode == 0 || RepCode == 3) << RepCode << "\n" << RepOut;
  EXPECT_NE(RepOut.find("salvaged"), std::string::npos) << RepOut;
  // …and --strict refuses the damaged log outright.
  auto [StrictCode, StrictOut] = runCommand(
      toolPath("literace-report") + " " + Log + " --quiet --strict");
  EXPECT_EQ(StrictCode, 1) << StrictOut;

  // CI sets LITERACE_FAULT_ARTIFACT_DIR and uploads it when fault tests
  // fail, so the exact salvaged log and its inventory are attached to
  // the run for post-mortem.
  if (const char *Dir = std::getenv("LITERACE_FAULT_ARTIFACT_DIR")) {
    std::string D(Dir);
    runCommand("mkdir -p " + D + " && cp " + Log + " " + D +
               "/killed.bin");
    runCommand(toolPath("literace-fsck") + " " + Log + " --segments > " +
               D + "/killed.fsck.txt");
  }
  std::remove(Log.c_str());
}

TEST(ToolsTest, AsyncFlushRunIsCleanAndReportsPipelineStats) {
  std::string Log = tempLog();
  auto [RunCode, RunOut] =
      runCommand(toolPath("literace-run") + " channel " + Log +
                 " --mode full --scale 0.05 --flush async");
  ASSERT_EQ(RunCode, 0) << RunOut;
  EXPECT_NE(RunOut.find("async flush (block)"), std::string::npos)
      << RunOut;
  EXPECT_NE(RunOut.find(", 0 dropped,"), std::string::npos) << RunOut;

  // A lossless async run produces a clean, fully-accounted v2 log.
  auto [FsckCode, FsckOut] =
      runCommand(toolPath("literace-fsck") + " " + Log);
  EXPECT_EQ(FsckCode, 0) << FsckOut;
  EXPECT_NE(FsckOut.find("clean"), std::string::npos);
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
}

TEST(ToolsTest, KilledAsyncRunStillLeavesASalvageableLog) {
  // The async acceptance criterion from the crash side: with the flusher
  // between the app and the file, a SIGKILLed run must still salvage —
  // losing at most the chunks in flight at the queue, never corrupting
  // what reached the durable sink.
  std::string Log = tempLog();
  auto [RunCode, RunOut] =
      runCommand(toolPath("literace-run") + " channel " + Log +
                 " --mode full --scale 1.0 --flush async"
                 " --kill-after-bytes 120000");
  EXPECT_EQ(RunCode, 137) << RunOut; // 128 + SIGKILL.

  auto [FsckCode, FsckOut] =
      runCommand(toolPath("literace-fsck") + " " + Log);
  EXPECT_EQ(FsckCode, 4) << FsckOut;
  EXPECT_NE(FsckOut.find("recoverable"), std::string::npos);

  // Detection still works on the salvaged subset.
  auto [RepCode, RepOut] =
      runCommand(toolPath("literace-report") + " " + Log + " --quiet");
  EXPECT_TRUE(RepCode == 0 || RepCode == 3) << RepCode << "\n" << RepOut;
  EXPECT_NE(RepOut.find("salvaged"), std::string::npos) << RepOut;

  if (const char *Dir = std::getenv("LITERACE_FAULT_ARTIFACT_DIR")) {
    std::string D(Dir);
    runCommand("mkdir -p " + D + " && cp " + Log + " " + D +
               "/killed-async.bin");
    runCommand(toolPath("literace-fsck") + " " + Log + " --segments > " +
               D + "/killed-async.fsck.txt");
  }
  std::remove(Log.c_str());
}

TEST(ToolsTest, AbortedRunStillWritesTheMetricsSidecar) {
  std::string Log = tempLog();
  std::string Sidecar = Log + ".metrics.json";
  std::remove(Sidecar.c_str());
  auto [RunCode, RunOut] =
      runCommand(toolPath("literace-run") + " channel " + Log +
                 " --mode full --scale 1.0 --abort-after-bytes 120000");
  EXPECT_EQ(RunCode, 134) << RunOut; // 128 + SIGABRT.
  // SIGABRT is catchable: the crash path flushed the sink and left the
  // sidecar before re-raising.
  std::FILE *F = std::fopen(Sidecar.c_str(), "r");
  EXPECT_NE(F, nullptr) << "crash path must write the sidecar";
  if (F)
    std::fclose(F);
  auto [FsckCode, FsckOut] =
      runCommand(toolPath("literace-fsck") + " " + Log + " --segments");
  EXPECT_EQ(FsckCode, 4) << FsckOut;
  std::remove(Log.c_str());
  std::remove(Sidecar.c_str());
}

//===----------------------------------------------------------------------===//
// literace-collectd end-to-end (docs/COLLECTOR.md)
//===----------------------------------------------------------------------===//

/// Waits for \p Path to appear on disk (the daemon binding its socket —
/// stat(), because a socket file cannot be fopen()ed).
bool waitForFile(const std::string &Path, int TimeoutMs = 5000) {
  for (int Waited = 0; Waited < TimeoutMs; Waited += 20) {
    struct stat St;
    if (::stat(Path.c_str(), &St) == 0)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::string readWholeFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return "";
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
    Data.append(Buf, N);
  std::fclose(File);
  return Data;
}

/// Extracts every "fnA:B <-> fnC:D  xN" race line from tool output as a
/// set of "pair count" strings — the comparison key for live-vs-batch
/// equivalence.
std::set<std::string> raceLines(const std::string &Out) {
  std::set<std::string> Lines;
  size_t At = 0;
  while ((At = Out.find("fn", At)) != std::string::npos) {
    unsigned F1, S1, F2, S2;
    unsigned long long Count;
    if (std::sscanf(Out.c_str() + At, "fn%u:%u <-> fn%u:%u  x%llu", &F1,
                    &S1, &F2, &S2, &Count) == 5) {
      char Key[128];
      std::snprintf(Key, sizeof(Key), "fn%u:%u<->fn%u:%u x%llu", F1, S1,
                    F2, S2, Count);
      Lines.insert(Key);
      At = Out.find('\n', At);
      if (At == std::string::npos)
        break;
    } else {
      ++At;
    }
  }
  return Lines;
}

/// Copies the daemon's final /status and /races dumps into the CI
/// artifact directory when LITERACE_COLLECTOR_ARTIFACT_DIR is set.
void saveCollectorArtifacts(const std::string &StatusJson,
                            const std::string &RacesJson,
                            const std::string &DaemonLog) {
  const char *Dir = std::getenv("LITERACE_COLLECTOR_ARTIFACT_DIR");
  if (!Dir)
    return;
  std::string D(Dir);
  runCommand("mkdir -p " + D);
  runCommand("cp " + StatusJson + " " + D + "/ 2>/dev/null; cp " +
             RacesJson + " " + D + "/ 2>/dev/null; cp " + DaemonLog + " " +
             D + "/ 2>/dev/null");
}

TEST(CollectdEndToEnd, ConcurrentClientsMatchBatchReports) {
  const std::string Dir = ::testing::TempDir();
  const std::string Socket = Dir + "collectd-e2e.sock";
  const std::string StatusJson = Dir + "collectd-status.json";
  const std::string RacesJson = Dir + "collectd-races.json";
  const std::string DaemonLog = Dir + "collectd-daemon.log";
  std::remove(Socket.c_str());

  // The daemon, backgrounded in its own thread; --exit-after-clients
  // turns it into a self-terminating fixture.
  constexpr int NumClients = 4;
  std::thread Daemon([&] {
    runCommand(toolPath("literace-collectd") + " " + Socket +
               " --exit-after-clients " + std::to_string(NumClients) +
               " --rate-limit 0 --status-json " + StatusJson +
               " --races-json " + RacesJson + " > " + DaemonLog + " 2>&1");
  });
  ASSERT_TRUE(waitForFile(Socket)) << readWholeFile(DaemonLog);

  // Four concurrent clients: two workloads with different races, each
  // recorded twice with the same seed, all streaming while writing their
  // file sink through the tee.
  const char *Workloads[NumClients] = {"channel", "channel",
                                       "concrt-messaging",
                                       "concrt-messaging"};
  std::vector<std::string> Logs(NumClients);
  std::vector<std::thread> Clients;
  for (int I = 0; I < NumClients; ++I) {
    Logs[I] = Dir + "collectd-client" + std::to_string(I) + ".bin";
    Clients.emplace_back([&, I] {
      auto [Code, Out] = runCommand(
          toolPath("literace-run") + " " + std::string(Workloads[I]) + " " +
          Logs[I] + " --mode full --scale 0.05 --seed 11 --connect " +
          Socket);
      EXPECT_EQ(Code, 0) << Out;
      EXPECT_NE(Out.find("streamed the trace to collector"),
                std::string::npos)
          << Out;
    });
  }
  for (std::thread &C : Clients)
    C.join();
  Daemon.join();

  const std::string DaemonOut = readWholeFile(DaemonLog);
  saveCollectorArtifacts(StatusJson, RacesJson, DaemonLog);
  ASSERT_TRUE(waitForFile(StatusJson)) << DaemonOut;

  // Ground truth: batch-replay the four file sinks through one detection
  // and merge — the tee guarantees byte-identical streams, so the live
  // deduped set must match exactly, counts included.
  std::map<std::string, unsigned long long> Batch;
  for (int I = 0; I < NumClients; ++I) {
    auto [Code, Out] =
        runCommand(toolPath("literace-report") + " " + Logs[I]);
    EXPECT_EQ(Code, 3) << Out; // Both workloads race.
    for (const std::string &Line : raceLines(Out)) {
      const size_t Space = Line.rfind(" x");
      Batch[Line.substr(0, Space)] +=
          std::strtoull(Line.c_str() + Space + 2, nullptr, 10);
    }
  }
  ASSERT_FALSE(Batch.empty());
  std::set<std::string> BatchSet;
  for (const auto &[Pair, Count] : Batch)
    BatchSet.insert(Pair + " x" + std::to_string(Count));

  // The daemon's final summary lists every triaged race with its total.
  // Drop the live "race: ..." update lines first — they carry running
  // (partial) counts by design.
  std::string Summary;
  size_t LineStart = 0;
  while (LineStart < DaemonOut.size()) {
    size_t LineEnd = DaemonOut.find('\n', LineStart);
    if (LineEnd == std::string::npos)
      LineEnd = DaemonOut.size();
    const std::string Line =
        DaemonOut.substr(LineStart, LineEnd - LineStart);
    if (Line.compare(0, 5, "race:") != 0)
      Summary += Line + "\n";
    LineStart = LineEnd + 1;
  }
  EXPECT_EQ(raceLines(Summary), BatchSet) << DaemonOut;
  EXPECT_NE(DaemonOut.find("collected 4 session(s)"), std::string::npos)
      << DaemonOut;

  // The JSON artifacts carry their schemas and the session accounting.
  const std::string Status = readWholeFile(StatusJson);
  EXPECT_NE(Status.find("\"schema\": \"literace.status.v1\""),
            std::string::npos);
  EXPECT_NE(Status.find("\"completed\": 4"), std::string::npos) << Status;
  EXPECT_NE(Status.find("\"clean\": 4"), std::string::npos) << Status;
  const std::string Races = readWholeFile(RacesJson);
  EXPECT_NE(Races.find("\"schema\": \"literace.races.v1\""),
            std::string::npos);

  for (int I = 0; I < NumClients; ++I) {
    std::remove(Logs[I].c_str());
    std::remove((Logs[I] + ".metrics.json").c_str());
  }
  std::remove(StatusJson.c_str());
  std::remove(RacesJson.c_str());
  std::remove(DaemonLog.c_str());
}

/// The end-to-end durability proof (docs/ROBUSTNESS.md): the daemon
/// SIGKILLs itself mid-session at a seeded byte threshold, a second life
/// recovers the spool directory, the client rides through on its own
/// spool-and-reconnect, and the recovered live race set must match a
/// batch literace-report over the client's primary log exactly — counts
/// included — with the client admitting zero loss (--connect-strict
/// exit 0). Afterwards literace-fsck --spool audits the directory clean.
TEST(CollectdEndToEnd, DaemonKillRestartRecoversExactly) {
  const std::string Dir = ::testing::TempDir();
  const std::string Socket = Dir + "collectd-kill.sock";
  const std::string SpoolDir = Dir + "collectd-kill-spool";
  const std::string Log = Dir + "collectd-kill.bin";
  const std::string StatusJson = Dir + "collectd-kill-status.json";
  const std::string RacesJson = Dir + "collectd-kill-races.json";
  const std::string Daemon1Log = Dir + "collectd-kill-d1.log";
  const std::string Daemon2Log = Dir + "collectd-kill-d2.log";
  std::remove(Socket.c_str());
  runCommand("rm -rf " + SpoolDir);

  // Life 1: journals to the spool, then SIGKILLs itself once 300000
  // bytes have been ingested — deterministically mid-session for this
  // workload/scale (the stream is several MB).
  std::thread Daemon1([&] {
    runCommand(toolPath("literace-collectd") + " " + Socket +
               " --spool-dir " + SpoolDir +
               " --ack-every-bytes 4096 --checkpoint-every 8" +
               " --rate-limit 0 --kill-after-bytes 300000 > " + Daemon1Log +
               " 2>&1");
  });
  ASSERT_TRUE(waitForFile(Socket)) << readWholeFile(Daemon1Log);

  // The client starts against life 1 and must outlive the kill: its
  // spool absorbs the outage, reconnects reach life 2, and strict mode
  // makes any byte loss a hard failure.
  int ClientCode = -1;
  std::string ClientOut;
  std::thread Client([&] {
    std::tie(ClientCode, ClientOut) = runCommand(
        toolPath("literace-run") + " channel " + Log +
        " --mode full --scale 0.05 --seed 7 --connect " + Socket +
        " --connect-strict --connect-drain-ms 20000");
  });

  Daemon1.join(); // dies by its own SIGKILL at the byte threshold
  EXPECT_EQ(runCommand("test -d " + SpoolDir).first, 0);

  // Life 2: recovers the journal + checkpoint, lets the client resume,
  // and finishes the session normally.
  std::thread Daemon2([&] {
    runCommand(toolPath("literace-collectd") + " " + Socket +
               " --spool-dir " + SpoolDir +
               " --ack-every-bytes 4096 --rate-limit 0" +
               " --exit-after-clients 1 --status-json " + StatusJson +
               " --races-json " + RacesJson + " > " + Daemon2Log + " 2>&1");
  });
  Client.join();
  Daemon2.join();

  const std::string Daemon2Out = readWholeFile(Daemon2Log);
  saveCollectorArtifacts(StatusJson, RacesJson, Daemon2Log);
  EXPECT_EQ(ClientCode, 0) << ClientOut;
  EXPECT_NE(ClientOut.find("streamed the trace to collector"),
            std::string::npos)
      << ClientOut;
  EXPECT_NE(ClientOut.find("reconnect(s)"), std::string::npos) << ClientOut;

  // Ground truth: batch-report the client's primary log. The recovered
  // live set must be identical, counts included.
  auto [RepCode, RepOut] = runCommand(toolPath("literace-report") + " " + Log);
  EXPECT_EQ(RepCode, 3) << RepOut;
  const std::set<std::string> BatchSet = raceLines(RepOut);
  ASSERT_FALSE(BatchSet.empty());
  std::string Summary;
  size_t LineStart = 0;
  while (LineStart < Daemon2Out.size()) {
    size_t LineEnd = Daemon2Out.find('\n', LineStart);
    if (LineEnd == std::string::npos)
      LineEnd = Daemon2Out.size();
    const std::string Line =
        Daemon2Out.substr(LineStart, LineEnd - LineStart);
    if (Line.compare(0, 5, "race:") != 0)
      Summary += Line + "\n";
    LineStart = LineEnd + 1;
  }
  EXPECT_EQ(raceLines(Summary), BatchSet) << Daemon2Out;
  EXPECT_NE(Daemon2Out.find("collected 1 session(s)"), std::string::npos)
      << Daemon2Out;

  // The spool directory ends consistent: journal unlinked at session
  // finish, checkpoint present — fsck audits it clean.
  auto [FsckCode, FsckOut] =
      runCommand(toolPath("literace-fsck") + " --spool " + SpoolDir);
  EXPECT_EQ(FsckCode, 0) << FsckOut;
  EXPECT_NE(FsckOut.find("checkpoint:     ok"), std::string::npos)
      << FsckOut;

  if (const char *ArtifactDir =
          std::getenv("LITERACE_COLLECTOR_ARTIFACT_DIR")) {
    std::string D(ArtifactDir);
    runCommand("mkdir -p " + D + " && cp -r " + SpoolDir + " " + D +
               "/ 2>/dev/null; cp " + Daemon1Log + " " + D + "/ 2>/dev/null");
  }
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
  std::remove(StatusJson.c_str());
  std::remove(RacesJson.c_str());
  std::remove(Daemon1Log.c_str());
  std::remove(Daemon2Log.c_str());
  runCommand("rm -rf " + SpoolDir);
}

/// --connect-strict with no reachable collector and a spool cap small
/// enough to overflow: the run itself succeeds (the tee never degrades
/// the primary sink) but the tool exits nonzero and admits the loss in
/// both the console warning and the metrics sidecar.
TEST(CollectdEndToEnd, ConnectStrictFailsClosedWhenCollectorUnreachable) {
  const std::string Dir = ::testing::TempDir();
  const std::string Log = Dir + "collectd-strict.bin";
  auto [Code, Out] = runCommand(
      toolPath("literace-run") + " channel " + Log +
      " --mode full --scale 0.05 --seed 7 --connect " + Dir +
      "no-such-collector.sock --connect-strict" +
      " --connect-spool-cap 65536 --connect-drain-ms 100");
  EXPECT_EQ(Code, 1) << Out;
  EXPECT_NE(Out.find("byte(s) lost"), std::string::npos) << Out;
  // The primary log is still complete and reportable.
  auto [RepCode, RepOut] = runCommand(toolPath("literace-report") + " " + Log);
  EXPECT_EQ(RepCode, 3) << RepOut;
  // Loss is always accounted in the sidecar.
  const std::string Sidecar = readWholeFile(Log + ".metrics.json");
  EXPECT_NE(Sidecar.find("sink.tee.lost_bytes"), std::string::npos)
      << Sidecar;
  EXPECT_NE(Sidecar.find("sink.tee.cap_hits"), std::string::npos) << Sidecar;
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
}

/// Streams the bytes of \p FilePath into the AF_UNIX socket at
/// \p SocketPath and closes the connection — a minimal raw-POSIX stand-in
/// for a `literace-run --connect` client, used to replay a recorded log
/// byte-for-byte into a daemon.
bool streamFileToSocket(const std::string &FilePath,
                        const std::string &SocketPath) {
  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                SocketPath.c_str());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return false;
  }
  std::FILE *File = std::fopen(FilePath.c_str(), "rb");
  if (!File) {
    ::close(Fd);
    return false;
  }
  char Buf[4096];
  size_t N;
  bool Ok = true;
  while (Ok && (N = std::fread(Buf, 1, sizeof(Buf), File)) != 0) {
    size_t At = 0;
    while (At < N) {
      const ssize_t Sent = ::send(Fd, Buf + At, N - At, MSG_NOSIGNAL);
      if (Sent < 0) {
        if (errno == EINTR)
          continue;
        Ok = false;
        break;
      }
      At += static_cast<size_t>(Sent);
    }
  }
  std::fclose(File);
  ::close(Fd);
  return Ok;
}

TEST(CollectdEndToEnd, SuppressionFileSilencesTheRaces) {
  const std::string Dir = ::testing::TempDir();
  const std::string Socket = Dir + "collectd-supp.sock";
  const std::string Log = Dir + "collectd-supp.bin";
  const std::string SuppPath = Dir + "collectd-supp.txt";
  std::remove(Socket.c_str());

  // Pass 1: record once, report the races offline.
  ASSERT_EQ(runCommand(toolPath("literace-run") + " channel " + Log +
                       " --mode full --scale 0.05 --seed 5")
                .first,
            0);
  auto [RepCode, RepOut] =
      runCommand(toolPath("literace-report") + " " + Log);
  ASSERT_EQ(RepCode, 3) << RepOut;

  // Build a suppression file covering every reported site pair.
  std::FILE *Supp = std::fopen(SuppPath.c_str(), "w");
  ASSERT_NE(Supp, nullptr);
  int Entry = 0;
  for (const std::string &Line : raceLines(RepOut)) {
    unsigned F1, S1, F2, S2;
    ASSERT_EQ(std::sscanf(Line.c_str(), "fn%u:%u<->fn%u:%u", &F1, &S1, &F2,
                          &S2),
              4);
    std::fprintf(Supp,
                 "{\n  triaged-%d\n  LiteRace:Race\n"
                 "  site:fn%u:%u\n  site:fn%u:%u\n}\n",
                 Entry++, F1, S1, F2, S2);
  }
  std::fclose(Supp);
  ASSERT_GT(Entry, 0);

  // Pass 2: replay the exact recorded bytes into a daemon loaded with
  // the suppressions — same races, but now every one is silenced, the
  // exit code drops to 0, and the Valgrind-style usage accounting names
  // each entry.
  const std::string DaemonLog = Dir + "collectd-supp-daemon.log";
  std::thread Daemon([&] {
    runCommand(toolPath("literace-collectd") + " " + Socket +
               " --exit-after-clients 1 --suppressions " + SuppPath +
               " > " + DaemonLog + " 2>&1");
  });
  ASSERT_TRUE(waitForFile(Socket));
  EXPECT_TRUE(streamFileToSocket(Log, Socket));
  Daemon.join();

  const std::string DaemonOut = readWholeFile(DaemonLog);
  EXPECT_NE(DaemonOut.find("0 unsuppressed"), std::string::npos)
      << DaemonOut;
  EXPECT_NE(DaemonOut.find("used suppression:"), std::string::npos)
      << DaemonOut;
  EXPECT_NE(DaemonOut.find("triaged-0"), std::string::npos) << DaemonOut;

  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
  std::remove(SuppPath.c_str());
  std::remove(DaemonLog.c_str());
}

TEST(ToolsTest, StatPrometheusFlagEmitsValidExposition) {
  std::string Log = tempLog();
  std::string PromOut = std::string(::testing::TempDir()) + "stat.prom";
  ASSERT_EQ(runCommand(toolPath("literace-run") + " browser-start " + Log +
                       " --mode literace --scale 0.5")
                .first,
            0);
  auto [Code, Out] = runCommand(toolPath("literace-stat") + " " + Log +
                                " --prometheus " + PromOut);
  ASSERT_EQ(Code, 0) << Out;
  const std::string Text = readWholeFile(PromOut);
  ASSERT_FALSE(Text.empty());
  // Spot-check the exposition shape; the tool already self-validated it
  // against the full grammar before writing.
  EXPECT_NE(Text.find("# TYPE literace_trace_events_total counter"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("literace_capture_info{"), std::string::npos)
      << "runtime sidecars are capture-stamped";
  // "-" streams the document to stdout instead.
  auto [StdoutCode, StdoutOut] = runCommand(
      toolPath("literace-stat") + " " + Log + " --prometheus - 2>/dev/null");
  EXPECT_EQ(StdoutCode, 0);
  EXPECT_NE(StdoutOut.find("# TYPE"), std::string::npos);
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
  std::remove(PromOut.c_str());
}

TEST(ToolsTest, MetricsSidecarCarriesTheCaptureStamp) {
  std::string Log = tempLog();
  ASSERT_EQ(runCommand(toolPath("literace-run") + " channel " + Log +
                       " --mode literace --scale 0.05")
                .first,
            0);
  const std::string Sidecar = readWholeFile(Log + ".metrics.json");
  ASSERT_FALSE(Sidecar.empty());
  EXPECT_NE(Sidecar.find("\"schema\": \"literace.metrics.v1\""),
            std::string::npos);
  // The additive meta block: capture wall-clock and emitting pid.
  EXPECT_NE(Sidecar.find("\"meta\""), std::string::npos) << Sidecar;
  EXPECT_NE(Sidecar.find("\"captured_unix_ms\""), std::string::npos);
  EXPECT_NE(Sidecar.find("\"pid\""), std::string::npos);
  std::remove(Log.c_str());
  std::remove((Log + ".metrics.json").c_str());
}

TEST(ToolsTest, LocksetBackendWarnsAboutImprecision) {
  std::string Log = tempLog();
  ASSERT_EQ(runCommand(toolPath("literace-run") + " httpd-2 " + Log +
                       " --mode full --scale 0.02")
                .first,
            0);
  auto [Code, Out] = runCommand(toolPath("literace-report") + " " + Log +
                                " --quiet --detector lockset");
  (void)Code; // Lockset may or may not flag something; both fine.
  EXPECT_NE(Out.find("FALSE"), std::string::npos);
  std::remove(Log.c_str());
}

} // namespace
