//===-- harness/FuzzExperiment.cpp - Schedule-fuzz sweeps ----------------===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/FuzzExperiment.h"

#include "detector/FastTrackDetector.h"
#include "detector/HBDetector.h"
#include "fuzz/TraceCanon.h"
#include "support/TableFormatter.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <set>

using namespace literace;

FuzzRunArtifacts literace::executeFuzzRun(Workload &W,
                                          const WorkloadParams &Params,
                                          const PerturbOptions &Perturb) {
  MemorySink Sink(/*NumTimestampCounters=*/128);
  RuntimeConfig Config;
  Config.Mode = RunMode::Experiment;
  Config.Seed = Params.Seed;
  // Telemetry's process-global registry would make successive fuzz runs
  // observably different; the engine needs every run bit-reproducible.
  Config.DisableTelemetry = true;
  Runtime RT(Config, &Sink);
  ScheduleEngine Engine(Perturb);
  // Must precede every ThreadContext; bind() registers functions only.
  RT.installPerturber(&Engine);
  RT.addStandardSamplers();
  W.bind(RT);
  W.run(RT, Params);

  FuzzRunArtifacts Run;
  Run.TraceData = Sink.takeTrace();
  Run.Stats = RT.stats();
  Run.Schedule = Engine.stats();
  Run.CanonicalDigest = canonicalizeTrace(Run.TraceData).Digest;
  for (unsigned Slot = 0; Slot != RT.numSamplers(); ++Slot)
    Run.SamplerNames.push_back(RT.sampler(Slot).shortName());
  return Run;
}

namespace {

/// True when \p Report holds a race with both sites inside \p Spec.
bool familyDetected(const RaceReport &Report, const SeededRaceSpec &Spec) {
  std::set<Pc> Sites(Spec.Sites.begin(), Spec.Sites.end());
  for (const StaticRace &Race : Report.staticRaces())
    if (Sites.count(Race.Key.first) && Sites.count(Race.Key.second))
      return true;
  return false;
}

/// True when every reported race lies inside some manifest family.
bool allWithinManifest(const RaceReport &Report,
                       const std::vector<SeededRaceSpec> &Manifest) {
  for (const StaticRace &Race : Report.staticRaces()) {
    bool Within = false;
    for (const SeededRaceSpec &Spec : Manifest) {
      std::set<Pc> Sites(Spec.Sites.begin(), Spec.Sites.end());
      if (Sites.count(Race.Key.first) && Sites.count(Race.Key.second)) {
        Within = true;
        break;
      }
    }
    if (!Within)
      return false;
  }
  return true;
}

const char *cliNameOf(WorkloadKind Kind) {
  for (const WorkloadNameEntry &Entry : workloadNameTable())
    if (Entry.Kind == Kind)
      return Entry.Name;
  return "?";
}

} // namespace

double FuzzResult::recall(size_t Family, size_t Slot) const {
  const FuzzFamilyRecall &F = Families[Family];
  if (F.SeedsManifested == 0)
    return 1.0;
  return static_cast<double>(F.SeedsCaughtBySampler[Slot]) /
         static_cast<double>(F.SeedsManifested);
}

std::vector<uint64_t> FuzzResult::weakestSeeds(size_t MaxCount) const {
  size_t Max = 0;
  for (const FuzzSeedOutcome &S : Seeds)
    Max = std::max(Max, S.FamiliesDetected);
  std::vector<const FuzzSeedOutcome *> Weak;
  for (const FuzzSeedOutcome &S : Seeds)
    if (S.FamiliesDetected < Max)
      Weak.push_back(&S);
  std::sort(Weak.begin(), Weak.end(),
            [](const FuzzSeedOutcome *A, const FuzzSeedOutcome *B) {
              if (A->FamiliesDetected != B->FamiliesDetected)
                return A->FamiliesDetected < B->FamiliesDetected;
              return A->Seed < B->Seed;
            });
  std::vector<uint64_t> Out;
  for (const FuzzSeedOutcome *S : Weak) {
    if (Out.size() == MaxCount)
      break;
    Out.push_back(S->Seed);
  }
  return Out;
}

FuzzResult literace::runFuzzSweep(WorkloadKind Kind,
                                  const FuzzSweepOptions &Opts) {
  assert(Opts.NumSeeds >= 1 && "need at least one seed");
  FuzzResult Result;
  Result.Options = Opts;
  Result.WorkloadCliName = cliNameOf(Kind);

  std::vector<double> EsrSums;

  for (unsigned I = 0; I != Opts.NumSeeds; ++I) {
    const uint64_t Seed = Opts.FirstSeed + I;
    std::unique_ptr<Workload> W = makeWorkload(Kind);
    WorkloadParams Params;
    Params.Scale = Opts.Scale;
    Params.Seed = Seed;
    PerturbOptions Perturb = Opts.Perturb;
    Perturb.Seed = Seed;
    FuzzRunArtifacts Run = executeFuzzRun(*W, Params, Perturb);
    const std::vector<SeededRaceSpec> Manifest = W->seededRaces();

    if (I == 0) {
      Result.Benchmark = W->name();
      Result.SamplerNames = Run.SamplerNames;
      EsrSums.assign(Run.SamplerNames.size(), 0.0);
      for (const SeededRaceSpec &Spec : Manifest) {
        FuzzFamilyRecall F;
        F.Label = Spec.Label;
        F.ExpectFrequent = Spec.ExpectFrequent;
        F.SeedsCaughtBySampler.assign(Run.SamplerNames.size(), 0);
        Result.Families.push_back(std::move(F));
      }
    }

    FuzzSeedOutcome Outcome;
    Outcome.Seed = Seed;
    Outcome.CanonicalDigest = Run.CanonicalDigest;
    Outcome.MemOps = Run.Stats.MemOpsLogged;
    Outcome.Schedule = Run.Schedule;

    // Full-log detection: this schedule's ground truth.
    RaceReport Full;
    Outcome.LogConsistent = detectRaces(Run.TraceData, Full);
    Outcome.StaticRaces = Full.numStaticRaces();
    Outcome.AllWithinSeededSites = allWithinManifest(Full, Manifest);

    std::vector<bool> Manifested(Manifest.size(), false);
    for (size_t F = 0; F != Manifest.size(); ++F) {
      Manifested[F] = familyDetected(Full, Manifest[F]);
      if (Manifested[F]) {
        ++Result.Families[F].SeedsManifested;
        ++Outcome.FamiliesDetected;
      }
    }

    // Per-sampler recall over the same interleaving.
    for (size_t Slot = 0; Slot != Result.SamplerNames.size(); ++Slot) {
      RaceReport Sampled;
      ReplayOptions Options;
      Options.SamplerSlot = static_cast<int>(Slot);
      Outcome.LogConsistent &= detectRaces(Run.TraceData, Sampled, Options);
      for (size_t F = 0; F != Manifest.size(); ++F)
        if (Manifested[F] && familyDetected(Sampled, Manifest[F]))
          ++Result.Families[F].SeedsCaughtBySampler[Slot];
      EsrSums[Slot] +=
          Run.Stats.effectiveSamplingRate(static_cast<unsigned>(Slot));
    }

    // Backend cross-check: FastTrack reports one witness per address, so
    // it must reproduce the HB detector's racy-address set.
    if (Opts.CrossCheckBackends) {
      RaceReport Ft;
      Outcome.LogConsistent &= detectRacesFastTrack(Run.TraceData, Ft);
      Outcome.BackendsAgree = Ft.racyAddresses() == Full.racyAddresses();
    }

    Result.AllLogsConsistent &= Outcome.LogConsistent;
    Result.AllWithinSeededSites &= Outcome.AllWithinSeededSites;
    Result.AllBackendsAgree &= Outcome.BackendsAgree;
    Result.Seeds.push_back(Outcome);
  }

  for (double Sum : EsrSums)
    Result.SamplerEffectiveRates.push_back(
        Sum / static_cast<double>(Opts.NumSeeds));
  return Result;
}

FuzzDeterminismCheck
literace::checkFuzzDeterminism(WorkloadKind Kind, uint64_t Seed,
                               const FuzzSweepOptions &Opts) {
  FuzzDeterminismCheck Check;
  std::set<StaticRaceKey> Keys[2];
  uint32_t Digests[2] = {0, 0};
  size_t Races[2] = {0, 0};
  for (int Rep = 0; Rep != 2; ++Rep) {
    std::unique_ptr<Workload> W = makeWorkload(Kind);
    WorkloadParams Params;
    Params.Scale = Opts.Scale;
    Params.Seed = Seed;
    PerturbOptions Perturb = Opts.Perturb;
    Perturb.Seed = Seed;
    FuzzRunArtifacts Run = executeFuzzRun(*W, Params, Perturb);
    Digests[Rep] = Run.CanonicalDigest;
    RaceReport Report;
    detectRaces(Run.TraceData, Report);
    Keys[Rep] = Report.keys();
    Races[Rep] = Report.numStaticRaces();
  }
  Check.DigestA = Digests[0];
  Check.DigestB = Digests[1];
  Check.RacesA = Races[0];
  Check.RacesB = Races[1];
  Check.Identical = Digests[0] == Digests[1] && Keys[0] == Keys[1];
  return Check;
}

void literace::printFuzzResult(const FuzzResult &R) {
  {
    TableFormatter Table("Fuzz recall — " + R.Benchmark + " (" +
                         std::to_string(R.Options.NumSeeds) + " seeds, base " +
                         std::to_string(R.Options.FirstSeed) + ")");
    std::vector<std::string> Header = {"family", "kind", "manifested"};
    for (const std::string &Name : R.SamplerNames)
      Header.push_back(Name);
    Table.addRow(Header);
    for (size_t F = 0; F != R.Families.size(); ++F) {
      const FuzzFamilyRecall &Fam = R.Families[F];
      std::vector<std::string> Row = {
          Fam.Label, Fam.ExpectFrequent ? "frequent" : "rare",
          std::to_string(Fam.SeedsManifested) + "/" +
              std::to_string(R.Options.NumSeeds)};
      for (size_t Slot = 0; Slot != R.SamplerNames.size(); ++Slot)
        Row.push_back(TableFormatter::percent(R.recall(F, Slot)));
      Table.addRow(Row);
    }
    Table.print();
  }
  {
    TableFormatter Table("Per-seed outcomes");
    Table.addRow({"seed", "digest", "races", "families", "memops",
                  "switches", "consistent", "in-manifest", "backends"});
    for (const FuzzSeedOutcome &S : R.Seeds) {
      char Digest[16];
      std::snprintf(Digest, sizeof(Digest), "%08x", S.CanonicalDigest);
      Table.addRow({std::to_string(S.Seed), Digest,
                    std::to_string(S.StaticRaces),
                    std::to_string(S.FamiliesDetected),
                    std::to_string(S.MemOps),
                    std::to_string(S.Schedule.Switches),
                    S.LogConsistent ? "yes" : "NO",
                    S.AllWithinSeededSites ? "yes" : "NO",
                    S.BackendsAgree ? "yes" : "NO"});
    }
    Table.print();
  }
}

namespace {

void jsonEscape(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\';
    OS << C;
  }
  OS << '"';
}

} // namespace

void literace::writeFuzzJson(const FuzzResult &R, std::ostream &OS) {
  OS << "{\n  \"benchmark\": ";
  jsonEscape(OS, R.Benchmark);
  OS << ",\n  \"workload\": ";
  jsonEscape(OS, R.WorkloadCliName);
  OS << ",\n  \"first_seed\": " << R.Options.FirstSeed
     << ",\n  \"num_seeds\": " << R.Options.NumSeeds
     << ",\n  \"scale\": " << R.Options.Scale
     << ",\n  \"all_logs_consistent\": "
     << (R.AllLogsConsistent ? "true" : "false")
     << ",\n  \"all_within_seeded_sites\": "
     << (R.AllWithinSeededSites ? "true" : "false")
     << ",\n  \"all_backends_agree\": "
     << (R.AllBackendsAgree ? "true" : "false");
  OS << ",\n  \"samplers\": [";
  for (size_t Slot = 0; Slot != R.SamplerNames.size(); ++Slot) {
    OS << (Slot ? ", " : "");
    jsonEscape(OS, R.SamplerNames[Slot]);
  }
  OS << "],\n  \"sampler_effective_rates\": [";
  for (size_t Slot = 0; Slot != R.SamplerEffectiveRates.size(); ++Slot)
    OS << (Slot ? ", " : "") << R.SamplerEffectiveRates[Slot];
  OS << "],\n  \"families\": [";
  for (size_t F = 0; F != R.Families.size(); ++F) {
    const FuzzFamilyRecall &Fam = R.Families[F];
    OS << (F ? ",\n    {" : "\n    {") << "\"label\": ";
    jsonEscape(OS, Fam.Label);
    OS << ", \"expect_frequent\": "
       << (Fam.ExpectFrequent ? "true" : "false")
       << ", \"seeds_manifested\": " << Fam.SeedsManifested
       << ", \"caught_by_sampler\": [";
    for (size_t Slot = 0; Slot != Fam.SeedsCaughtBySampler.size(); ++Slot)
      OS << (Slot ? ", " : "") << Fam.SeedsCaughtBySampler[Slot];
    OS << "]}";
  }
  OS << "\n  ],\n  \"seeds\": [";
  for (size_t I = 0; I != R.Seeds.size(); ++I) {
    const FuzzSeedOutcome &S = R.Seeds[I];
    OS << (I ? ",\n    {" : "\n    {") << "\"seed\": " << S.Seed
       << ", \"digest\": " << S.CanonicalDigest
       << ", \"static_races\": " << S.StaticRaces
       << ", \"families_detected\": " << S.FamiliesDetected
       << ", \"mem_ops\": " << S.MemOps
       << ", \"points\": " << S.Schedule.Points
       << ", \"switches\": " << S.Schedule.Switches
       << ", \"log_consistent\": " << (S.LogConsistent ? "true" : "false")
       << ", \"within_seeded_sites\": "
       << (S.AllWithinSeededSites ? "true" : "false")
       << ", \"backends_agree\": " << (S.BackendsAgree ? "true" : "false")
       << "}";
  }
  OS << "\n  ]\n}\n";
}
