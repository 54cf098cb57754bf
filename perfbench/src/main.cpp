//===- perfbench/src/main.cpp - Benchmark entry point --------------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// ca2a_perfbench --workload W --seed N --seconds S --trace 0|1
//                --workdir DIR --record-file FILE
//
// Runs one workload, checks its outputs, and prints the metrics; see
// README.md. perfbench/run.py builds this program and calls it.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Trace.h"
#include "Workloads.h"

#include "sim/simd/Backend.h"
#include "support/Chaos.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sched.h>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;

namespace {

bool sanitizerBuild() {
#if defined(CA2A_PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) ||     \
    defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

bool chaosCompiledIn() {
#ifdef CA2A_CHAOS_ENABLED
  return true;
#else
  return false;
#endif
}

/// The record line for (Workload, Case), if the file has one. Lines are
/// "workload case fitness target cost target_cost p50_ms p90_ms fields
/// champion"; '#' starts a comment.
GaRecord findRecord(const std::string &Path, const std::string &Workload,
                    uint64_t Case) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name;
    uint64_t C = 0;
    GaRecord R;
    if (!(Fields >> Name >> C >> R.Fitness >> R.Target >> R.Cost >>
          R.TargetCost >> R.P50Ms >> R.P90Ms >> R.Fields >> std::ws))
      continue;
    std::getline(Fields, R.Champion); // The genome holds spaces.
    if (Name == Workload && C == Case) {
      R.Present = true;
      return R;
    }
  }
  return {};
}

int usage(const char *Message) {
  std::fprintf(stderr,
               "error: %s\nusage: ca2a_perfbench --workload "
               "islands|table1|faults --seed N --seconds S "
               "--trace 0|1 --workdir DIR --record-file FILE\n"
               "       ca2a_perfbench --record islands --from A "
               "--to B --workdir DIR\n",
               Message);
  return 2;
}

} // namespace

std::vector<int> perfbench::allowedCpus() {
  cpu_set_t All;
  CPU_ZERO(&All);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(All), &All) != 0)
    return Cpus;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &All))
      Cpus.push_back(C);
  return Cpus;
}

void perfbench::pinThisThread(int Cpu) {
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  sched_setaffinity(0, sizeof(One), &One);
}

void perfbench::repeatPasses(double Seconds, bool Trace, int MinReps,
                             bool PinPasses,
                             const std::function<void(bool)> &Pass) {
  std::vector<int> Cpus = PinPasses ? allowedCpus() : std::vector<int>();
  double Start = nowSeconds(), Last = 0.0;
  for (int Rep = 0;
       Rep < MinReps || nowSeconds() - Start + Last <= Seconds; ++Rep) {
    if (!Cpus.empty())
      pinThisThread(
          Cpus[static_cast<size_t>(Rep / (Trace ? 2 : 1)) % Cpus.size()]);
    bool Traced = Trace && Rep % 2 == 1;
    Tracer::global().setEnabled(Traced);
    double PassStart = nowSeconds();
    Pass(Traced);
    Last = nowSeconds() - PassStart;
  }
  Tracer::global().setEnabled(false);
  if (!Cpus.empty()) {
    cpu_set_t All;
    CPU_ZERO(&All);
    for (int C : Cpus)
      CPU_SET(C, &All);
    sched_setaffinity(0, sizeof(All), &All);
  }
}

namespace {

/// The recorded quantities of a case that every group should sum to about
/// the same value: the costs, the generation latency percentiles, and the
/// fields simulated (so that replicas per second is balanced too).
constexpr size_t NumBalanced = 5;
using Balanced = std::array<double, NumBalanced>;

Balanced balanced(const GaRecord &R) {
  return {R.Cost, R.TargetCost, R.P50Ms, R.P90Ms, R.Fields};
}

/// Depth-first search over the ways to split the cases into groups of
/// GaCasesPerPass, pruned at the best split found so far (see caseGroup).
struct GroupSearch {
  GroupSearch(std::vector<Balanced> Values, double Groups)
      : Values(std::move(Values)) {
    Mean.fill(0.0);
    for (const Balanced &V : this->Values)
      for (size_t Q = 0; Q != NumBalanced; ++Q)
        Mean[Q] += V[Q] / Groups;
  }

  std::vector<Balanced> Values;
  Balanced Mean;
  double Best = 1e300;
  std::vector<std::vector<uint64_t>> Current, Chosen;

  /// The largest relative distance of a quantity of \p Group from the
  /// mean group's.
  double distance(const std::vector<uint64_t> &Group) const {
    double Worst = 0.0;
    for (size_t Q = 0; Q != NumBalanced; ++Q) {
      double Sum = 0.0;
      for (uint64_t Case : Group)
        Sum += Values[Case][Q];
      Worst = std::max(Worst,
                       std::abs(Sum - Mean[Q]) / std::max(Mean[Q], 1e-9));
    }
    return Worst;
  }

  /// Splits \p Left; its first case opens the next group.
  void split(const std::vector<uint64_t> &Left, double Worst) {
    if (Worst >= Best)
      return;
    if (Left.empty()) {
      Best = Worst;
      Chosen = Current;
      return;
    }
    std::vector<uint64_t> Group{Left.front()};
    fill(Left, 1, Group, Worst);
  }

  /// Completes \p Group with cases of \p Left from index \p From on.
  void fill(const std::vector<uint64_t> &Left, size_t From,
            std::vector<uint64_t> &Group, double Worst) {
    if (Group.size() == GaCasesPerPass) {
      double GroupWorst = std::max(Worst, distance(Group));
      if (GroupWorst >= Best)
        return;
      std::vector<uint64_t> Rest;
      for (uint64_t Case : Left)
        if (std::find(Group.begin(), Group.end(), Case) == Group.end())
          Rest.push_back(Case);
      Current.push_back(Group);
      split(Rest, GroupWorst);
      Current.pop_back();
      return;
    }
    for (size_t J = From; J < Left.size(); ++J) {
      Group.push_back(Left[J]);
      fill(Left, J + 1, Group, Worst);
      Group.pop_back();
    }
  }
};

} // namespace

std::vector<uint64_t>
perfbench::caseGroup(const std::vector<GaRecord> &Records, uint64_t Seed) {
  std::vector<Balanced> Values;
  std::vector<uint64_t> All;
  for (uint64_t Case = 0; Case != Records.size(); ++Case) {
    Values.push_back(balanced(Records[Case]));
    All.push_back(Case);
  }
  // Without recorded costs (a missing record fails its check anyway) every
  // split is as good as the first.
  GroupSearch S(std::move(Values),
                static_cast<double>(Records.size() / GaCasesPerPass));
  S.split(All, 0.0);
  return S.Chosen[Seed % S.Chosen.size()];
}

size_t perfbench::bestPassIndex(const std::vector<double> &WallSeconds) {
  size_t Best = 0;
  for (size_t I = 1; I < WallSeconds.size(); ++I)
    if (WallSeconds[I] < WallSeconds[Best])
      Best = I;
  return Best;
}

void perfbench::reportTraceSummary(Report &Out, double UntracedWall,
                                   double TracedWall, size_t TracedPasses) {
  Out.metric("trace.overhead_pct", (TracedWall / UntracedWall - 1.0) * 100.0,
             "%", TracedPasses);
  double Passes = static_cast<double>(TracedPasses);
  for (const auto &[Layer, Seconds] : Tracer::global().selfSeconds()) {
    std::string Name = Layer == "sim/simd" ? "sim_simd" : Layer;
    Out.metric("self." + Name + "_s", Seconds / Passes, "s", TracedPasses);
  }
}

double perfbench::peakRssMiB() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

int main(int Argc, char **Argv) {
  RunOptions Opts;
  std::string RecordFile, RecordWorkload;
  uint64_t From = 0, To = NumRecordedCases;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Value;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Value.empty() && Value[0] != '-';
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = *End == '\0' && Opts.Seconds > 0.0;
    } else if (Flag == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      Opts.Trace = Value == "1";
    } else if (Flag == "--workdir") {
      Opts.WorkDir = Value;
    } else if (Flag == "--record-file") {
      RecordFile = Value;
    } else if (Flag == "--record") {
      RecordWorkload = Value;
    } else if (Flag == "--from") {
      From = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Flag == "--to") {
      To = std::strtoull(Value.c_str(), nullptr, 10);
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (Opts.WorkDir.empty())
    return usage("--workdir is required");
  std::filesystem::create_directories(Opts.WorkDir);

  if (!RecordWorkload.empty()) {
    if (RecordWorkload != "islands")
      return usage("--record takes islands");
    recordIslandCases(Opts.WorkDir, From, To);
    return 0;
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace 0|1 are required");

  // Refusal rule: timings from a forced backend, an installed chaos
  // schedule or a sanitizer build describe some other program.
  const char *Forced = std::getenv(ca2a::simdBackendForceEnvVar());
  if (Forced && *Forced) {
    std::fprintf(stderr, "refused: %s=%s is set; timings would not describe "
                 "the auto backend\n",
                 ca2a::simdBackendForceEnvVar(), Forced);
    return 3;
  }
  if (ca2a::chaosActive()) {
    std::fprintf(stderr, "refused: a chaos schedule is active\n");
    return 3;
  }
  if (sanitizerBuild()) {
    std::fprintf(stderr, "refused: this is a sanitizer build\n");
    return 3;
  }

  Report Out;
  Out.info("workload", Opts.Workload);
  Out.info("seed", static_cast<double>(Opts.Seed));
  Out.info("seconds", Opts.Seconds);
  Out.info("trace", Opts.Trace ? 1.0 : 0.0);
  Out.info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  Out.info("auto_resolves_to", ca2a::simdBackendName(ca2a::resolveSimdBackend(
                                   ca2a::SimdBackend::Auto)));
  Out.info("backends", ca2a::simdBackendSummary());
  Out.info("chaos_compiled_in", chaosCompiledIn() ? "on" : "off");
  Out.info("chaos_active", ca2a::chaosActive() ? "yes" : "no");
  Out.info("compile_flags", CA2A_PERFBENCH_FLAGS);

  if (Opts.Workload == "islands") {
    std::vector<GaRecord> Records;
    for (uint64_t Case = 0; Case != NumRecordedCases; ++Case)
      Records.push_back(findRecord(RecordFile, Opts.Workload, Case));
    for (uint64_t Case : caseGroup(Records, Opts.Seed))
      Opts.Cases.push_back({Case + 1, Records[Case]});
    Opts.GaHeldOutSeed = NumRecordedCases + 1 + Opts.Seed % NumRecordedCases;
  }
  if (Opts.Workload == "islands")
    runIslandsWorkload(Opts, Out);
  else if (Opts.Workload == "table1")
    runTable1(Opts, Out);
  else if (Opts.Workload == "faults")
    runFaults(Opts, Out);
  else
    return usage(("unknown workload " + Opts.Workload).c_str());

  std::string Key = Opts.Workload + "-seed" + std::to_string(Opts.Seed) +
                    "-trace" + (Opts.Trace ? "1" : "0");
  Out.diffCountersWith(Opts.WorkDir + "/counters-" + Key + ".json");
  if (Opts.Trace) {
    std::string Path = Opts.WorkDir + "/trace-" + Key + ".json";
    Out.check(Tracer::global().writeJson(Path), "write trace to " + Path);
    Out.info("trace_file", Path);
  }
  Out.print();
  return Out.correct() ? 0 : 1;
}
