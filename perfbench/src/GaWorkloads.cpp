//===- perfbench/src/GaWorkloads.cpp - The islands GA workload ----------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "TimedMailbox.h"
#include "Workloads.h"

#include "dist/IslandRunner.h"
#include "ga/Evolution.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

using namespace ca2a;
using namespace perfbench;

namespace {

constexpr int SideLength = 16;
constexpr int NumAgents = 8;
constexpr int IslandRandomFields = 100;
constexpr int IslandGenerations = 100;
constexpr int NumIslands = 4;
constexpr int MigrationInterval = 5;
constexpr int MigrantCount = 3;

/// The paper's GA (N = 20, b = 3, 18% mutation) on one worker. The oracle
/// variant runs the reference World with the scheduler off: the path the
/// recorded champions come from.
EvolutionParams gaParams(uint64_t Seed, bool Oracle) {
  EvolutionParams P;
  P.Seed = Seed;
  P.Fitness.NumWorkers = 1;
  P.Fitness.Engine = Oracle ? EngineKind::Reference : EngineKind::Batch;
  P.Fitness.Backend = SimdBackend::Auto;
  P.Scheduler.Enabled = !Oracle;
  return P;
}

IslandRunParams islandParams(uint64_t Seed, bool Oracle,
                             const std::string &Dir) {
  IslandRunParams P;
  P.NumIslands = NumIslands;
  P.Topology = TopologyKind::Ring;
  P.MigrationInterval = MigrationInterval;
  P.MigrantCount = MigrantCount;
  P.Transport = TransportKind::File;
  P.MailboxDir = Dir + "/mail";
  P.CheckpointDir = Dir + "/ckpt";
  P.Evo = gaParams(Seed, Oracle);
  P.Grid = GridKind::Triangulate;
  P.SideLength = SideLength;
  return P;
}

IslandOptions islandOptions(const IslandRunParams &P, int I) {
  IslandOptions O;
  O.Index = I;
  O.MigrationInterval = P.MigrationInterval;
  O.MigrantCount = P.MigrantCount;
  O.MigrationDeadlineSeconds = P.MigrationDeadlineSeconds;
  O.CheckpointPath = islandCheckpointPath(P.CheckpointDir, I);
  O.Grid = P.Grid;
  O.SideLength = P.SideLength;
  O.Retry = P.Retry;
  return O;
}

/// Empties the mailbox and checkpoint directories: a left-over checkpoint
/// would make the islands resume instead of start.
void resetIslandDirs(const IslandRunParams &P) {
  for (const std::string &D : {P.MailboxDir, P.CheckpointDir}) {
    std::filesystem::remove_all(D);
    std::filesystem::create_directories(D);
  }
}

std::vector<InitialConfiguration> trainingFields(const Torus &T,
                                                 int NumRandom,
                                                 uint64_t Seed) {
  Tracer::Scope S("config", "standardConfigurationSet");
  return standardConfigurationSet(T, NumAgents, NumRandom, Seed);
}

/// The ring the islands exchange migrants on.
const MigrationTopology &ringTopology() {
  static const MigrationTopology Ring =
      MigrationTopology::create(TopologyKind::Ring, NumIslands).takeValue();
  return Ring;
}

/// One GA run on one input seed, traced or not. Island I's generation G
/// (from 0) is slot I * IslandGenerations + G of the per-slot vectors.
struct CaseRun {
  double Target = 0.0;         ///< Time-to-target fitness of the case.
  double SetupS = 0.0;
  double FieldsS = 0.0;        ///< config.fields_s.
  double InitS = 0.0;          ///< ga.init_s: the Island::create calls.
  double ClockWallS = 0.0;     ///< The timed phase as the clock saw it.
  uint64_t Generations = 0;
  uint64_t StepFields = 0;     ///< Fields simulated inside the timed phase.
  std::vector<double> WorkMs;  ///< Island::run minus its collect calls.
  std::vector<double> GenMs;   ///< The whole Island::run call.
  std::vector<double> StepCkptMs; ///< Island::run minus post and collect.
  std::vector<double> BestFitness; ///< The generation's best fitness.
  SchedulerStats Sched;        ///< Summed over islands.
  Individual Champion;
  bool Failed = false;         ///< A mailbox or checkpoint error.
  std::vector<double> PostMs, CollectMs;
  MailboxStats Mail;
  IslandStats Migration;
};

/// Runs \p Fn(I) for every island I on a thread of its own, as runIslands
/// runs its islands, and waits for all. In pass \p Rotation the thread of
/// island I is pinned to allowed CPU (I + Rotation) mod #CPUs, when there
/// are at least as many CPUs as islands, so that over the passes every
/// island runs on every CPU.
void onIslandThreads(uint64_t Parent, size_t Rotation,
                     const std::function<void(int)> &Fn) {
  std::vector<int> Cpus = allowedCpus();
  bool Pin = Cpus.size() >= static_cast<size_t>(NumIslands);
  std::vector<std::thread> Threads;
  for (int I = 0; I != NumIslands; ++I)
    Threads.emplace_back([&, I] {
      Tracer::Adopt Adopted(Parent);
      if (Pin)
        pinThisThread(
            Cpus[(static_cast<size_t>(I) + Rotation) % Cpus.size()]);
      Fn(I);
    });
  for (std::thread &Th : Threads)
    Th.join();
}

/// One run: the islands built with Island::create over timed file
/// mailboxes during set-up, each on its own thread as a process per island
/// would, then each advanced one generation per Island::run call on its
/// own thread, as runIslands does (see onIslandThreads for \p Rotation).
CaseRun islandsCase(uint64_t Seed, double Target, const std::string &Dir,
                    size_t Rotation) {
  Tracer::Scope Root("bench", "islands.case");
  CaseRun Run;
  Run.Target = Target;
  IslandRunParams Params = islandParams(Seed, false, Dir);
  double T0 = nowSeconds();
  Torus T(GridKind::Triangulate, SideLength);
  auto Fields = trainingFields(T, IslandRandomFields, Seed);
  double T1 = nowSeconds();
  resetIslandDirs(Params);
  std::vector<std::unique_ptr<TimedMailbox>> Boxes;
  for (int I = 0; I != NumIslands; ++I)
    Boxes.push_back(
        std::make_unique<TimedMailbox>(Params.MailboxDir, Params.Retry));
  std::vector<std::unique_ptr<Island>> Islands(NumIslands);
  std::vector<uint64_t> InitFields(NumIslands, 0);
  onIslandThreads(Root.id(), Rotation, [&](int I) {
    EvolutionParams Evo = Params.Evo;
    Evo.Seed = deriveIslandSeed(Params.Evo.Seed, I);
    Tracer::Scope S("dist", "Island::create");
    auto Created = Island::create(T, Fields, Evo, ringTopology(),
                                  islandOptions(Params, I),
                                  Boxes[static_cast<size_t>(I)].get());
    if (!Created) {
      std::fprintf(stderr, "perfbench: Island::create: %s\n",
                   Created.error().message().c_str());
      return;
    }
    Islands[static_cast<size_t>(I)] = Created.takeValue();
    InitFields[static_cast<size_t>(I)] = Islands[static_cast<size_t>(I)]
                                             ->evolution()
                                             .schedulerStats()
                                             .FieldsSimulated;
  });
  for (const auto &Isl : Islands)
    if (!Isl) {
      Run.Failed = true;
      return Run;
    }
  double Start = nowSeconds();
  Run.FieldsS = T1 - T0;
  Run.InitS = Start - T1;
  Run.SetupS = Start - T0;

  size_t Slots = static_cast<size_t>(NumIslands * IslandGenerations);
  Run.WorkMs.assign(Slots, 0.0);
  Run.GenMs.assign(Slots, 0.0);
  Run.StepCkptMs.assign(Slots, 0.0);
  Run.BestFitness.assign(Slots, 0.0);
  std::vector<char> Failed(NumIslands, 0);
  onIslandThreads(Root.id(), Rotation, [&](int I) {
    Island &Isl = *Islands[static_cast<size_t>(I)];
    TimedMailbox &Box = *Boxes[static_cast<size_t>(I)];
    // Each thread writes its own slots only.
    for (int G = 0; G != IslandGenerations && !Failed[I]; ++G) {
      size_t Slot = static_cast<size_t>(I * IslandGenerations + G);
      double PostBefore = Box.postMs(), CollectBefore = Box.collectMs();
      double GenStart = nowSeconds();
      Tracer::Scope S("dist", "Island::run");
      auto Best = Isl.run(G + 1, [&](const GenerationStats &Stats) {
        Run.BestFitness[Slot] = Stats.BestFitness;
      });
      double Ms = (nowSeconds() - GenStart) * 1e3;
      if (!Best) {
        std::fprintf(stderr, "perfbench: island %d: %s\n", I,
                     Best.error().message().c_str());
        Failed[I] = 1;
      }
      double CollectMs = Box.collectMs() - CollectBefore;
      Run.GenMs[Slot] = Ms;
      Run.WorkMs[Slot] = Ms - CollectMs;
      Run.StepCkptMs[Slot] = Ms - CollectMs - (Box.postMs() - PostBefore);
    }
  });
  Run.ClockWallS = nowSeconds() - Start;

  std::vector<IslandOutcome> Outcomes;
  for (int I = 0; I != NumIslands; ++I) {
    const Island &Isl = *Islands[static_cast<size_t>(I)];
    const TimedMailbox &Box = *Boxes[static_cast<size_t>(I)];
    Run.Failed |= Failed[I] != 0;
    Run.Sched += Isl.evolution().schedulerStats();
    Run.Generations += static_cast<uint64_t>(Isl.evolution().generation());
    const IslandStats &M = Isl.stats();
    Run.Migration.MigrationRounds += M.MigrationRounds;
    Run.Migration.BlocksPosted += M.BlocksPosted;
    Run.Migration.MigrantsReceived += M.MigrantsReceived;
    Run.Migration.MigrantsAccepted += M.MigrantsAccepted;
    Run.Mail.Posts += Box.stats().Posts;
    Run.Mail.Collects += Box.stats().Collects;
    Run.Mail.WriteRetries += Box.stats().WriteRetries;
    Run.Mail.ReadRetries += Box.stats().ReadRetries;
    Run.Mail.BackupRecoveries += Box.stats().BackupRecoveries;
    Run.PostMs.insert(Run.PostMs.end(), Box.PostMs.begin(), Box.PostMs.end());
    Run.CollectMs.insert(Run.CollectMs.end(), Box.CollectMs.begin(),
                         Box.CollectMs.end());
    IslandOutcome O;
    O.Index = I;
    O.Best = Isl.evolution().bestEver();
    Outcomes.push_back(O);
  }
  Run.StepFields = Run.Sched.FieldsSimulated;
  for (uint64_t F : InitFields)
    Run.StepFields -= F;
  Run.Champion = Outcomes[static_cast<size_t>(selectChampionIndex(Outcomes))]
                     .Best;
  return Run;
}

/// The timed phase of a case rebuilt from its slots' work times (WorkMs):
/// every island runs its generations back to back, and at a migration
/// boundary it first waits until each in-neighbour has finished the
/// generation before, when that neighbour posts its block. Waiting is
/// thereby modelled rather than measured, so a neighbour slowed by another
/// tenant of the host does not add its delay to every island.
struct Schedule {
  double WallS = 0.0;     ///< Until every island is done.
  double ToTargetS = 0.0; ///< Until a generation's best reaches the target.
};

Schedule schedule(const CaseRun &C) {
  std::vector<double> Done(NumIslands, 0.0), Next(NumIslands, 0.0);
  double ToTarget = -1.0;
  for (int G = 0; G != IslandGenerations; ++G) {
    bool Boundary = G > 0 && G % MigrationInterval == 0;
    for (int I = 0; I != NumIslands; ++I) {
      size_t Slot = static_cast<size_t>(I * IslandGenerations + G);
      double Begin = Done[static_cast<size_t>(I)];
      if (Boundary)
        for (int J : ringTopology().inNeighbors(I))
          Begin = std::max(Begin, Done[static_cast<size_t>(J)]);
      double End = Begin + C.WorkMs[Slot] / 1e3;
      Next[static_cast<size_t>(I)] = End;
      if (C.BestFitness[Slot] <= C.Target && (ToTarget < 0.0 || End < ToTarget))
        ToTarget = End;
    }
    Done = Next;
  }
  Schedule S;
  S.WallS = *std::max_element(Done.begin(), Done.end());
  S.ToTargetS = ToTarget < 0.0 ? S.WallS : ToTarget;
  return S;
}

double sum(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return S;
}

/// One pass: the run's cases, one after the other.
struct GaPass {
  std::vector<CaseRun> Cases;

  double total(double CaseRun::*Field) const {
    double S = 0.0;
    for (const CaseRun &C : Cases)
      S += C.*Field;
    return S;
  }
  uint64_t total(uint64_t CaseRun::*Field) const {
    uint64_t S = 0;
    for (const CaseRun &C : Cases)
      S += C.*Field;
    return S;
  }
  std::vector<double> pooled(std::vector<double> CaseRun::*Field) const {
    std::vector<double> Out;
    for (const CaseRun &C : Cases)
      Out.insert(Out.end(), (C.*Field).begin(), (C.*Field).end());
    return Out;
  }
  /// Sum over the cases of their modelled timed phase (see schedule).
  double wall() const {
    double S = 0.0;
    for (const CaseRun &C : Cases)
      S += schedule(C).WallS;
    return S;
  }
  /// Sum over the cases of the modelled time each took to its target.
  double timeToTarget() const {
    double S = 0.0;
    for (const CaseRun &C : Cases)
      S += schedule(C).ToTargetS;
    return S;
  }
  SchedulerStats sched() const {
    SchedulerStats S;
    for (const CaseRun &C : Cases)
      S += C.Sched;
    return S;
  }
  MailboxStats mail() const {
    MailboxStats M;
    for (const CaseRun &C : Cases) {
      M.Posts += C.Mail.Posts;
      M.Collects += C.Mail.Collects;
      M.WriteRetries += C.Mail.WriteRetries;
      M.ReadRetries += C.Mail.ReadRetries;
      M.BackupRecoveries += C.Mail.BackupRecoveries;
    }
    return M;
  }
  IslandStats migration() const {
    IslandStats M;
    for (const CaseRun &C : Cases) {
      M.MigrationRounds += C.Migration.MigrationRounds;
      M.BlocksPosted += C.Migration.BlocksPosted;
      M.MigrantsReceived += C.Migration.MigrantsReceived;
      M.MigrantsAccepted += C.Migration.MigrantsAccepted;
    }
    return M;
  }
};

template <typename Fn>
std::vector<double> collect(const std::vector<GaPass> &Passes, Fn Get) {
  std::vector<double> Out;
  for (const GaPass &P : Passes)
    Out.push_back(Get(P));
  return Out;
}

/// Lowers each element of \p Into to the same element of \p From.
void minInto(std::vector<double> &Into, const std::vector<double> &From) {
  if (Into.size() == From.size())
    for (size_t I = 0; I != Into.size(); ++I)
      Into[I] = std::min(Into[I], From[I]);
}

/// Every case put together slot by slot from \p Passes, as one pass. Each
/// island-generation is a fixed unit of deterministic GA work in a fixed
/// slot, so its time is its fastest over the passes (see bestPassIndex in
/// Workloads.h). The rest (mailbox timings) comes from the pass whose
/// timed phase took the shortest time on the clock.
GaPass bestPass(const std::vector<GaPass> &Passes) {
  GaPass Best;
  for (size_t C = 0; C != Passes.front().Cases.size(); ++C) {
    std::vector<double> Walls;
    for (const GaPass &P : Passes)
      Walls.push_back(P.Cases[C].ClockWallS);
    CaseRun Run = Passes[bestPassIndex(Walls)].Cases[C];
    for (const GaPass &P : Passes) {
      minInto(Run.WorkMs, P.Cases[C].WorkMs);
      minInto(Run.GenMs, P.Cases[C].GenMs);
      minInto(Run.StepCkptMs, P.Cases[C].StepCkptMs);
    }
    Best.Cases.push_back(std::move(Run));
  }
  return Best;
}

void reportSchedCounters(Report &Out, const SchedulerStats &S) {
  Out.counter("ga.sched.requests", S.Requests);
  Out.counter("ga.sched.cache_hits", S.CacheHits);
  Out.counter("ga.sched.genomes_simulated", S.GenomesSimulated);
  Out.counter("ga.sched.genomes_pruned", S.GenomesPruned);
  Out.counter("ga.sched.fields_simulated", S.FieldsSimulated);
  Out.counter("ga.sched.fields_pruned", S.FieldsPruned);
  Out.counter("ga.sched.batches", S.Batches);
  Out.counter("ga.sched.retries", S.TaskRetries);
  Out.counter("ga.sched.quarantined", S.ItemsQuarantined);
  Out.counter("ga.engine.compile_misses", S.EngineCompileMisses);
  Out.counter("ga.engine.steady_allocations", S.EngineSteadyAllocations);
  Out.counter("sim.batch.slabs_formed", S.EngineSlabsFormed);
  Out.counter("sim.batch.slab_lanes", S.EngineSlabLanes);
  Out.counter("sim.batch.lanes_retired_early", S.EngineLanesRetiredEarly);
}

/// Per-layer scheduler and engine metrics of one traced pass.
void reportSchedLayer(Report &Out, const SchedulerStats &S, double StepS) {
  auto Count = [&](const char *Name, uint64_t V) {
    Out.metric(Name, static_cast<double>(V), "count");
  };
  Count("ga.sched.requests", S.Requests);
  Count("ga.sched.cache_hits", S.CacheHits);
  Out.metric("ga.sched.cache_hit_rate", S.hitRate(), "ratio");
  Count("ga.sched.genomes_simulated", S.GenomesSimulated);
  Count("ga.sched.genomes_pruned", S.GenomesPruned);
  Count("ga.sched.fields_simulated", S.FieldsSimulated);
  Count("ga.sched.fields_pruned", S.FieldsPruned);
  Out.metric("ga.sched.prune_rate", S.pruneRate(), "ratio");
  Count("ga.sched.batches", S.Batches);
  Out.metric("ga.sched.batch_occupancy", S.batchOccupancy(), "items");
  Count("ga.sched.retries", S.TaskRetries);
  Count("ga.sched.quarantined", S.ItemsQuarantined);
  Out.metric("ga.engine.compile_hit_rate", S.engineCompileHitRate(), "ratio");
  Count("ga.engine.steady_allocations", S.EngineSteadyAllocations);
  // The engine behind the scheduler, as far as its counters show it.
  Count("sim.batch.replicas", S.FieldsSimulated);
  Out.metric("sim.batch.replicas_per_s",
             StepS > 0.0 ? static_cast<double>(S.FieldsSimulated) / StepS
                         : 0.0,
             "1/s");
  Out.metric("sim.batch.compile_hit_rate", S.engineCompileHitRate(), "ratio");
  Count("sim.batch.allocations", S.EngineAllocations);
  Count("sim.batch.steady_allocations", S.EngineSteadyAllocations);
  Count("sim.batch.retries", S.TaskRetries);
  Count("sim.batch.failed", S.ItemsQuarantined);
  // The slab metrics belong to faults (README.md); here the slab counts
  // are only among the deterministic counters.
}

/// Checks one case's champion against its record and re-evaluates it on
/// the reference World over the same training fields.
void checkChampion(Report &Out, const std::string &What, const CaseRun &C,
                   const GaCase &Case) {
  Out.check(!C.Failed, What + ": no mailbox or checkpoint error");
  Out.check(Case.Record.Present, What + ": a champion is recorded");
  if (Case.Record.Present) {
    Out.check(C.Champion.G.toCompactString() == Case.Record.Champion,
              What + ": champion genome equals the record");
    Out.check(C.Champion.Fitness == Case.Record.Fitness,
              What + ": champion fitness " + exactString(C.Champion.Fitness) +
                  " equals the record " + exactString(Case.Record.Fitness));
  }
  Torus T(GridKind::Triangulate, SideLength);
  auto Fields =
      standardConfigurationSet(T, NumAgents, IslandRandomFields, Case.Seed);
  FitnessResult R = evaluateFitness(C.Champion.G, T, Fields,
                                    gaParams(Case.Seed, true).Fitness);
  Out.check(R.Fitness == C.Champion.Fitness,
            What + ": champion re-evaluates to the same fitness on World");
}

/// Median over \p Passes of their summed set-up seconds.
double medianSetup(const std::vector<GaPass> &Passes) {
  return median(collect(
      Passes, [](const GaPass &P) { return P.total(&CaseRun::SetupS); }));
}

/// End-to-end metrics: timings of the slot-by-slot fastest pass, summed
/// over the cases; set-up as the median over passes. The per-generation
/// latency is the island's own work (WorkMs), without collect waits.
void reportGaEndToEnd(Report &Out, const std::vector<GaPass> &Passes,
                      double PeakRssMiB) {
  GaPass Best = bestPass(Passes);
  size_t N = Passes.size();
  std::vector<double> GenMs = Best.pooled(&CaseRun::WorkMs);
  double Wall = Best.wall();
  Out.metric("setup_s", medianSetup(Passes), "s", N);
  Out.metric("wall_s", Wall, "s", N);
  Out.metric("gens_per_s",
             static_cast<double>(Best.total(&CaseRun::Generations)) / Wall,
             "1/s", N);
  Out.metric("time_to_target_s", Best.timeToTarget(), "s", N);
  Out.metric("gen_ms_p50", percentile(GenMs, 0.5), "ms", GenMs.size());
  Out.metric("gen_ms_p90", percentile(GenMs, 0.9), "ms", GenMs.size());
  Out.metric("replicas_per_s",
             static_cast<double>(Best.total(&CaseRun::StepFields)) / Wall,
             "1/s", N);
  Out.metric("peak_rss_mb", PeakRssMiB, "MiB");
}

/// Operations a pass attempted and failed: genome evaluations and
/// generations (each generation is also a checkpoint write), plus posts
/// and collect rounds; failures are quarantined
/// (genome, field) items and mailbox or checkpoint errors.
void countOperations(Report &Out, const GaPass &P) {
  SchedulerStats S = P.sched();
  IslandStats M = P.migration();
  uint64_t Failed = S.ItemsQuarantined;
  for (const CaseRun &C : P.Cases)
    Failed += C.Failed ? 1 : 0;
  Out.operations(S.Requests + P.total(&CaseRun::Generations) +
                     M.BlocksPosted + M.MigrationRounds,
                 Failed);
}

/// Deterministic counters: the same in every pass of a run.
std::map<std::string, std::string> passCounters(const GaPass &P) {
  Report R;
  reportSchedCounters(R, P.sched());
  IslandStats M = P.migration();
  R.counter("generations", P.total(&CaseRun::Generations));
  R.counter("dist.blocks_posted", M.BlocksPosted);
  R.counter("dist.migration_rounds", M.MigrationRounds);
  R.counter("dist.migrants_received", M.MigrantsReceived);
  R.counter("dist.migrants_accepted", M.MigrantsAccepted);
  for (size_t I = 0; I != P.Cases.size(); ++I) {
    std::string Key = "case" + std::to_string(I) + ".champion";
    R.counter(Key, P.Cases[I].Champion.G.toCompactString());
    R.counter(Key + "_fitness", P.Cases[I].Champion.Fitness);
  }
  return R.counters();
}

void finishGa(Report &Out, const RunOptions &Opts,
              const std::vector<GaPass> &Untraced,
              const std::vector<GaPass> &Traced, double PeakRssMiB,
              const std::string &Dir) {
  std::vector<GaPass> All = Untraced;
  All.insert(All.end(), Traced.begin(), Traced.end());
  for (const GaPass &P : All)
    countOperations(Out, P);
  // Every pass, traced or not, must reproduce the first one's counters.
  auto Reference = passCounters(All.front());
  for (size_t I = 1; I != All.size(); ++I)
    Out.check(passCounters(All[I]) == Reference,
              "islands: pass " + std::to_string(I) +
                  " repeats the deterministic counters of pass 0");
  for (size_t I = 0; I != Opts.Cases.size(); ++I) {
    const GaCase &Case = Opts.Cases[I];
    checkChampion(Out, "islands seed " + std::to_string(Case.Seed),
                  All.front().Cases[I], Case);
    Out.counter("case" + std::to_string(I) + ".seed", Case.Seed);
  }
  Out.mergeCounters(Reference);

  CaseRun Second = islandsCase(Opts.GaHeldOutSeed, 0.0, Dir, 0);
  Out.check(!Second.Failed, "islands: held-out seed run");
  Out.counter("heldout.seed", Opts.GaHeldOutSeed);
  Out.counter("heldout.champion", Second.Champion.G.toCompactString());
  Out.counter("heldout.champion_fitness", Second.Champion.Fitness);

  if (!Opts.Trace) {
    reportGaEndToEnd(Out, Untraced, PeakRssMiB);
    return;
  }
  auto Med = [&](double CaseRun::*F) {
    return median(collect(Traced, [F](const GaPass &P) { return P.total(F); }));
  };
  Out.metric("config.fields_s", Med(&CaseRun::FieldsS), "s", Traced.size());
  Out.metric("ga.init_s", Med(&CaseRun::InitS), "s", Traced.size());
  // Set-up and timed phase together, as the end-to-end metrics take them.
  auto PassSeconds = [](const std::vector<GaPass> &Passes) {
    return medianSetup(Passes) + bestPass(Passes).wall();
  };
  reportTraceSummary(Out, PassSeconds(Untraced), PassSeconds(Traced),
                     Traced.size());
}

} // namespace

void perfbench::runIslandsWorkload(const RunOptions &Opts, Report &Out) {
  std::string Dir = Opts.WorkDir + "/islands";
  std::vector<GaPass> Untraced, Traced;
  // islandsCase pins the island threads itself, rotating them over the
  // CPUs from one pass of a kind to the next.
  repeatPasses(Opts.Seconds, Opts.Trace, 4, /*PinPasses=*/false,
               [&](bool IsTraced) {
                 std::vector<GaPass> &Kind = IsTraced ? Traced : Untraced;
                 GaPass P;
                 for (const GaCase &C : Opts.Cases)
                   P.Cases.push_back(islandsCase(C.Seed, C.Record.Target, Dir,
                                                 Kind.size()));
                 Kind.push_back(std::move(P));
               });
  // The wrapper's counts must agree with the islands' own: every posted
  // block is one post, and on a ring every round is one collect.
  for (const std::vector<GaPass> *Kind : {&Untraced, &Traced})
    for (const GaPass &P : *Kind) {
      Out.check(P.mail().Posts == P.migration().BlocksPosted,
                "islands: mailbox posts equal blocks posted");
      Out.check(P.mail().Collects == P.migration().MigrationRounds,
                "islands: mailbox collects equal migration rounds");
    }
  finishGa(Out, Opts, Untraced, Traced, peakRssMiB(), Dir);
  std::filesystem::remove_all(Dir);
  if (!Opts.Trace)
    return;
  GaPass Best = bestPass(Traced);
  MailboxStats Mail = Best.mail();
  IslandStats Mig = Best.migration();
  std::vector<double> PostMs = Best.pooled(&CaseRun::PostMs);
  std::vector<double> CollectMs = Best.pooled(&CaseRun::CollectMs);
  std::vector<double> GenMs = Best.pooled(&CaseRun::GenMs);
  std::vector<double> StepCkptMs = Best.pooled(&CaseRun::StepCkptMs);
  auto Ms = [&](const char *Name, const std::vector<double> &V, double Q) {
    Out.metric(Name, percentile(V, Q), "ms", V.size());
  };
  auto Count = [&](const char *Name, uint64_t V) {
    Out.metric(Name, static_cast<double>(V), "count");
  };
  Ms("dist.post_ms_p50", PostMs, 0.5);
  Ms("dist.post_ms_p90", PostMs, 0.9);
  Ms("dist.collect_wait_ms_p50", CollectMs, 0.5);
  Ms("dist.collect_wait_ms_p90", CollectMs, 0.9);
  Out.metric("dist.migration_wait_s", sum(CollectMs) / 1e3, "s",
             CollectMs.size());
  Count("dist.posts", Mail.Posts);
  Count("dist.collects", Mail.Collects);
  Count("dist.write_retries", Mail.WriteRetries);
  Count("dist.read_retries", Mail.ReadRetries);
  Count("dist.backup_recoveries", Mail.BackupRecoveries);
  Count("dist.migrants_received", Mig.MigrantsReceived);
  Count("dist.migrants_accepted", Mig.MigrantsAccepted);
  Out.metric("dist.accept_rate",
             Mig.MigrantsReceived
                 ? static_cast<double>(Mig.MigrantsAccepted) /
                       static_cast<double>(Mig.MigrantsReceived)
                 : 0.0,
             "ratio");
  Ms("dist.island_gen_ms_p50", GenMs, 0.5);
  Ms("dist.island_gen_ms_p90", GenMs, 0.9);
  Ms("dist.step_ckpt_ms_p50", StepCkptMs, 0.5);
  reportSchedLayer(Out, Best.sched(), sum(StepCkptMs) / 1e3);
}

void perfbench::recordIslandCases(const std::string &WorkDir, uint64_t From,
                                  uint64_t To) {
  struct Line {
    Individual Champion;
    double Target = 0.0;
    CaseRun Fastest; ///< Slot by slot, over the cost rounds.
  };
  std::string Dir = WorkDir + "/record";
  std::vector<Line> Lines;
  for (uint64_t Case = From; Case != To; ++Case) {
    uint64_t Seed = Case + 1;
    Torus T(GridKind::Triangulate, SideLength);
    IslandRunParams Params = islandParams(Seed, true, Dir);
    resetIslandDirs(Params);
    // The target is the lowest island best at half the generations, so
    // that time-to-target covers about half of every case's run.
    std::vector<double> BestAtHalf(NumIslands, 0.0);
    auto Result = runIslands(
        T, standardConfigurationSet(T, NumAgents, IslandRandomFields, Seed),
        Params, IslandGenerations, [&](int I, const GenerationStats &G) {
          if (G.Generation == IslandGenerations / 2)
            BestAtHalf[static_cast<size_t>(I)] = G.BestFitness;
        });
    std::filesystem::remove_all(Dir);
    if (!Result) {
      std::fprintf(stderr, "record: %s\n", Result.error().message().c_str());
      return;
    }
    Line L;
    L.Champion = Result->Champion;
    L.Target = *std::min_element(BestAtHalf.begin(), BestAtHalf.end());
    Lines.push_back(L);
  }
  // The costs: each case put together slot by slot from its timed runs, as
  // a pass is, over rounds that visit every case in turn, so that a slow
  // spell of the host lands on all cases alike.
  constexpr int CostRounds = 8;
  for (int Round = 0; Round != CostRounds; ++Round)
    for (uint64_t Case = From; Case != To; ++Case) {
      Line &L = Lines[Case - From];
      CaseRun Timed =
          islandsCase(Case + 1, L.Target, Dir, static_cast<size_t>(Round));
      std::filesystem::remove_all(Dir);
      if (Round == 0) {
        L.Fastest = std::move(Timed);
        continue;
      }
      minInto(L.Fastest.WorkMs, Timed.WorkMs);
    }
  for (uint64_t Case = From; Case != To; ++Case) {
    const Line &L = Lines[Case - From];
    Schedule Cost = schedule(L.Fastest);
    std::printf("islands %llu %s %s %.4f %.4f %.4f %.4f %llu %s\n",
                static_cast<unsigned long long>(Case),
                exactString(L.Champion.Fitness).c_str(),
                exactString(L.Target).c_str(), Cost.WallS, Cost.ToTargetS,
                percentile(L.Fastest.WorkMs, 0.5),
                percentile(L.Fastest.WorkMs, 0.9),
                static_cast<unsigned long long>(L.Fastest.StepFields),
                L.Champion.G.toCompactString().c_str());
  }
  std::fflush(stdout);
}
