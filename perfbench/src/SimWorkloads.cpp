//===- perfbench/src/SimWorkloads.cpp - table1 and faults ----------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "agent/BestAgents.h"
#include "config/InitialConfiguration.h"
#include "sim/BatchEngine.h"
#include "support/Hash.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>

using namespace ca2a;
using namespace perfbench;

namespace {

constexpr int SideLength = 16;
/// Both workloads run the engine on one worker, and successive passes on
/// successive CPUs (see repeatPasses): with several workers a row waits
/// for its slowest CPU, so every row feels any busy neighbour on the host.
constexpr size_t SimWorkers = 1;

// table1: the paper's Table 1 sweep.
constexpr int Table1RandomFields = 1000;
constexpr int Table1MaxSteps = 5000;
const int Table1Densities[] = {2, 4, 8, 16, 32, 256};

// faults: faulted clones of each field.
constexpr int FaultAgents = 8;
constexpr int FaultFields = 160; // 157 random + 3 manual.
constexpr int FaultSeedsPerField = 16;
constexpr int FaultFieldsPerBatch = 16;
constexpr int FaultMaxSteps = 1000;

/// One engine submission: a result row of the workload.
struct Row {
  std::vector<BatchReplica> Replicas;
};

/// Everything one grid's rows need, built during set-up. Replicas point
/// into Fields and Options, which never grow after the rows are built.
struct GridInputs {
  explicit GridInputs(GridKind Kind)
      : T(Kind, SideLength), Engine(T), Agent(&bestAgent(Kind)) {}
  Torus T;
  BatchEngine Engine;
  const Genome *Agent;
  std::vector<InitialConfiguration> Fields;
  std::vector<SimOptions> Options;
  std::vector<Row> Rows;
};

using Inputs = std::vector<std::unique_ptr<GridInputs>>;

/// Builds table1's inputs: per grid, one row per density over 1000 random
/// + 3 manual fields (the packed field alone at 256 agents).
Inputs buildTable1(uint64_t Seed, double &FieldsS) {
  Inputs In;
  for (GridKind Kind : {GridKind::Triangulate, GridKind::Square}) {
    auto G = std::make_unique<GridInputs>(Kind);
    std::vector<size_t> RowStart;
    for (int K : Table1Densities) {
      RowStart.push_back(G->Fields.size());
      double Start = nowSeconds();
      if (K == G->T.numCells()) {
        Tracer::Scope S("config", "packedConfiguration");
        G->Fields.push_back(packedConfiguration(G->T));
      } else {
        Tracer::Scope S("config", "standardConfigurationSet");
        auto Set = standardConfigurationSet(G->T, K, Table1RandomFields,
                                            Seed + static_cast<uint64_t>(K));
        G->Fields.insert(G->Fields.end(), Set.begin(), Set.end());
      }
      FieldsS += nowSeconds() - Start;
    }
    RowStart.push_back(G->Fields.size());
    SimOptions O;
    O.MaxSteps = Table1MaxSteps;
    G->Options.push_back(O);
    for (size_t R = 0; R + 1 != RowStart.size(); ++R) {
      Row Rw;
      for (size_t F = RowStart[R]; F != RowStart[R + 1]; ++F)
        Rw.Replicas.push_back({G->Agent, nullptr, GenomePolicy::Single,
                               &G->Fields[F].Placements, &G->Options[0]});
      G->Rows.push_back(std::move(Rw));
    }
    In.push_back(std::move(G));
  }
  return In;
}

/// Builds faults' inputs: per grid, 160 fields at k = 8, each cloned under
/// 16 fault seeds (stall 0.002, link drop 0.001); one row per 16 fields.
Inputs buildFaults(uint64_t Seed, double &FieldsS) {
  Inputs In;
  for (GridKind Kind : {GridKind::Triangulate, GridKind::Square}) {
    auto G = std::make_unique<GridInputs>(Kind);
    double Start = nowSeconds();
    {
      Tracer::Scope S("config", "standardConfigurationSet");
      G->Fields = standardConfigurationSet(G->T, FaultAgents, FaultFields - 3,
                                           Seed);
    }
    FieldsS += nowSeconds() - Start;
    G->Options.reserve(G->Fields.size() * FaultSeedsPerField);
    for (size_t F = 0; F != G->Fields.size(); ++F)
      for (int J = 0; J != FaultSeedsPerField; ++J) {
        SimOptions O;
        O.MaxSteps = FaultMaxSteps;
        O.Faults.StallProbability = 0.002;
        O.Faults.LinkDropProbability = 0.001;
        Fnv1aHasher H;
        H.mixWord(Seed);
        H.mixWord(static_cast<uint64_t>(Kind));
        H.mixWord(F);
        H.mixWord(static_cast<uint64_t>(J));
        O.Faults.Seed = H.value();
        G->Options.push_back(O);
      }
    for (size_t F = 0; F != G->Fields.size(); ++F) {
      if (F % FaultFieldsPerBatch == 0)
        G->Rows.emplace_back();
      for (int J = 0; J != FaultSeedsPerField; ++J)
        G->Rows.back().Replicas.push_back(
            {G->Agent, nullptr, GenomePolicy::Single,
             &G->Fields[F].Placements,
             &G->Options[F * FaultSeedsPerField + static_cast<size_t>(J)]});
    }
    In.push_back(std::move(G));
  }
  return In;
}

struct SimWorkload {
  const char *Name;
  Inputs (*Build)(uint64_t Seed, double &FieldsS);
};

/// Batch-engine counters summed over a pass's submissions.
struct EngineTotals {
  uint64_t Replicas = 0;
  uint64_t Retries = 0;
  uint64_t Failed = 0;
  uint64_t CompileHits = 0;
  uint64_t CompileMisses = 0;
  uint64_t Allocations = 0;
  uint64_t SteadyAllocations = 0;
  uint64_t SlabsFormed = 0;
  uint64_t SlabLanes = 0;
  uint64_t LanesRetiredEarly = 0;
  uint64_t LanesConverged = 0;
  double BusyS = 0.0;
  SimdBackend Backend = SimdBackend::Auto;

  void add(const BatchRunStats &S) {
    Replicas += S.ReplicasSimulated;
    Retries += S.TaskRetries;
    Failed += S.ReplicasFailed;
    CompileHits += S.CompileHits;
    CompileMisses += S.CompileMisses;
    Allocations += S.Allocations;
    SteadyAllocations += S.SteadyAllocations;
    SlabsFormed += S.SlabsFormed;
    SlabLanes += S.SlabLanesEnrolled;
    LanesRetiredEarly += S.LanesRetiredEarly;
    LanesConverged += S.LanesConverged;
    for (double B : S.WorkerBusySeconds)
      BusyS += B;
    Backend = S.BackendUsed;
  }
};

struct SimPass {
  double SetupS = 0.0;
  double FieldsS = 0.0;
  double WallS = 0.0;
  double FirstGridS = 0.0; ///< Until every row of the first grid is done.
  size_t FirstGridRows = 0;
  std::vector<double> RowMs;
  std::vector<std::vector<SimResult>> Results; ///< Per row, grids in order.
  size_t Mismatches = 0; ///< Results that differ from the first pass's.
  EngineTotals Engine;
};

/// Runs every row of \p In on \p Backend; appends the results.
double runRows(const Inputs &In, SimdBackend Backend, size_t Workers,
               const char *Layer, const char *SpanName, SimPass &P) {
  double Start = nowSeconds();
  for (size_t G = 0; G != In.size(); ++G) {
    for (const Row &Rw : In[G]->Rows) {
      BatchRunStats Stats;
      BatchRunOptions O;
      O.NumWorkers = Workers;
      O.Stats = &Stats;
      O.Backend = Backend;
      double RowStart = nowSeconds();
      {
        Tracer::Scope S(Layer, SpanName);
        P.Results.push_back(In[G]->Engine.run(Rw.Replicas, O));
      }
      double RowEnd = nowSeconds();
      P.RowMs.push_back((RowEnd - RowStart) * 1e3);
      P.Engine.add(Stats);
    }
    if (G == 0) {
      P.FirstGridS = nowSeconds() - Start;
      P.FirstGridRows = P.RowMs.size();
    }
  }
  return nowSeconds() - Start;
}

SimPass simPass(const SimWorkload &W, uint64_t Seed) {
  Tracer::Scope Root("bench", W.Name);
  SimPass P;
  double T0 = nowSeconds();
  Inputs In = W.Build(Seed, P.FieldsS);
  P.SetupS = nowSeconds() - T0;
  P.WallS = runRows(In, SimdBackend::Auto, SimWorkers, "sim",
                    "BatchEngine::run", P);
  return P;
}

/// The reference World on every replica of \p In, one World::run span per
/// replica when traced. Returns the seconds spent.
double worldResults(const Inputs &In,
                    std::vector<std::vector<SimResult>> &Out) {
  double Seconds = 0.0;
  for (const auto &G : In) {
    World Wd(G->T);
    for (const Row &Rw : G->Rows) {
      std::vector<SimResult> Row;
      for (const BatchReplica &R : Rw.Replicas) {
        double Start = nowSeconds();
        Wd.reset(*R.A, *R.Placements, *R.Options);
        {
          Tracer::Scope S("sim", "World::run");
          Row.push_back(Wd.run());
        }
        Seconds += nowSeconds() - Start;
      }
      Out.push_back(std::move(Row));
    }
  }
  return Seconds;
}

uint64_t resultsDigest(const std::vector<std::vector<SimResult>> &Results) {
  Fnv1aHasher H;
  for (const auto &Row : Results)
    for (const SimResult &R : Row) {
      H.mixWord(R.Success);
      H.mixWord(static_cast<uint64_t>(R.TComm));
      H.mixWord(static_cast<uint64_t>(R.InformedAgents));
      H.mixWord(static_cast<uint64_t>(R.SurvivingAgents));
      H.mixWord(static_cast<uint64_t>(R.Faults.total()));
    }
  return H.value();
}

size_t countReplicas(const std::vector<std::vector<SimResult>> &Results) {
  size_t N = 0;
  for (const auto &Row : Results)
    N += Row.size();
  return N;
}

/// Solved count and mean t_comm of one row.
std::pair<int, double> rowSummary(const std::vector<SimResult> &Row) {
  int Solved = 0;
  double Sum = 0.0;
  for (const SimResult &R : Row)
    if (R.Success) {
      ++Solved;
      Sum += R.TComm;
    }
  return {Solved, Solved ? Sum / Solved : 0.0};
}

/// table1's extra gate: per density, solved counts and mean t_comm equal
/// World's (implied by the per-replica check, reported per row here), and
/// the T/S ratio of mean t_comm lies in [0.55, 0.80].
void checkTable1Shape(Report &Out,
                      const std::vector<std::vector<SimResult>> &Engine,
                      const std::vector<std::vector<SimResult>> &Ref) {
  size_t NumRows = std::size(Table1Densities);
  for (size_t R = 0; R != NumRows; ++R) {
    int K = Table1Densities[R];
    auto [TSolved, TMean] = rowSummary(Engine[R]);
    auto [SSolved, SMean] = rowSummary(Engine[NumRows + R]);
    for (size_t G = 0; G != 2; ++G) {
      auto Mine = rowSummary(Engine[G * NumRows + R]);
      auto Theirs = rowSummary(Ref[G * NumRows + R]);
      Out.check(Mine == Theirs,
                "table1: k=" + std::to_string(K) + (G ? " S" : " T") +
                    " solved count and mean t_comm equal World's");
    }
    double Ratio = SMean > 0.0 ? TMean / SMean : 0.0;
    Out.counter("table1.k" + std::to_string(K) + ".solved_T",
                static_cast<uint64_t>(TSolved));
    Out.counter("table1.k" + std::to_string(K) + ".solved_S",
                static_cast<uint64_t>(SSolved));
    Out.counter("table1.k" + std::to_string(K) + ".ratio", Ratio);
    Out.check(Ratio >= 0.55 && Ratio <= 0.80,
              "table1: k=" + std::to_string(K) + " T/S ratio " +
                  exactString(Ratio) + " within [0.55, 0.80]");
  }
}

std::vector<double> passValues(const std::vector<SimPass> &Passes,
                               double SimPass::*Field) {
  std::vector<double> Out;
  for (const SimPass &P : Passes)
    Out.push_back(P.*Field);
  return Out;
}

/// The fastest pass, with each row's time replaced by that row's fastest
/// time over \p Passes: rows are fixed units of deterministic work, so the
/// best pass is put together row by row (see bestPassIndex).
SimPass bestPass(const std::vector<SimPass> &Passes) {
  SimPass Best = Passes[bestPassIndex(passValues(Passes, &SimPass::WallS))];
  for (const SimPass &P : Passes)
    for (size_t R = 0; R != Best.RowMs.size(); ++R)
      Best.RowMs[R] = std::min(Best.RowMs[R], P.RowMs[R]);
  Best.WallS = Best.FirstGridS = 0.0;
  for (size_t R = 0; R != Best.RowMs.size(); ++R) {
    Best.WallS += Best.RowMs[R] / 1e3;
    if (R < Best.FirstGridRows)
      Best.FirstGridS += Best.RowMs[R] / 1e3;
  }
  return Best;
}

/// One time per block: the first grid's row plus the second grid's row at
/// the same place in the row order (table1: the same density; faults: the
/// same 16 field indices). The T-grid rows cost less than the S-grid ones,
/// so a percentile over single rows would fall in the gap between the two
/// groups, where it moves with the inputs of the seed.
std::vector<double> blockMs(const SimPass &P) {
  std::vector<double> Out;
  for (size_t R = 0; R != P.FirstGridRows; ++R)
    Out.push_back(P.RowMs[R] + P.RowMs[P.FirstGridRows + R]);
  return Out;
}

void runSim(const SimWorkload &W, const RunOptions &Opts, Report &Out) {
  std::vector<SimPass> Untraced, Traced;
  // Only the first pass keeps its results; later passes are compared with
  // them as they finish, so memory does not grow with the pass count.
  std::vector<std::vector<SimResult>> First;
  repeatPasses(Opts.Seconds, Opts.Trace, 3, /*PinPasses=*/true,
               [&](bool IsTraced) {
    SimPass P = simPass(W, Opts.Seed);
    if (First.empty()) {
      First = std::move(P.Results);
    } else {
      for (size_t R = 0; R != First.size(); ++R)
        for (size_t J = 0; J != First[R].size(); ++J)
          P.Mismatches += P.Results[R][J] != First[R][J];
    }
    P.Results = {};
    (IsTraced ? Traced : Untraced).push_back(std::move(P));
  });
  double PeakRss = peakRssMiB();
  std::vector<SimPass> All = Untraced;
  All.insert(All.end(), Traced.begin(), Traced.end());
  if (Opts.Trace)
    reportTraceSummary(Out, bestPass(Untraced).WallS, bestPass(Traced).WallS,
                       Traced.size());

  // Correctness, outside the timed phase: the first pass equals the
  // reference World replica by replica, and every later pass the first.
  double Unused = 0.0;
  Inputs In = W.Build(Opts.Seed, Unused);
  std::vector<std::vector<SimResult>> Ref;
  Tracer::global().setEnabled(Opts.Trace);
  double WorldS = worldResults(In, Ref);
  Tracer::global().setEnabled(false);
  size_t Mismatches = 0;
  for (size_t R = 0; R != Ref.size(); ++R)
    for (size_t J = 0; J != Ref[R].size(); ++J)
      Mismatches += First[R][J] != Ref[R][J];
  Out.check(Mismatches == 0, std::string(W.Name) + ": pass 0 has " +
                                 std::to_string(Mismatches) +
                                 " SimResults that differ from World's");
  for (size_t I = 0; I != All.size(); ++I) {
    const SimPass &P = All[I];
    Out.operations(P.Engine.Replicas, P.Engine.Failed);
    if (I != 0)
      Out.check(P.Mismatches == 0,
                std::string(W.Name) + ": pass " + std::to_string(I) +
                    " has " + std::to_string(P.Mismatches) +
                    " SimResults that differ from pass 0's");
  }
  if (std::string(W.Name) == "table1")
    checkTable1Shape(Out, First, Ref);

  const EngineTotals &E0 = All.front().Engine;
  Out.counter("sim.batch.replicas", E0.Replicas);
  Out.counter("sim.batch.slabs_formed", E0.SlabsFormed);
  Out.counter("sim.batch.slab_lanes", E0.SlabLanes);
  Out.counter("sim.batch.lanes_retired_early", E0.LanesRetiredEarly);
  Out.counter("sim.batch.lanes_converged", E0.LanesConverged);
  Out.counter("results_digest", resultsDigest(First));
  Out.info("auto_backend", simdBackendName(E0.Backend));

  if (!Opts.Trace) {
    // Timings of the row-by-row fastest pass; set-up as the median.
    size_t N = Untraced.size();
    SimPass Best = bestPass(Untraced);
    Out.metric("setup_s", median(passValues(Untraced, &SimPass::SetupS)), "s",
               N);
    Out.metric("wall_s", Best.WallS, "s", N);
    std::vector<double> Blocks = blockMs(Best);
    Out.metric("gens_per_s", static_cast<double>(Blocks.size()) / Best.WallS,
               "1/s", N);
    Out.metric("time_to_target_s", Best.FirstGridS, "s", N);
    Out.metric("gen_ms_p50", percentile(Blocks, 0.5), "ms", Blocks.size());
    Out.metric("gen_ms_p90", percentile(Blocks, 0.9), "ms", Blocks.size());
    Out.metric("replicas_per_s",
               static_cast<double>(Best.Engine.Replicas) / Best.WallS, "1/s",
               N);
    Out.metric("peak_rss_mb", PeakRss, "MiB");
    return;
  }

  // Per-layer numbers: counts from any traced pass, timings from the
  // row-by-row fastest one.
  size_t N = Traced.size();
  SimPass Best = bestPass(Traced);
  const EngineTotals &E = Best.Engine;
  uint64_t Compiles = E.CompileHits + E.CompileMisses;
  Out.metric("config.fields_s", median(passValues(Traced, &SimPass::FieldsS)),
             "s", N);
  Out.metric("sim.batch.busy_s", E.BusyS, "s", N);
  Out.metric("sim.batch.replicas", static_cast<double>(E.Replicas), "count");
  Out.metric("sim.batch.replicas_per_s",
             static_cast<double>(E.Replicas) / Best.WallS, "1/s", N);
  Out.metric("sim.batch.compile_hit_rate",
             Compiles ? static_cast<double>(E.CompileHits) /
                            static_cast<double>(Compiles)
                      : 0.0,
             "ratio");
  Out.metric("sim.batch.allocations", static_cast<double>(E.Allocations),
             "count");
  Out.metric("sim.batch.steady_allocations",
             static_cast<double>(E.SteadyAllocations), "count");
  Out.metric("sim.batch.retries", static_cast<double>(E.Retries), "count");
  Out.metric("sim.batch.failed", static_cast<double>(E.Failed), "count");
  // Only the rmaj64 kernel forms slabs; under any other backend the slab
  // metrics do not apply and run.py lists them as not applicable.
  if (E.Backend == SimdBackend::RMaj64) {
    Out.metric("sim.batch.slabs_formed", static_cast<double>(E.SlabsFormed),
               "count");
    Out.metric("sim.batch.slab_occupancy",
               E.SlabsFormed ? static_cast<double>(E.SlabLanes) /
                                   static_cast<double>(E.SlabsFormed)
                             : 0.0,
               "lanes");
    Out.metric("sim.batch.lanes_retired_early",
               static_cast<double>(E.LanesRetiredEarly), "count");
    Out.metric("sim.batch.lanes_converged",
               static_cast<double>(E.LanesConverged), "count");
  }

  // One row per backend over the same replica set and worker count, and the
  // reference World (serial) timed above; each must reproduce World.
  double Replicas = static_cast<double>(countReplicas(Ref));
  Out.metric("sim.world.replicas_per_s", Replicas / WorldS, "1/s");
  Tracer::global().setEnabled(true);
  for (SimdBackend B : {SimdBackend::Scalar, SimdBackend::Sliced64,
                        SimdBackend::AVX2, SimdBackend::RMaj64}) {
    std::string Name = simdBackendName(B);
    if (!simdBackendAvailable(B)) {
      Out.info("backend." + Name, "unavailable");
      continue;
    }
    std::string Span = "BatchEngine::run[" + Name + "]";
    SimPass P;
    double Seconds = runRows(In, B, SimWorkers, "sim/simd", Span.c_str(), P);
    Out.metric("sim.backend." + Name + ".replicas_per_s", Replicas / Seconds,
               "1/s");
    Out.check(P.Results == Ref,
              std::string(W.Name) + ": backend " + Name +
                  " reproduces World on every replica");
    if (B == SimdBackend::RMaj64) {
      Out.counter("rmaj64.slabs_formed", P.Engine.SlabsFormed);
      Out.counter("rmaj64.slab_lanes", P.Engine.SlabLanes);
      Out.counter("rmaj64.lanes_retired_early", P.Engine.LanesRetiredEarly);
      Out.counter("rmaj64.lanes_converged", P.Engine.LanesConverged);
    }
  }
  Tracer::global().setEnabled(false);
}

} // namespace

void perfbench::runTable1(const RunOptions &Opts, Report &Out) {
  runSim({"table1", buildTable1}, Opts, Out);
}

void perfbench::runFaults(const RunOptions &Opts, Report &Out) {
  runSim({"faults", buildFaults}, Opts, Out);
}
