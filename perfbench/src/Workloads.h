//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads (README.md gives the reasons for each):
///
///   islands  four ring-connected islands, one thread each, file
///            mailbox, durable checkpoint every generation;
///   table1   the paper's Table 1 sweep of the published agents, 1 worker;
///   faults   the published agents on faulted clones, 1 worker.
///
/// Each workload repeats one pass over its inputs until the run's time is
/// spent and reports timings of its fastest pass (see bestPassIndex).
/// Correctness checks run outside the timed phase.
///
//===----------------------------------------------------------------------===//

#ifndef CA2A_PERFBENCH_WORKLOADS_H
#define CA2A_PERFBENCH_WORKLOADS_H

#include "Report.h"
#include "Trace.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// The champion and time-to-target fitness recorded for one GA input seed.
struct GaRecord {
  bool Present = false;
  double Fitness = 0.0;
  double Target = 0.0;
  /// Used only to group cases: the seconds of the case's timed phase and
  /// until its target, the 50th and 90th percentile of its generation
  /// latency, all on the recording host, and the fields it simulates.
  double Cost = 0.0;
  double TargetCost = 0.0;
  double P50Ms = 0.0;
  double P90Ms = 0.0;
  double Fields = 0.0;
  std::string Champion; ///< Genome::toCompactString().
};

/// One GA run of a pass: its input seed and what is recorded for it.
struct GaCase {
  uint64_t Seed = 0;
  GaRecord Record;
};

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  std::string WorkDir;        ///< Mailboxes, checkpoints, counters, traces.
  std::vector<GaCase> Cases;  ///< islands: the GA runs of a pass.
  uint64_t GaHeldOutSeed = 0; ///< A seed no target was chosen from.
};

/// The islands workload records its champions for this many input seeds.
/// Their run time, in total and until the target, differs by up to 1.5x
/// and 1.8x (pruning and progress depend on the search path). So the cases are
/// split into groups of GaCasesPerPass whose summed costs lie as close to
/// the mean as can be, and a pass runs group seed mod (NumRecordedCases /
/// GaCasesPerPass): every seed's pass then takes about the same time.
constexpr uint64_t NumRecordedCases = 16;
constexpr uint64_t GaCasesPerPass = 4;

/// The cases of \p Seed's pass. Over all ways to split the cases into
/// groups, picks the one whose largest relative distance of a group's
/// summed recorded quantities (costs, latency percentiles, fields) from
/// the mean group's is smallest; groups are ordered by their first case.
std::vector<uint64_t> caseGroup(const std::vector<GaRecord> &Records,
                                uint64_t Seed);

void runIslandsWorkload(const RunOptions &Opts, Report &Out);
void runTable1(const RunOptions &Opts, Report &Out);
void runFaults(const RunOptions &Opts, Report &Out);

/// Prints one islands record line per case in [\p From, \p To): champion
/// and target computed on the reference engine with the scheduler off,
/// costs timed on the timed configuration.
void recordIslandCases(const std::string &WorkDir, uint64_t From,
                       uint64_t To);

/// Runs \p Pass until \p Seconds are spent (a pass that would overrun is
/// not started) and at least \p MinReps (>= 2) passes are done. With
/// \p Trace, odd passes run traced and even ones untraced, so one run
/// yields both the per-layer numbers and the tracing overhead. With
/// \p PinPasses, successive passes (traced and untraced pairs alike) run
/// pinned to successive CPUs, so that one slow CPU cannot set a
/// single-threaded workload's best pass. \p Pass receives whether it is
/// traced.
void repeatPasses(double Seconds, bool Trace, int MinReps, bool PinPasses,
                  const std::function<void(bool Traced)> &Pass);

/// The CPUs this process may run on (empty when they cannot be read).
std::vector<int> allowedCpus();

/// Pins the calling thread to \p Cpu.
void pinThisThread(int Cpu);

/// Index of the smallest of \p WallSeconds: timings are taken from the
/// fastest pass (min of N), which a noisy neighbour can slow but never
/// speed up.
size_t bestPassIndex(const std::vector<double> &WallSeconds);

/// Adds trace.overhead_pct, the best traced wall time against the best
/// untraced one, and the per-layer self seconds per traced pass from the
/// spans recorded so far.
void reportTraceSummary(Report &Out, double UntracedWall, double TracedWall,
                        size_t TracedPasses);

/// Peak resident set size of this process in MiB.
double peakRssMiB();

} // namespace perfbench

#endif // CA2A_PERFBENCH_WORKLOADS_H
