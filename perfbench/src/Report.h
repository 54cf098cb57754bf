//===- perfbench/src/Report.h - Metrics, counters and checks ----*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark run reports, kept in three separate kinds:
///
///   * metrics — named timings and rates with a unit and a sample count;
///     the final stdout line carries them;
///   * deterministic counters — values a fixed seed must reproduce
///     exactly (scheduler and mailbox counts, champions); diffed between
///     the repetitions of a run and against the previous run of the same
///     binary, workload and seed;
///   * checks — correctness comparisons against the reference World and
///     the recorded champions; every failed check counts as a failed
///     operation.
///
//===----------------------------------------------------------------------===//

#ifndef CA2A_PERFBENCH_REPORT_H
#define CA2A_PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Percentile \p Q in [0, 1] of \p V by linear interpolation between
/// closest ranks (0 when empty).
double percentile(std::vector<double> V, double Q);

/// Formats \p V with every significant digit of a double.
std::string exactString(double V);

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  size_t Samples = 0; ///< Timing samples behind the value; 0 for counts.
};

class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit,
              size_t Samples = 0);

  void counter(const std::string &Name, uint64_t Value);
  void counter(const std::string &Name, double Value);
  void counter(const std::string &Name, const std::string &Value);
  const std::map<std::string, std::string> &counters() const {
    return Counters;
  }
  /// Adds counters taken from another Report's counters().
  void mergeCounters(const std::map<std::string, std::string> &Other) {
    Counters.insert(Other.begin(), Other.end());
  }

  /// Free-form facts about the run (host record, timing-dependent counts).
  void info(const std::string &Name, const std::string &Value);
  void info(const std::string &Name, double Value);

  /// Records one correctness comparison; a false \p Ok is a failure.
  void check(bool Ok, const std::string &What);

  /// Adds operations the workload attempted and how many of them failed.
  void operations(uint64_t Attempted, uint64_t Failed);

  bool correct() const { return Failed == 0; }

  /// Counters as one canonical line of JSON, keys sorted.
  std::string countersJson() const;

  /// Compares the counters with the file at \p Path when it exists (a
  /// mismatch is a failed check), and writes them there when it does not.
  void diffCountersWith(const std::string &Path);

  /// Prints the human-readable lines, the report object, and last the
  /// one-line result object.
  void print() const;

private:
  std::vector<Metric> Metrics;
  std::map<std::string, std::string> Counters;
  std::map<std::string, std::string> Info;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

} // namespace perfbench

#endif // CA2A_PERFBENCH_REPORT_H
