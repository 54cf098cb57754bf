//===- perfbench/src/Report.cpp - Metrics, counters and checks ------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &Text) {
  std::string Out = "\"";
  for (char C : Text) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  return std::isfinite(V) ? exactString(V) : "null";
}

template <typename Map> std::string jsonObject(const Map &M) {
  std::string Out = "{";
  for (const auto &[Key, Value] : M) {
    if (Out.size() > 1)
      Out += ", ";
    Out += jsonString(Key) + ": " + Value;
  }
  return Out + "}";
}

} // namespace

double perfbench::median(std::vector<double> V) { return percentile(V, 0.5); }

double perfbench::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

std::string perfbench::exactString(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit, size_t Samples) {
  Metrics.push_back({Name, Value, Unit, Samples});
}

void Report::counter(const std::string &Name, uint64_t Value) {
  Counters[Name] = std::to_string(Value);
}

void Report::counter(const std::string &Name, double Value) {
  Counters[Name] = jsonNumber(Value);
}

void Report::counter(const std::string &Name, const std::string &Value) {
  Counters[Name] = jsonString(Value);
}

void Report::info(const std::string &Name, const std::string &Value) {
  Info[Name] = jsonString(Value);
}

void Report::info(const std::string &Name, double Value) {
  Info[Name] = jsonNumber(Value);
}

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  Failures.push_back(What);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", What.c_str());
}

void Report::operations(uint64_t NumAttempted, uint64_t NumFailed) {
  Attempted += NumAttempted;
  Failed += NumFailed;
  if (NumFailed)
    Failures.push_back(std::to_string(NumFailed) + " failed operations");
}

std::string Report::countersJson() const { return jsonObject(Counters); }

void Report::diffCountersWith(const std::string &Path) {
  std::string Current = countersJson();
  std::ifstream In(Path);
  if (!In) {
    std::ofstream Out(Path);
    Out << Current << '\n';
    check(static_cast<bool>(Out), "write deterministic counters to " + Path);
    return;
  }
  std::string Previous;
  std::getline(In, Previous);
  check(Previous == Current,
        "deterministic counters equal the previous run's (" + Path + ")");
}

void Report::print() const {
  for (const Metric &M : Metrics) {
    if (M.Samples)
      std::printf("metric %-34s %14.6g %-6s (n=%zu)\n", M.Name.c_str(),
                  M.Value, M.Unit.c_str(), M.Samples);
    else
      std::printf("metric %-34s %14.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }
  for (const auto &[Key, Value] : Counters)
    std::printf("counter %-33s %s\n", Key.c_str(), Value.c_str());
  double ErrorRate =
      Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                : 0.0;
  std::printf("error_rate %.6g (%llu failed / %llu attempted)\n", ErrorRate,
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));

  std::map<std::string, std::string> Samples;
  for (const Metric &M : Metrics)
    if (M.Samples)
      Samples[M.Name] = std::to_string(M.Samples);
  std::string Failing = "[";
  for (const std::string &F : Failures)
    Failing += (Failing.size() > 1 ? ", " : "") + jsonString(F);
  Failing += "]";
  std::printf("{\"report\": {\"info\": %s, \"error_rate\": %s, "
              "\"samples\": %s, \"counters\": %s, \"failures\": %s}}\n",
              jsonObject(Info).c_str(), jsonNumber(ErrorRate).c_str(),
              jsonObject(Samples).c_str(), countersJson().c_str(),
              Failing.c_str());

  std::map<std::string, std::string> Values;
  for (const Metric &M : Metrics)
    Values[M.Name] = "{\"value\": " + jsonNumber(M.Value) +
                     ", \"unit\": " + jsonString(M.Unit) + "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              jsonObject(Values).c_str());
  std::fflush(stdout);
}
