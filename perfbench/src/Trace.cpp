//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

using namespace perfbench;

namespace {

std::atomic<uint64_t> NextSpanId{1};
std::atomic<uint32_t> NextThreadIndex{0};

struct ThreadState {
  uint32_t Index = NextThreadIndex.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint64_t> Open; // Ids of the spans open on this thread.
};

ThreadState &threadState() {
  thread_local ThreadState State;
  return State;
}

} // namespace

double perfbench::nowSeconds() {
  static const auto Origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

Tracer &Tracer::global() {
  static Tracer Instance;
  return Instance;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Closed;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  return selfSecondsByLayer(selfSecondsBySpan(spans()));
}

void Tracer::close(Span S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Closed.push_back(std::move(S));
}

Tracer::Scope::Scope(const char *Layer, const char *Name) {
  if (!Tracer::global().enabled())
    return;
  Active = true;
  ThreadState &TS = threadState();
  S.Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = TS.Open.empty() ? 0 : TS.Open.back();
  S.Thread = TS.Index;
  S.Layer = Layer;
  S.Name = Name;
  TS.Open.push_back(S.Id);
  S.Start = nowSeconds();
}

Tracer::Scope::~Scope() {
  if (!Active)
    return;
  S.End = nowSeconds();
  threadState().Open.pop_back();
  Tracer::global().close(std::move(S));
}

Tracer::Adopt::Adopt(uint64_t Parent) {
  if (Parent == 0)
    return;
  Active = true;
  threadState().Open.push_back(Parent);
}

Tracer::Adopt::~Adopt() {
  if (Active)
    threadState().Open.pop_back();
}

std::map<std::pair<std::string, std::string>, double>
perfbench::selfSecondsBySpan(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      Children;
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent].emplace_back(S.Start, S.End);

  std::map<std::pair<std::string, std::string>, double> Self;
  for (const Span &S : Spans) {
    double Covered = 0.0;
    if (auto It = Children.find(S.Id); It != Children.end()) {
      std::vector<std::pair<double, double>> &Kids = It->second;
      std::sort(Kids.begin(), Kids.end());
      double Cursor = S.Start;
      for (const auto &[Lo, Hi] : Kids) {
        double From = std::max(Lo, Cursor);
        double To = std::min(Hi, S.End);
        if (To > From) {
          Covered += To - From;
          Cursor = To;
        }
      }
    }
    Self[{S.Layer, S.Name}] += std::max(0.0, (S.End - S.Start) - Covered);
  }
  return Self;
}

std::map<std::string, double> perfbench::selfSecondsByLayer(
    const std::map<std::pair<std::string, std::string>, double> &BySpan) {
  std::map<std::string, double> Self;
  for (const auto &[Key, Seconds] : BySpan)
    Self[Key.first] += Seconds;
  return Self;
}

bool Tracer::writeJson(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"clock\": \"steady\", \"unit\": \"s\", \"spans\": [");
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "%s\n  {\"id\": %llu, \"parent\": %llu, \"thread\": %u, "
                 "\"layer\": \"%s\", \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f}",
                 I ? "," : "", static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent), S.Thread,
                 S.Layer.c_str(), S.Name.c_str(), S.Start, S.End);
  }
  auto BySpan = selfSecondsBySpan(All);
  std::fprintf(F, "\n], \"self_seconds_by_layer\": {");
  const char *Sep = "";
  for (const auto &[Layer, Seconds] : selfSecondsByLayer(BySpan)) {
    std::fprintf(F, "%s\n  \"%s\": %.9f", Sep, Layer.c_str(), Seconds);
    Sep = ",";
  }
  std::fprintf(F, "\n}, \"self_seconds_by_span\": [");
  Sep = "";
  for (const auto &[Key, Seconds] : BySpan) {
    std::fprintf(F, "%s\n  {\"layer\": \"%s\", \"name\": \"%s\", "
                 "\"self_s\": %.9f}",
                 Sep, Key.first.c_str(), Key.second.c_str(), Seconds);
    Sep = ",";
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
