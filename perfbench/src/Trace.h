//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into the library's
/// public functions. Each span names the module (layer) it enters, its
/// start and end on one steady clock, and the span that was open on the
/// same thread when it began (its parent). Spans live in memory and are
/// written out once, at the end of a run.
///
/// A layer's self time is the duration of its spans minus the part of each
/// span that its child spans cover; time in the benchmark's own root spans
/// that no library call covers is reported under the layer "bench".
///
/// When the tracer is disabled a Scope reads no clock and records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CA2A_PERFBENCH_TRACE_H
#define CA2A_PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double nowSeconds();

struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  uint32_t Thread = 0; ///< Small per-thread index, in order of first use.
  std::string Layer;   ///< "bench", "config", "sim", "sim/simd", "ga", "dist".
  std::string Name;    ///< The public function called, e.g. "World::run".
  double Start = 0.0;
  double End = 0.0;
};

class Tracer {
public:
  /// The recorder every Scope writes to.
  static Tracer &global();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Copies of the spans closed so far, in closing order.
  std::vector<Span> spans() const;

  /// Self seconds per layer over every span recorded so far.
  std::map<std::string, double> selfSeconds() const;

  /// Writes the spans, and the self seconds per layer and per (layer, span
  /// name), as one JSON document. Returns false on an I/O error.
  bool writeJson(const std::string &Path) const;

  /// Opens a span on construction and closes it on destruction.
  class Scope {
  public:
    Scope(const char *Layer, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// This span's id (0 when the tracer is disabled).
    uint64_t id() const { return S.Id; }

  private:
    bool Active = false;
    Span S;
  };

  /// Makes \p Parent, a span open on another thread, the parent of the
  /// spans this thread opens while the Adopt lives.
  class Adopt {
  public:
    explicit Adopt(uint64_t Parent);
    ~Adopt();
    Adopt(const Adopt &) = delete;
    Adopt &operator=(const Adopt &) = delete;

  private:
    bool Active = false;
  };

private:
  void close(Span S);

  std::atomic<bool> Enabled{false};
  mutable std::mutex Mutex; // Guards Closed.
  std::vector<Span> Closed;
};

/// Self seconds per (layer, span name) of \p Spans: each span's duration
/// minus the union of its children's intervals clipped to it.
std::map<std::pair<std::string, std::string>, double>
selfSecondsBySpan(const std::vector<Span> &Spans);

/// The per-layer sums of selfSecondsBySpan.
std::map<std::string, double> selfSecondsByLayer(
    const std::map<std::pair<std::string, std::string>, double> &BySpan);

} // namespace perfbench

#endif // CA2A_PERFBENCH_TRACE_H
