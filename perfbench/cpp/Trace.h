//===- perfbench/cpp/Trace.h - In-memory spans for the traced run ---------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span and counter recorder used by the benchmark's traced run.  Spans
/// are opened around the benchmark's own calls into each library layer
/// (recorder, sweep backend, DynDFG, TapeIO, ResultCache, ...), carry
/// their name, start/end, parent, op id and shard index, and stay in
/// memory until the run ends.  Counters are exact per-op sums keyed by
/// metric name.  The recorder is single-threaded: the traced run replays
/// an op's shards serially.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed span.  Parent is an index into Tracer::spans(), -1 for an
/// op's root span.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  int32_t Op = 0;
  int32_t Shard = -1;
  double seconds() const { return double(EndNs - StartNs) * 1e-9; }
};

class Tracer {
public:
  /// RAII span: opened on construction under the innermost open span,
  /// closed on destruction.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, int Shard = -1);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Id;
  };

  /// Starts op \p Op; spans opened until endOp() belong to it.
  void beginOp(int Op);
  void endOp();

  /// Adds \p V to counter \p Name of the current op.
  void count(const std::string &Name, double V);

  const std::vector<Span> &spans() const { return Spans; }
  /// Per-op counters, indexed by op id.
  const std::map<int, std::map<std::string, double>> &counters() const {
    return Counters;
  }

  /// Summed seconds per span name, per op id.
  std::map<int, std::map<std::string, double>> secondsByOp() const;

  /// Span names whose spans' children, summed over the run, cover less
  /// than (1 - Tolerance) of the spans' summed duration, one line each.
  /// Leaf spans (no children) are exempt.
  std::vector<std::string> uncoveredSpans(double Tolerance) const;

  /// Chrome Trace-Event JSON of every span of ops < \p MaxOps: complete
  /// ("X") events in microseconds with op, shard and parent as args.
  /// Opens in Perfetto or chrome://tracing.
  bool writeChromeTrace(const std::string &Path, int MaxOps) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  std::map<int, std::map<std::string, double>> Counters;
  int CurrentOp = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
