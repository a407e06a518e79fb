//===- perfbench/cpp/Workload.h - Benchmark workload interface ------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark workload: a seeded input, an op timed end to end through
/// the library's public API, an untimed correctness check of every op,
/// and a serial, span-instrumented replay of one op for the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Trace.h"

#include "core/ParallelAnalysis.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string Workload;
  /// Seeds of the generated scene, the generated portfolio and the
  /// per-op cache-miss subset.
  uint64_t SceneSeed = 1;
  uint64_t PortfolioSeed = 1;
  uint64_t MissSeed = 1;
  /// Pool workers of the timed op.  Two of the host's four: with all
  /// four busy, neighbours' load on the shared host moved op medians
  /// twice as much between runs.
  unsigned Workers = 2;
  /// Directory for shard tapes and cache entries; each set-up creates
  /// and removes its own subdirectory.
  std::string TmpDir;
  /// Expected FNV-1a digest of the merged writeJson report (0 = none
  /// committed for this seed).
  uint64_t ExpectDigest = 0;
};

/// Worker count whose report set-up checks against the 1-worker
/// reference (every timed op checks Config::Workers against it).
inline constexpr unsigned IdentityWorkers = 4;

/// Result of the untimed check of one op.
struct OpCheck {
  /// Tape nodes covered by the op's reports (analysed or cached).
  uint64_t Nodes = 0;
  /// Empty when the op passed.
  std::string Error;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Generation, shard files, cache warm-up and reference checks.
  /// Returns an error message, or empty on success.
  virtual std::string setup(int Instance) = 0;
  /// Untimed preparation of op \p Index.
  virtual void prepare(size_t /*Index*/) {}
  /// The timed op.
  virtual void run() = 0;
  /// Untimed check of the last run().
  virtual OpCheck check() = 0;
  /// Serial replay of one op with spans around every public call;
  /// returns the failed self-checks (empty when all passed).
  virtual std::vector<std::string> traced(Tracer &T, int Op) = 0;
  /// Span names whose summed time is the op's serial work (what the
  /// timed op spreads over the pool).
  virtual std::vector<std::string> workSpans() const = 0;
  /// Merged-report digest established in set-up.
  virtual uint64_t referenceDigest() const = 0;
};

/// The named workload, or nullptr when \p C.Workload is unknown.
std::unique_ptr<Workload> makeWorkload(const Config &C);

/// The portfolio_remerge workload (Portfolio.cpp).
std::unique_ptr<Workload> makePortfolioRemerge(const Config &C);

//===--- Shared helpers -----------------------------------------------===//

/// FNV-1a 64 digest of R.writeJson().
uint64_t reportDigest(const scorpio::ParallelAnalysisResult &R);

std::string hex64(uint64_t V);

/// Tape nodes covered by the shards of \p R.
uint64_t reportNodes(const scorpio::ParallelAnalysisResult &R);

/// Registration of one in-process shard.
struct ShardSpec {
  std::string Name;
  std::function<void()> Record;
  size_t Hint = 0;
};

/// Serial traced replay of in-process shards: records each shard, times
/// the real Analysis::analyse, then re-runs the pipeline stage by stage
/// (sweep backend, DynDFG build, S4, S5) and checks it bit for bit
/// against analyse(); finally merges with ParallelAnalysis::mergeShards
/// and compares the merged report's digest to \p RefDigest.
std::vector<std::string>
tracedInProcess(Tracer &T, const std::vector<ShardSpec> &Shards,
                const scorpio::AnalysisOptions &Opts, uint64_t RefDigest);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
