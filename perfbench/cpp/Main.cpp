//===- perfbench/cpp/Main.cpp - scorpio benchmark binary ------------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in this process: set-up (repeated, median reported),
/// then closed-loop ops for --seconds (and at least MinOps), each op
/// timed end to end and checked outside the timed span; the op metrics
/// come from the calm part of the run (calmSample).  With --trace 1
/// each iteration also replays one op serially under spans and reports
/// per-layer metrics instead of the end-to-end ones.
///
/// The last stdout line is one JSON object:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workload.h"

#include "simd/DoubleLanes.h"
#include "support/Json.h"

#include <malloc.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

using namespace perfbench;

/// Checked, untimed ops before the timed ones.
constexpr int WarmupOps = 2;
/// Timed ops an untraced run needs, so that at least ten lie beyond p90.
constexpr size_t MinOps = 100;
/// Consecutive timed ops per block of calmSample.
constexpr size_t CalmBlockOps = 10;

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

struct Args {
  Config C;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int Setups = 7;
  /// Required with --trace 1 (run.py passes layers.json's value).
  double CoverageTolerance = -1;
  std::string OutDir = "perfbench/out";
  std::string History;
  std::string GitSha = "unknown";
  std::string SourceDigest = "unknown";
  bool PrintDigest = false;
};

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "scorpio_perfbench: " << Why << "\n"
            << "usage: scorpio_perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--tmp-dir D] "
               "[--out-dir D] [--history F] [--setups N] "
               "[--scene-seed N] [--portfolio-seed N] [--miss-seed N] "
               "[--expect-digest HEX] "
               "[--coverage-tolerance X (required with --trace 1)] "
               "[--git-sha S] [--source-digest S] [--print-digest]\n";
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool SceneSeed = false, PortfolioSeed = false, MissSeed = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (Flag == "--print-digest") {
      A.PrintDigest = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    const std::string V = Argv[++I];
    const auto U64 = [&] { return std::strtoull(V.c_str(), nullptr, 0); };
    if (Flag == "--workload")
      A.C.Workload = V;
    else if (Flag == "--seed")
      A.Seed = U64();
    else if (Flag == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--tmp-dir")
      A.C.TmpDir = V;
    else if (Flag == "--out-dir")
      A.OutDir = V;
    else if (Flag == "--history")
      A.History = V;
    else if (Flag == "--setups")
      A.Setups = std::max(1, std::atoi(V.c_str()));
    else if (Flag == "--scene-seed")
      A.C.SceneSeed = U64(), SceneSeed = true;
    else if (Flag == "--portfolio-seed")
      A.C.PortfolioSeed = U64(), PortfolioSeed = true;
    else if (Flag == "--miss-seed")
      A.C.MissSeed = U64(), MissSeed = true;
    else if (Flag == "--expect-digest")
      A.C.ExpectDigest = std::strtoull(V.c_str(), nullptr, 16);
    else if (Flag == "--coverage-tolerance")
      A.CoverageTolerance = std::atof(V.c_str());
    else if (Flag == "--git-sha")
      A.GitSha = V;
    else if (Flag == "--source-digest")
      A.SourceDigest = V;
    else
      usage("unknown flag " + Flag);
  }
  if (!makeWorkload(A.C))
    usage("unknown workload '" + A.C.Workload + "'");
  if (A.Seconds <= 0)
    usage("--seconds must be positive");
  if (A.Trace && A.CoverageTolerance < 0)
    usage("--trace 1 needs --coverage-tolerance");
  // --seed drives every generator unless a specific seed is given.
  if (!SceneSeed)
    A.C.SceneSeed = A.Seed;
  if (!PortfolioSeed)
    A.C.PortfolioSeed = A.Seed;
  if (!MissSeed)
    A.C.MissSeed = A.Seed;
  if (A.C.TmpDir.empty())
    A.C.TmpDir = ".bench_build/perfbench-tmp";
  return A;
}

/// Linear-interpolated quantile of sorted \p V (numpy's default).
double quantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  const double Pos = Q * double(Sorted.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Pos - double(Lo));
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return quantile(V, 0.5);
}

/// Indices of the timed ops in the calm part of the run.  On a shared
/// host, neighbours slow whole stretches of a run, by up to half and for
/// seconds at a time, and a p90 pooled over the whole run mostly reads
/// how long those stretches lasted.  So the ops are cut into blocks of
/// CalmBlockOps consecutive ops, the blocks are ranked by their median
/// op time, and the calmest blocks that together hold at least half of
/// the ops, and at least MinOps of them (or all), are the sample every
/// op metric is computed from.  A change that slows every op, or every
/// tenth op, still shows in every block.
std::vector<size_t> calmSample(const std::vector<double> &OpSeconds) {
  std::vector<std::pair<double, size_t>> Blocks; // (median, first op)
  for (size_t B = 0; B < OpSeconds.size(); B += CalmBlockOps) {
    const size_t E = std::min(B + CalmBlockOps, OpSeconds.size());
    Blocks.emplace_back(
        median(std::vector<double>(OpSeconds.begin() + B,
                                   OpSeconds.begin() + E)),
        B);
  }
  std::stable_sort(Blocks.begin(), Blocks.end(),
                   [](const auto &X, const auto &Y) {
                     return X.first < Y.first;
                   });
  const size_t Want = std::max((OpSeconds.size() + 1) / 2, MinOps);
  std::vector<size_t> Sample;
  for (const auto &[Median, B] : Blocks) {
    if (Sample.size() >= Want)
      break;
    for (size_t I = B; I != std::min(B + CalmBlockOps, OpSeconds.size());
         ++I)
      Sample.push_back(I);
  }
  return Sample;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Bytes handed out by the allocator and not yet freed, in MB.  Unlike
/// RSS, this does not depend on how much freed memory the allocator
/// keeps: on portfolio_remerge, peak RSS moved by a third between runs
/// while this moved by under 1%.
double heapInUseMb() {
  const struct mallinfo2 M = mallinfo2();
  return double(M.uordblks + M.hblkhd) / (1024.0 * 1024.0);
}

/// The processor brand string, from CPUID.
std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    const size_t First = S.find_first_not_of(' ');
    return First == std::string::npos ? "unknown" : S.substr(First);
  }
#endif
  return "unknown";
}

/// One reported metric.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void writeStamp(scorpio::JsonWriter &J, const Args &A) {
  J.beginObject();
  J.key("cpu").value(cpuModel());
  J.key("nproc").value(static_cast<long long>(
      std::thread::hardware_concurrency()));
  J.key("compiler").value(std::string("gcc ") + __VERSION__);
  J.key("flags").value(PERFBENCH_FLAGS);
  J.key("simd_native_lanes").value(
      static_cast<long long>(scorpio::simd::NativeLanes));
  J.key("workers").value(static_cast<long long>(A.C.Workers));
  J.key("git_sha").value(A.GitSha);
  J.key("source_digest").value(A.SourceDigest);
  J.key("seeds").beginObject();
  J.key("seed").value(static_cast<long long>(A.Seed));
  J.key("scene").value(static_cast<long long>(A.C.SceneSeed));
  J.key("portfolio").value(static_cast<long long>(A.C.PortfolioSeed));
  J.key("miss").value(static_cast<long long>(A.C.MissSeed));
  J.endObject();
  J.endObject();
}

void writeMetrics(scorpio::JsonWriter &J, const std::vector<Metric> &Ms) {
  J.beginObject();
  for (const Metric &M : Ms) {
    J.key(M.Name).beginObject();
    J.key("value").value(M.Value);
    J.key("unit").value(M.Unit);
    J.endObject();
  }
  J.endObject();
}

/// Per-layer metrics of the traced ops: seconds are per-op sums, the
/// reported value is their median over traced ops; counts are exact per
/// op and must not vary between ops.
struct LayerReport {
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, double>> Ranking; // layer, seconds
  std::vector<std::string> Problems;
};

LayerReport layerMetrics(const Tracer &T, const Workload &W,
                         const std::vector<double> &OpSeconds,
                         unsigned Workers) {
  LayerReport R;
  const auto Seconds = T.secondsByOp();
  const auto &Counts = T.counters();
  const auto SpanMedian = [&](const char *Name) {
    std::vector<double> PerOp;
    for (const auto &[Op, ByName] : Seconds) {
      const auto It = ByName.find(Name);
      PerOp.push_back(It == ByName.end() ? 0.0 : It->second);
    }
    return median(PerOp);
  };
  const auto Count = [&](const char *Name) {
    std::vector<double> PerOp;
    for (const auto &[Op, ByName] : Counts) {
      const auto It = ByName.find(Name);
      PerOp.push_back(It == ByName.end() ? 0.0 : It->second);
    }
    if (std::adjacent_find(PerOp.begin(), PerOp.end(),
                           std::not_equal_to<>()) != PerOp.end())
      R.Problems.push_back(std::string("count ") + Name +
                           " differs between traced ops");
    return PerOp.empty() ? 0.0 : PerOp.front();
  };

  // core.analyse minus the stages it is made of, per op.
  std::vector<double> AnalyseSelf;
  for (const auto &[Op, ByName] : Seconds) {
    const auto Get = [&](const char *N) {
      const auto It = ByName.find(N);
      return It == ByName.end() ? 0.0 : It->second;
    };
    // The stages are timed in a separate pass, so the difference is
    // an estimate; timer noise can push it below zero.
    AnalyseSelf.push_back(
        std::max(0.0, Get("core.analyse") - Get("core.sweep") -
                          Get("graph.build") - Get("graph.s4") -
                          Get("graph.s5")));
  }

  std::vector<double> Work;
  for (const auto &[Op, ByName] : Seconds) {
    double S = 0.0;
    for (const std::string &N : W.workSpans()) {
      const auto It = ByName.find(N);
      if (It != ByName.end())
        S += It->second;
    }
    Work.push_back(S);
  }
  const double OpP50 = median(OpSeconds);
  const double Efficiency =
      OpP50 > 0.0 ? median(Work) / (double(Workers) * OpP50) : 0.0;

  const double Hits = Count("service.hits"), Misses = Count("service.misses");
  R.Metrics = {
      {"tape.record_s", SpanMedian("tape.record"), "s"},
      {"tape.nodes", Count("tape.nodes"), "count"},
      {"tape.outputs", Count("tape.outputs"), "count"},
      {"core.sweep_s", SpanMedian("core.sweep"), "s"},
      {"core.reverse_sweeps", Count("core.reverse_sweeps"), "count"},
      {"core.sweep_node_visits", Count("core.sweep_node_visits"), "count"},
      {"core.analyse_s", SpanMedian("core.analyse"), "s"},
      {"core.analyse_self_s", median(AnalyseSelf), "s"},
      {"core.merge_s", SpanMedian("core.merge"), "s"},
      {"core.analyse_shard_s", SpanMedian("core.analyse_shard"), "s"},
      {"graph.build_s", SpanMedian("graph.build"), "s"},
      {"graph.s4_s", SpanMedian("graph.s4"), "s"},
      {"graph.s5_s", SpanMedian("graph.s5"), "s"},
      {"graph.alive_nodes", Count("graph.alive_nodes"), "count"},
      {"runtime.parallel_efficiency", Efficiency, "ratio"},
      {"tapeio.load_s", SpanMedian("tapeio.load"), "s"},
      {"tapeio.bytes", Count("tapeio.bytes"), "bytes"},
      {"service.key_s", SpanMedian("service.key"), "s"},
      {"service.lookup_s", SpanMedian("service.lookup"), "s"},
      {"service.store_s", SpanMedian("service.store"), "s"},
      {"service.hits", Hits, "count"},
      {"service.misses", Misses, "count"},
      {"service.stores", Count("service.stores"), "count"},
      {"service.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0,
       "ratio"},
      {"verify.cache_audit_s", SpanMedian("verify.cache_audit"), "s"},
  };

  // Self time of each layer inside the op, largest first (the
  // portfolio's store phase runs after the op and is not ranked).
  const auto Value = [&](const std::string &Name) {
    for (const Metric &M : R.Metrics)
      if (M.Name == Name)
        return M.Value;
    return 0.0;
  };
  for (const char *Name :
       {"tape.record_s", "core.sweep_s", "graph.s5_s", "core.analyse_self_s",
        "core.merge_s", "core.analyse_shard_s", "tapeio.load_s",
        "service.key_s", "service.lookup_s", "verify.cache_audit_s"})
    R.Ranking.emplace_back(Name, Value(Name));
  R.Ranking.emplace_back("graph.build_s+graph.s4_s",
                         Value("graph.build_s") + Value("graph.s4_s"));
  std::stable_sort(R.Ranking.begin(), R.Ranking.end(),
                   [](const auto &A, const auto &B) {
                     return A.second > B.second;
                   });
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  std::error_code EC;
  std::filesystem::create_directories(A.C.TmpDir, EC);
  if (EC)
    usage("cannot create --tmp-dir " + A.C.TmpDir);

  std::cout << "perfbench " << A.C.Workload << " seed=" << A.Seed
            << " workers=" << A.C.Workers << " trace=" << A.Trace
            << " seconds=" << A.Seconds << "\n";

  // Set-up, repeated; the last instance is the one measured.
  std::unique_ptr<Workload> W;
  std::vector<double> SetupSeconds;
  std::string SetupError;
  // Heap still held after a set-up or an op.  It is sampled between
  // them, so it misses the transient peak inside an op.
  double RetainedHeap = 0.0;
  for (int I = 0; I != A.Setups && SetupError.empty(); ++I) {
    W.reset();
    W = makeWorkload(A.C);
    const int64_t T0 = nowNs();
    SetupError = W->setup(I);
    SetupSeconds.push_back(double(nowNs() - T0) * 1e-9);
    RetainedHeap = std::max(RetainedHeap, heapInUseMb());
  }
  if (A.PrintDigest) {
    if (!SetupError.empty()) {
      std::cerr << SetupError << "\n";
      return 1;
    }
    std::cout << "digest " << A.C.Workload << " " << A.Seed << " "
              << hex64(W->referenceDigest()) << "\n";
    return 0;
  }

  std::vector<double> OpSeconds, OpNodesPerSecond;
  size_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
  Tracer T;
  int TracedOps = 0;
  if (SetupError.empty()) {
    size_t Op = 0;
    const auto RunOp = [&]() {
      W->prepare(Op);
      const int64_t T0 = nowNs();
      W->run();
      const int64_t T1 = nowNs();
      RetainedHeap = std::max(RetainedHeap, heapInUseMb());
      const OpCheck K = W->check();
      ++Attempted;
      if (!K.Error.empty()) {
        ++Failed;
        Errors.push_back("op " + std::to_string(Op) + ": " + K.Error);
      }
      ++Op;
      return std::make_pair(double(T1 - T0) * 1e-9, K.Nodes);
    };
    // Checked but untimed: the first ops of a process pay page faults
    // and allocator growth that later ops do not.
    for (int I = 0; I != WarmupOps; ++I)
      RunOp();

    // Timed ops.  Untraced runs keep going past --seconds until MinOps
    // ops, for at most a quarter more; traced runs spend half of
    // --seconds here, for the parallel-efficiency base, and half on
    // traced replays.
    const double TimedSeconds = A.Trace ? A.Seconds / 2 : A.Seconds;
    const double Budget = 1.25 * A.Seconds;
    const int64_t Start = nowNs();
    for (;;) {
      const double Elapsed = double(nowNs() - Start) * 1e-9;
      if (Elapsed >= TimedSeconds &&
          (A.Trace || OpSeconds.size() >= MinOps || Elapsed >= Budget))
        break;
      const auto [Seconds, OpNodes] = RunOp();
      OpSeconds.push_back(Seconds);
      OpNodesPerSecond.push_back(double(OpNodes) / Seconds);
    }

    // Traced replays, never mixed into the timed samples.
    const int64_t TraceStart = nowNs();
    while (A.Trace && (TracedOps == 0 || double(nowNs() - TraceStart) *
                                                 1e-9 <
                                             A.Seconds / 2)) {
      T.beginOp(TracedOps);
      std::vector<std::string> Fails = W->traced(T, TracedOps);
      T.endOp();
      ++Attempted;
      if (!Fails.empty()) {
        ++Failed;
        for (std::string &F : Fails)
          Errors.push_back("traced op " + std::to_string(TracedOps) + ": " +
                           F);
      }
      ++TracedOps;
    }
  } else {
    Attempted = Failed = 1;
    Errors.push_back("set-up: " + SetupError);
  }

  std::vector<double> CalmSeconds, CalmNodesPerSecond;
  for (size_t I : calmSample(OpSeconds)) {
    CalmSeconds.push_back(OpSeconds[I]);
    CalmNodesPerSecond.push_back(OpNodesPerSecond[I]);
  }
  std::sort(CalmSeconds.begin(), CalmSeconds.end());
  const double P50 = quantile(CalmSeconds, 0.5),
               P90 = quantile(CalmSeconds, 0.9);
  const size_t Beyond90 = static_cast<size_t>(
      std::count_if(CalmSeconds.begin(), CalmSeconds.end(),
                    [&](double S) { return S > P90; }));

  std::vector<Metric> Metrics;
  std::vector<std::string> Problems;
  std::ostringstream StampJson;
  {
    scorpio::JsonWriter J(StampJson);
    writeStamp(J, A);
  }
  std::cout << "stamp " << StampJson.str() << "\n";
  if (!A.Trace) {
    Metrics = {
        {"op_s_p50", P50, "s"},
        {"op_s_p90", P90, "s"},
        // Median of per-op throughput: a burst of host load skews a
        // total-nodes / total-seconds mean, not the median.
        {"nodes_per_s", median(CalmNodesPerSecond), "nodes/s"},
        {"retained_heap_mb", RetainedHeap, "MB"},
        {"setup_s", median(SetupSeconds), "s"},
    };
    std::printf("op samples %zu, calm sample %zu (%zu beyond p90), "
                "set-up runs %zu:",
                OpSeconds.size(), CalmSeconds.size(), Beyond90,
                SetupSeconds.size());
    for (double S : SetupSeconds)
      std::printf(" %.4g", S);
    std::printf(" s\n");
    std::printf("peak_rss_mb %.6g MB (not gated; see retained_heap_mb)\n",
                peakRssMb());
    std::printf("failed_op_ratio %.6g (%zu of %zu ops)\n",
                Attempted ? double(Failed) / double(Attempted) : 0.0,
                Failed, Attempted);
  } else if (TracedOps > 0) {
    LayerReport L = layerMetrics(T, *W, CalmSeconds, A.C.Workers);
    Metrics = L.Metrics;
    Problems = L.Problems;
    const std::vector<std::string> Uncovered =
        T.uncoveredSpans(A.CoverageTolerance);
    if (!Uncovered.empty())
      Problems.push_back(std::to_string(Uncovered.size()) +
                         " spans not covered by their children within " +
                         std::to_string(A.CoverageTolerance) + ", first: " +
                         Uncovered.front());
    std::filesystem::create_directories(A.OutDir, EC);
    const std::string Base = A.OutDir + "/" + A.C.Workload + "-seed" +
                             std::to_string(A.Seed);
    // Keep the Chrome trace loadable: whole ops up to ~200k events.
    const size_t PerOp = T.spans().size() / size_t(TracedOps);
    const int MaxOps = std::max<int>(
        1, static_cast<int>(200000 / std::max<size_t>(PerOp, 1)));
    if (!T.writeChromeTrace(Base + ".trace.json", MaxOps))
      Problems.push_back("cannot write " + Base + ".trace.json");
    std::ofstream OS(Base + ".summary.json");
    {
      scorpio::JsonWriter J(OS);
      J.beginObject();
      J.key("workload").value(A.C.Workload);
      J.key("stamp");
      writeStamp(J, A);
      J.key("traced_ops").value(static_cast<long long>(TracedOps));
      J.key("trace_ops_written")
          .value(static_cast<long long>(std::min(MaxOps, TracedOps)));
      J.key("timed_op_s_p50").value(P50);
      J.key("span_coverage_tolerance").value(A.CoverageTolerance);
      J.key("layers");
      writeMetrics(J, Metrics);
      J.key("self_time_ranking").beginArray();
      for (const auto &[Name, S] : L.Ranking) {
        J.beginObject();
        J.key("layer").value(Name);
        J.key("seconds").value(S);
        J.endObject();
      }
      J.endArray();
      J.key("largest_layer").value(L.Ranking.front().first);
      J.key("self_checks").beginArray();
      for (const std::string &E : Errors)
        J.value(E);
      for (const std::string &P : Problems)
        J.value(P);
      J.endArray();
      J.endObject();
    }
    OS << "\n";
    std::cout << "trace " << Base << ".trace.json, summary " << Base
              << ".summary.json, largest layer "
              << L.Ranking.front().first << "\n";
  }
  for (const Metric &M : Metrics)
    std::printf("%-28s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  for (size_t I = 0; I != Errors.size() && I != 10; ++I)
    std::cout << "FAIL " << Errors[I] << "\n";
  for (const std::string &P : Problems)
    std::cout << "FAIL " << P << "\n";

  const bool Correct = SetupError.empty() && Failed == 0 && Problems.empty();
  std::ostringstream Result;
  {
    scorpio::JsonWriter J(Result);
    J.beginObject();
    J.key("correct").value(Correct);
    J.key("attempted").value(static_cast<long long>(Attempted));
    J.key("failed").value(static_cast<long long>(Failed));
    J.key("metrics");
    writeMetrics(J, Metrics);
    J.endObject();
  }
  if (!A.History.empty()) {
    std::ofstream H(A.History, std::ios::app);
    scorpio::JsonWriter J(H);
    J.beginObject();
    J.key("workload").value(A.C.Workload);
    J.key("trace").value(A.Trace);
    J.key("stamp");
    writeStamp(J, A);
    J.key("op_samples").value(static_cast<long long>(OpSeconds.size()));
    J.key("calm_samples").value(static_cast<long long>(CalmSeconds.size()));
    J.key("setup_runs").value(static_cast<long long>(SetupSeconds.size()));
    J.key("peak_rss_mb").value(peakRssMb());
    J.key("result");
    J.beginObject();
    J.key("correct").value(Correct);
    J.key("attempted").value(static_cast<long long>(Attempted));
    J.key("failed").value(static_cast<long long>(Failed));
    J.key("metrics");
    writeMetrics(J, Metrics);
    J.endObject();
    J.endObject();
    H << "\n";
  }
  std::cout << Result.str() << std::endl;
  return 0;
}
