//===- perfbench/cpp/Portfolio.cpp - Shard re-merge workload --------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// portfolio_remerge: a thousand tiny BlackScholes shard tapes merged
/// through the streaming merge against a 75%-warm result cache, so the
/// fixed per-shard costs — load, checksum and structural gate, cache
/// key, entry read and audit, analyse, in-order fold — dominate.
///
/// Set-up records one .stap shard per option with ParallelAnalysis::run
/// over the Stap transport (what scorpio_shardd produces) and warms a
/// service::ResultCache with a read-write merge, then hard-links the
/// entries into Variants cache directories, each missing an exact,
/// seeded quarter of them.  Op I times one mergeStapStreaming with
/// CacheMode::ReadOnly and the cache audit on against variant
/// I % Variants.
///
/// The timed op writes nothing, and nothing is written between ops: on a
/// journaling file system the cache's write path (verified store, LRU
/// touch on every hit) and even per-op deletions moved the op's median
/// by 25-100% between runs, burying the per-shard costs.  The traced run
/// measures the write path on its own: it replays each op against a
/// writable scratch copy of the op's variant, so every hit pays the LRU
/// touch inside service.lookup, and then stores the missed shards'
/// results into the same copy, as a read-write merge would.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "apps/blackscholes/BlackScholes.h"
#include "service/ResultCache.h"
#include "verify/AbsInt.h"

#include <algorithm>
#include <filesystem>
#include <optional>

using namespace perfbench;
using namespace scorpio;
namespace fs = std::filesystem;

namespace {

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

class PortfolioRemerge final : public Workload {
public:
  explicit PortfolioRemerge(const Config &C) : C(C) {}

  ~PortfolioRemerge() override {
    Caches.clear();
    if (!Root.empty()) {
      std::error_code EC;
      fs::remove_all(Root, EC);
    }
  }

  std::string setup(int Instance) override {
    const size_t N = 1024;
    Root = C.TmpDir + "/portfolio-" + std::to_string(Instance);
    const std::string ShardDir = Root + "/shards";
    std::error_code EC;
    fs::remove_all(Root, EC);
    if (!fs::create_directories(ShardDir, EC))
      return "portfolio_remerge: cannot create " + ShardDir;

    // Record: one shard per option, exactly as analyseBlackScholesSharded
    // registers them, written as compressed .stap files.
    const std::vector<apps::Option> Portfolio =
        apps::generatePortfolio(N, C.PortfolioSeed);
    ParallelAnalysis P;
    for (size_t I = 0; I != N; ++I) {
      const apps::Option O = Portfolio[I];
      P.addShard("opt" + std::to_string(I),
                 [O] { apps::recordBlackScholes(O, RelWidth); }, 64);
    }
    AnalysisOptions Opts;
    Opts.SignificanceMetric = AnalysisOptions::Metric::WidthTimesDerivative;
    TransportOptions Transport;
    Transport.Mode = ShardTransport::Stap;
    Transport.Directory = ShardDir;
    {
      const ParallelAnalysisResult Recorded =
          P.run(Opts, C.Workers, ShardVerification::Off, Transport);
      if (!Recorded.isValid())
        return "portfolio_remerge: recorded report is invalid";
      Ref = reportDigest(Recorded);
    }
    if (C.ExpectDigest != 0 && Ref != C.ExpectDigest)
      return "portfolio_remerge: report digest " + hex64(Ref) +
             " differs from the committed reference " +
             hex64(C.ExpectDigest);
    diag::Expected<std::vector<std::string>> Listed = listStapShards(ShardDir);
    if (!Listed.hasValue() || Listed.value().size() != N)
      return "portfolio_remerge: expected " + std::to_string(N) +
             " shard files";
    Paths = std::move(Listed.value());

    // Reference merges without a cache (every timed op compares its
    // C.Workers merge to the same reference).
    for (unsigned Workers : {1u, IdentityWorkers}) {
      StreamingMergeOptions MO;
      MO.NumThreads = Workers;
      diag::Expected<ParallelAnalysisResult> M =
          ParallelAnalysis::mergeStapStreaming(Paths, MO);
      if (!M.hasValue())
        return "portfolio_remerge: merge failed: " + M.status().message();
      if (reportDigest(M.value()) != Ref)
        return "portfolio_remerge: " + std::to_string(Workers) +
               "-worker streaming merge differs from the recorded run";
    }

    // Warm the cache with a read-write merge (every shard a miss and a
    // store), then prove a fully warm merge serves every shard without
    // a reverse sweep.
    {
      service::ResultCache Warm(Root + "/cache");
      if (!Warm.directoryStatus().isOk())
        return "portfolio_remerge: cache directory unusable";
      for (size_t Pass = 0; Pass != 2; ++Pass) {
        const uint64_t Sweeps0 = Tape::totalReverseSweeps();
        StreamingMergeStats MS;
        std::string Err = merge(Warm, CacheMode::ReadWrite, MS);
        if (!Err.empty())
          return "portfolio_remerge: warm-up: " + Err;
        if (reportDigest(*Last) != Ref)
          return "portfolio_remerge: cached merge differs from the "
                 "recorded run";
        Last.reset();
        const service::ResultCache::Stats S = Warm.stats();
        const uint64_t Sweeps = Tape::totalReverseSweeps() - Sweeps0;
        const bool Ok = Pass == 0 ? MS.CacheMisses == N && S.Stores == N
                                  : MS.CacheHits == N && S.Stores == N &&
                                        Sweeps == 0;
        if (!Ok || S.CorruptEntries != 0 || S.WriteFailures != 0)
          return "portfolio_remerge: unexpected cache counts in warm-up "
                 "pass " +
                 std::to_string(Pass);
      }
    }
    std::vector<std::string> Entries;
    for (const fs::directory_entry &E :
         fs::directory_iterator(Root + "/cache"))
      if (E.path().extension() == ".scrc")
        Entries.push_back(E.path().filename().string());
    std::sort(Entries.begin(), Entries.end());
    if (Entries.size() != N)
      return "portfolio_remerge: expected " + std::to_string(N) +
             " cache entries";

    // The 75%-warm variants, each read once here (the first read of a
    // new link updates its access time) and checked like an op.
    uint64_t State = C.MissSeed * 0x9e3779b97f4a7c15ull;
    for (size_t V = 0; V != Variants; ++V) {
      const std::string Dir = Root + "/cache" + std::to_string(V);
      if (!fs::create_directories(Dir, EC))
        return "portfolio_remerge: cannot create " + Dir;
      std::vector<size_t> Order(N);
      for (size_t I = 0; I != N; ++I)
        Order[I] = I;
      for (size_t I = 0; I != N / 4; ++I)
        std::swap(Order[I], Order[I + splitmix64(State) % (N - I)]);
      for (size_t I = N / 4; I != N; ++I) {
        fs::create_hard_link(Root + "/cache/" + Entries[Order[I]],
                             Dir + "/" + Entries[Order[I]], EC);
        if (EC)
          return "portfolio_remerge: cannot link into " + Dir;
      }
      VariantDirs.push_back(Dir);
      Caches.emplace_back(
          std::make_unique<service::ResultCache>(Dir, /*Writable=*/false));
      prepare(V);
      run();
      if (std::string E = check().Error; !E.empty())
        return "portfolio_remerge: cache variant " + std::to_string(V) +
               ": " + E;
    }
    return "";
  }

  void prepare(size_t Index) override {
    Last.reset();
    Cache = Caches[Index % Caches.size()].get();
  }

  void run() override {
    Before = Cache->stats();
    Sweeps0 = Tape::totalReverseSweeps();
    LastError = merge(*Cache, CacheMode::ReadOnly, LastStats);
  }

  OpCheck check() override {
    OpCheck K;
    const uint64_t Sweeps = Tape::totalReverseSweeps() - Sweeps0;
    if (!LastError.empty()) {
      K.Error = LastError;
      return K;
    }
    K.Nodes = reportNodes(*Last);
    const service::ResultCache::Stats After = Cache->stats();
    const size_t Misses = Paths.size() / 4;
    if (!Last->isValid())
      K.Error = "invalid report";
    else if (reportDigest(*Last) != Ref)
      K.Error = "report digest differs from the reference";
    else if (LastStats.CacheHits != Paths.size() - Misses ||
             LastStats.CacheMisses != Misses ||
             LastStats.CacheAuditRejected != 0 ||
             After.CorruptEntries != Before.CorruptEntries)
      K.Error = "cache counts differ from the expected " +
                std::to_string(Paths.size() - Misses) + " hits / " +
                std::to_string(Misses) + " misses";
    else if (Sweeps != Misses)
      K.Error = "reverse sweeps (" + std::to_string(Sweeps) +
                ") differ from the cache misses";
    return K;
  }

  std::vector<std::string> traced(Tracer &T, int Op) override {
    prepare(size_t(Op));
    std::vector<std::string> Fails;
    // A writable copy of the op's variant: lookups touch the entries
    // they serve and the missed shards are stored into it.
    const std::string ScratchDir = Root + "/traced";
    std::error_code EC;
    fs::remove_all(ScratchDir, EC);
    fs::create_directories(ScratchDir, EC);
    for (const fs::directory_entry &E :
         fs::directory_iterator(VariantDirs[size_t(Op) % VariantDirs.size()]))
      fs::copy_file(E.path(), fs::path(ScratchDir) / E.path().filename(), EC);
    service::ResultCache Scratch(ScratchDir);
    double Bytes = 0;
    for (const std::string &P : Paths) {
      std::error_code EC;
      Bytes += double(fs::file_size(P, EC));
    }
    size_t Hits = 0, HitSweeps = 0;
    // Summed in locals and counted after the op, keeping bookkeeping
    // out of the short shard spans.
    double Nodes = 0, Outputs = 0, MissSweeps = 0;
    std::vector<std::pair<uint64_t, size_t>> Missed; // (key, shard)
    ParallelAnalysisResult Merged;
    std::optional<AnalysisOptions> Reference;
    {
      Tracer::Scope OpSpan(T, "op");
      std::vector<ShardResult> Results;
      Results.reserve(Paths.size());
      for (size_t I = 0; I != Paths.size(); ++I) {
        Tracer::Scope ShardSpan(T, "shard", static_cast<int>(I));
        std::optional<LoadedTape> Held;
        {
          Tracer::Scope S(T, "tapeio.load");
          diag::Expected<LoadedTape> Loaded = loadStap(Paths[I]);
          if (Loaded.hasValue())
            Held.emplace(std::move(Loaded.value()));
          else
            Fails.push_back(Paths[I] + ": " + Loaded.status().message());
        }
        if (!Held)
          break;
        LoadedTape &L = *Held;
        Nodes += double(L.T.size());
        Outputs += double(L.Reg.Outputs.size());
        // mergeStapStreaming's option semantics: every shard analyses
        // under the first shard's META options.
        if (!L.Meta || !L.Meta->HasOptions) {
          Fails.push_back(Paths[I] + ": shard has no META options");
          break;
        }
        if (!Reference)
          Reference = shardMetaOptions(*L.Meta);
        else if (!shardMetaMatches(*L.Meta, *Reference))
          Fails.push_back(Paths[I] + ": META options differ");
        const AnalysisOptions &AO = *Reference;

        uint64_t Key = 0;
        {
          Tracer::Scope S(T, "service.key");
          Key = shardCacheKey(L, AO);
        }
        ShardResult Hit;
        bool Hot = false;
        const uint64_t Sweeps0 = Tape::totalReverseSweeps();
        {
          Tracer::Scope S(T, "service.lookup");
          Hot = Scratch.lookup(Key, Hit);
        }
        if (Hot) {
          bool Clean = false;
          {
            // auditCachedShard for the significance backend.
            Tracer::Scope S(T, "verify.cache_audit");
            verify::AbsIntOptions AbsOpts;
            AbsOpts.SignificanceCap = AO.SignificanceCap;
            const verify::AbsIntResult Abs =
                verify::absInterpret(L.T, L.Reg.Outputs, AbsOpts);
            Clean = Hit.Result.backend() == AO.Backend &&
                    !verify::auditStoredSignificance(
                         Abs, Hit.Result.nodeSignificances(), AbsOpts)
                         .hasErrors();
          }
          HitSweeps += Tape::totalReverseSweeps() - Sweeps0;
          if (!Clean)
            Fails.push_back(Paths[I] + ": cache audit rejected an entry");
          ++Hits;
          Results.push_back(std::move(Hit));
          Tracer::Scope S(T, "release");
          Held.reset();
          continue;
        }
        ShardResult SR;
        {
          Tracer::Scope S(T, "core.analyse_shard");
          SR = ParallelAnalysis::analyseShardTape(std::move(L), AO);
        }
        MissSweeps += double(Tape::totalReverseSweeps() - Sweeps0);
        Missed.emplace_back(Key, I);
        Results.push_back(std::move(SR));
      }
      Tracer::Scope S(T, "core.merge");
      Merged = ParallelAnalysis::mergeShards(std::move(Results));
    }

    // The write path the read-only op leaves out: verified stores of the
    // missed shards.
    {
      Tracer::Scope S(T, "store");
      for (const auto &[Key, I] : Missed) {
        Tracer::Scope S2(T, "service.store", static_cast<int>(I));
        Scratch.store(Key, Merged.shards()[I]);
      }
    }
    const service::ResultCache::Stats SS = Scratch.stats();
    const size_t Stores = SS.Stores;
    if (SS.CorruptEntries != 0 || SS.WriteFailures != 0)
      Fails.push_back("scratch cache counted corrupt entries or write "
                      "failures");
    fs::remove_all(ScratchDir, EC);

    const size_t Misses = Missed.size();
    T.count("tapeio.bytes", Bytes);
    T.count("tape.nodes", Nodes);
    T.count("tape.outputs", Outputs);
    T.count("core.reverse_sweeps", MissSweeps);
    T.count("service.hits", double(Hits));
    T.count("service.misses", double(Misses));
    T.count("service.stores", double(Stores));
    const size_t ExpectMisses = Paths.size() / 4;
    if (Hits != Paths.size() - ExpectMisses || Misses != ExpectMisses ||
        Stores != ExpectMisses)
      Fails.push_back("traced cache counts differ from the expected " +
                      std::to_string(Paths.size() - ExpectMisses) +
                      " hits / " + std::to_string(ExpectMisses) +
                      " misses and stores");
    if (HitSweeps != 0)
      Fails.push_back("cache hits ran reverse sweeps");
    if (reportDigest(Merged) != Ref)
      Fails.push_back("traced merge differs from mergeStapStreaming's "
                      "report");
    return Fails;
  }

  std::vector<std::string> workSpans() const override {
    return {"shard", "core.merge"};
  }
  uint64_t referenceDigest() const override { return Ref; }

private:
  static constexpr double RelWidth = 0.15;
  /// The benchmark's choice, as with scorpio_merge --window 64; the tool
  /// and StreamingMergeOptions default to 4.  With a window of 4 the
  /// consumer and both workers sleep and wake about once per ~50 us
  /// shard; on a virtual machine each wake-up waits for the host to run
  /// a halted vCPU, and op medians doubled whenever the host was busy.
  /// The wait/wake cost of the default window is therefore not measured.
  static constexpr unsigned PrefetchWindow = 64;

  /// One mergeStapStreaming against \p Cache, into Last/\p Stats.
  std::string merge(service::ResultCache &Cache, CacheMode Mode,
                    StreamingMergeStats &Stats) {
    StreamingMergeOptions MO;
    MO.NumThreads = C.Workers;
    MO.PrefetchWindow = PrefetchWindow;
    MO.Cache = Mode;
    MO.ResultCache = &Cache;
    MO.CacheAudit = true;
    diag::Expected<ParallelAnalysisResult> M =
        ParallelAnalysis::mergeStapStreaming(Paths, MO, &Stats);
    if (!M.hasValue())
      return "merge failed: " + M.status().message();
    Last.emplace(std::move(M.value()));
    return "";
  }

  /// Distinct 75%-warm caches the ops rotate through.
  static constexpr size_t Variants = 4;
  Config C;
  std::string Root;
  std::vector<std::string> Paths;
  /// The cache variants' directories and read-only views of them; Cache
  /// is the current op's.
  std::vector<std::string> VariantDirs;
  std::vector<std::unique_ptr<service::ResultCache>> Caches;
  service::ResultCache *Cache = nullptr;
  uint64_t Ref = 0;
  // State of the last timed op.
  std::optional<ParallelAnalysisResult> Last;
  StreamingMergeStats LastStats;
  service::ResultCache::Stats Before;
  uint64_t Sweeps0 = 0;
  std::string LastError;
};

} // namespace

std::unique_ptr<Workload> perfbench::makePortfolioRemerge(const Config &C) {
  return std::make_unique<PortfolioRemerge>(C);
}
