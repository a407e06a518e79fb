//===- perfbench/cpp/InProcess.cpp - Sobel and DCT workloads --------------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process workloads: one op is a whole sharded ParallelAnalysis
/// run (record + analyse + merge on the pool).
///
///  * sobel_tiles   — apps::analyseSobelTiles, 24x24 tiles, PerOutput:
///                    sparse per-pixel cones, sweep-dominated.
///  * dct_peroutput — one shard per 8x8 block of apps::recordDctPipeline,
///                    PerOutput: dense cones, sweep-dominated.
///  * dct_combined  — the same shards under the default CombinedSeed
///                    options: one sweep per block, DynDFG build + S4
///                    dominate.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "apps/dct/Dct.h"
#include "apps/sobel/Sobel.h"
#include "core/SweepBackends.h"
#include "quality/Image.h"

#include <cstring>
#include <optional>
#include <sstream>

using namespace perfbench;
using namespace scorpio;

//===--- Shared helpers -----------------------------------------------===//

namespace {

/// Output buffer that FNV-1a-hashes the bytes written through it, so a
/// report digest never materializes the report.
class HashBuf final : public std::streambuf {
public:
  uint64_t Hash = 0xcbf29ce484222325ull;

private:
  void mix(unsigned char C) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  int_type overflow(int_type C) override {
    if (!traits_type::eq_int_type(C, traits_type::eof()))
      mix(static_cast<unsigned char>(C));
    return traits_type::not_eof(C);
  }
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    for (std::streamsize I = 0; I != N; ++I)
      mix(static_cast<unsigned char>(S[I]));
    return N;
  }
};

} // namespace

uint64_t perfbench::reportDigest(const ParallelAnalysisResult &R) {
  HashBuf Buf;
  std::ostream OS(&Buf);
  R.writeJson(OS);
  return Buf.Hash;
}

std::string perfbench::hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

uint64_t perfbench::reportNodes(const ParallelAnalysisResult &R) {
  uint64_t N = 0;
  for (const ShardResult &S : R.shards())
    N += S.Result.nodeSignificances().size();
  return N;
}

std::vector<std::string>
perfbench::tracedInProcess(Tracer &T, const std::vector<ShardSpec> &Shards,
                           const AnalysisOptions &Opts, uint64_t RefDigest) {
  std::vector<std::string> Fails;
  const auto Fail = [&](size_t Shard, const std::string &What) {
    Fails.push_back(Shards[Shard].Name + ": " + What);
  };
  ParallelAnalysisResult Merged;
  {
    Tracer::Scope OpSpan(T, "op");
    std::vector<ShardResult> Results;
    Results.reserve(Shards.size());
    for (size_t I = 0; I != Shards.size(); ++I) {
      std::optional<Analysis> Live;
      DynDFG G;
      std::vector<double> PerNode;
      double Total = 0.0;
      int Level = -1;
      size_t Alive = 0;
      int Height = 0;
      ShardResult SR;
      SR.Name = Shards[I].Name;
      SR.Index = I;
      {
        Tracer::Scope ShardSpan(T, "shard", static_cast<int>(I));
        Analysis &A = Live.emplace();
        if (Shards[I].Hint != 0)
          A.tape().reserve(Shards[I].Hint);
        {
          Tracer::Scope S(T, "tape.record");
          Shards[I].Record();
        }
        const uint64_t Sweeps0 = Tape::totalReverseSweeps();
        {
          Tracer::Scope S(T, "core.analyse");
          SR.Result = A.analyse(Opts);
        }
        const uint64_t Sweeps1 = Tape::totalReverseSweeps();
        // The same pipeline stage by stage, through the public calls
        // analyse() makes.
        {
          Tracer::Scope S(T, "core.stages");
          PerNode.assign(A.tape().size(), 0.0);
          {
            Tracer::Scope S2(T, "core.sweep");
            sweepBackendFor(Opts.Backend)
                .run(A.tape(), A.outputNodes(), Opts, PerNode, Total);
          }
          {
            Tracer::Scope S2(T, "graph.build");
            G = DynDFG::fromTape(A.tape(), PerNode, A.labels(),
                                 A.outputNodes());
          }
          {
            Tracer::Scope S2(T, "graph.s4");
            if (Opts.Simplify)
              G.simplify();
          }
          {
            Tracer::Scope S2(T, "graph.s5");
            Level = G.findSignificanceVarianceLevel(
                Opts.Delta, Total > 0.0 ? Total : 1.0);
          }
        }
        const uint64_t Sweeps2 = Tape::totalReverseSweeps();
        T.count("tape.nodes", double(A.tape().size()));
        T.count("tape.outputs", double(A.numOutputs()));
        T.count("core.reverse_sweeps", double(Sweeps1 - Sweeps0));
        // Computed, not sampled: passes of the staged sweep x nodes.
        T.count("core.sweep_node_visits",
                double(Sweeps2 - Sweeps1) * double(A.tape().size()));
        Alive = G.numAlive();
        Height = G.height();
        T.count("graph.alive_nodes", double(Alive));
        // The tape goes as in the pooled run; the staged graph is the
        // replay's own.
        Tracer::Scope S(T, "release");
        Live.reset();
        G = DynDFG();
      }

      const std::span<const double> Ref = SR.Result.nodeSignificances();
      if (Ref.size() != PerNode.size() ||
          std::memcmp(Ref.data(), PerNode.data(),
                      PerNode.size() * sizeof(double)) != 0)
        Fail(I, "staged sweep significances differ from analyse()");
      const double RefTotal = SR.Result.outputSignificance();
      if (std::memcmp(&Total, &RefTotal, sizeof(double)) != 0)
        Fail(I, "staged output significance differs from analyse()");
      if (Level != SR.Result.varianceLevel())
        Fail(I, "staged variance level differs from analyse()");
      if (Alive != SR.Result.graphAliveNodes())
        Fail(I, "staged alive-node count differs from analyse()");
      if (Height != SR.Result.graphHeight())
        Fail(I, "staged graph height differs from analyse()");
      Results.push_back(std::move(SR));
    }
    Tracer::Scope S(T, "core.merge");
    Merged = ParallelAnalysis::mergeShards(std::move(Results));
  }
  if (!Merged.isValid())
    Fails.push_back("traced merge is invalid");
  if (reportDigest(Merged) != RefDigest)
    Fails.push_back("traced merge differs from the timed op's report");
  return Fails;
}

namespace {

/// Serial record + analyse of every shard, merged: the plain reference
/// the set-up compares the pooled runs against.
ParallelAnalysisResult serialReport(const std::vector<ShardSpec> &Shards,
                                    const AnalysisOptions &Opts) {
  std::vector<ShardResult> Results;
  for (size_t I = 0; I != Shards.size(); ++I) {
    Analysis A;
    Shards[I].Record();
    ShardResult SR;
    SR.Name = Shards[I].Name;
    SR.Index = I;
    SR.Result = A.analyse(Opts);
    Results.push_back(std::move(SR));
  }
  return ParallelAnalysis::mergeShards(std::move(Results));
}

//===--- sobel_tiles --------------------------------------------------===//

// apps::analyseSobelTiles records each tile with a function local to
// apps/sobel/Sobel.cpp.  The traced run needs to time that recording on
// its own, so it uses this copy; set-up proves the copy's merged report
// is byte-identical to the app's.

template <typename T>
void blockA(const T &W, const T &E, const T &N, const T &S, T &Gx, T &Gy) {
  Gx = 2.0 * E - 2.0 * W;
  Gy = 2.0 * S - 2.0 * N;
}

template <typename T>
void blockB(const T &NW, const T &NE, const T &SW, const T &SE, T &Gx,
            T &Gy) {
  Gx = (NE - NW) + (SE - SW);
  Gy = T(0.0);
}

template <typename T>
void blockC(const T &NW, const T &NE, const T &SW, const T &SE, T &Gx,
            T &Gy) {
  Gx = T(0.0);
  Gy = (SW + SE) - (NW + NE);
}

void recordSobelTile(const Image &In, int X0, int Y0, int X1, int Y1,
                     double HalfWidth) {
  Analysis &A = Analysis::current();
  const int GW = X1 - X0 + 2, GH = Y1 - Y0 + 2;
  std::vector<IAValue> Grid(static_cast<size_t>(GW) * GH);
  for (int GY = Y0 - 1; GY <= Y1; ++GY)
    for (int GX = X0 - 1; GX <= X1; ++GX) {
      const int LX = GX - (X0 - 1), LY = GY - (Y0 - 1);
      const double P = In.clamped(GX, GY);
      Grid[static_cast<size_t>(LY) * GW + LX] =
          A.input("p" + std::to_string(LX) + "_" + std::to_string(LY),
                  P - HalfWidth, P + HalfWidth);
    }
  auto At = [&](int GX, int GY) -> const IAValue & {
    return Grid[static_cast<size_t>(GY - (Y0 - 1)) * GW + (GX - (X0 - 1))];
  };
  for (int Y = Y0; Y < Y1; ++Y)
    for (int X = X0; X < X1; ++X) {
      const std::string Suffix = "_" + std::to_string(X - X0) + "_" +
                                 std::to_string(Y - Y0);
      IAValue GxA, GyA, GxB, GyB, GxC, GyC;
      blockA<IAValue>(At(X - 1, Y), At(X + 1, Y), At(X, Y - 1),
                      At(X, Y + 1), GxA, GyA);
      blockB<IAValue>(At(X - 1, Y - 1), At(X + 1, Y - 1), At(X - 1, Y + 1),
                      At(X + 1, Y + 1), GxB, GyB);
      blockC<IAValue>(At(X - 1, Y - 1), At(X + 1, Y - 1), At(X - 1, Y + 1),
                      At(X + 1, Y + 1), GxC, GyC);
      A.registerIntermediate(GxA, "Ax" + Suffix);
      A.registerIntermediate(GyA, "Ay" + Suffix);
      A.registerIntermediate(GxB, "Bx" + Suffix);
      A.registerIntermediate(GyC, "Cy" + Suffix);
      IAValue Gx = GxA + GxB + GxC;
      IAValue Gy = GyA + GyB + GyC;
      A.registerOutput(Gx, "gx" + Suffix);
      A.registerOutput(Gy, "gy" + Suffix);
    }
}

/// The paper's Sobel result (Section 4.1.1): block A is exactly twice
/// as significant as B and as C.
std::string sobelInvariant(const apps::SobelTileSignificance &S) {
  if (S.A == 2.0 * S.B && S.A == 2.0 * S.C)
    return "";
  std::ostringstream OS;
  OS.precision(17);
  OS << "Sobel block invariant A = 2B = 2C violated: A=" << S.A
     << " B=" << S.B << " C=" << S.C;
  return OS.str();
}

class SobelTiles final : public Workload {
public:
  explicit SobelTiles(const Config &C) : C(C) {}

  std::string setup(int) override {
    Img = testimages::scene(48, 48, C.SceneSeed);
    Opts.Mode = AnalysisOptions::OutputMode::PerOutput;
    // Tile order and naming exactly as apps::analyseSobelTiles.
    for (int Y0 = 0; Y0 < Img.height(); Y0 += Tile)
      for (int X0 = 0; X0 < Img.width(); X0 += Tile) {
        const int X1 = std::min(X0 + Tile, Img.width());
        const int Y1 = std::min(Y0 + Tile, Img.height());
        const size_t Hint = size_t(X1 - X0 + 2) * size_t(Y1 - Y0 + 2) +
                            20 * size_t(X1 - X0) * size_t(Y1 - Y0);
        Specs.push_back({"tile_" + std::to_string(X0 / Tile) + "_" +
                             std::to_string(Y0 / Tile),
                         [this, X0, Y0, X1, Y1] {
                           recordSobelTile(Img, X0, Y0, X1, Y1, HalfWidth);
                         },
                         Hint});
      }

    {
      const apps::SobelTileSignificance One =
          apps::analyseSobelTiles(Img, Tile, HalfWidth, 1);
      if (!One.Result.isValid())
        return "sobel_tiles: reference report is invalid";
      if (std::string E = sobelInvariant(One); !E.empty())
        return "sobel_tiles: " + E;
      Ref = reportDigest(One.Result);
    }
    if (C.ExpectDigest != 0 && Ref != C.ExpectDigest)
      return "sobel_tiles: report digest " + hex64(Ref) +
             " differs from the committed reference " +
             hex64(C.ExpectDigest);
    // Every timed op compares its C.Workers report to this reference.
    if (reportDigest(apps::analyseSobelTiles(Img, Tile, HalfWidth,
                                             IdentityWorkers)
                         .Result) != Ref)
      return "sobel_tiles: 1-worker and " + std::to_string(IdentityWorkers) +
             "-worker reports differ";
    if (reportDigest(serialReport(Specs, Opts)) != Ref)
      return "sobel_tiles: the benchmark's tile recorder does not "
             "reproduce apps::analyseSobelTiles";
    return "";
  }

  // The previous op's report is released untimed, before the next op.
  void prepare(size_t) override { Last = {}; }

  void run() override {
    Last = apps::analyseSobelTiles(Img, Tile, HalfWidth, C.Workers);
  }

  OpCheck check() override {
    OpCheck K;
    K.Nodes = reportNodes(Last.Result);
    if (!Last.Result.isValid())
      K.Error = "invalid report";
    else if (reportDigest(Last.Result) != Ref)
      K.Error = "report digest differs from the reference";
    else
      K.Error = sobelInvariant(Last);
    return K;
  }

  std::vector<std::string> traced(Tracer &T, int) override {
    return tracedInProcess(T, Specs, Opts, Ref);
  }

  std::vector<std::string> workSpans() const override {
    return {"tape.record", "core.analyse", "core.merge"};
  }
  uint64_t referenceDigest() const override { return Ref; }

private:
  static constexpr int Tile = 24;
  static constexpr double HalfWidth = 8.0;
  Config C;
  Image Img;
  AnalysisOptions Opts;
  std::vector<ShardSpec> Specs;
  uint64_t Ref = 0;
  apps::SobelTileSignificance Last;
};

//===--- dct_peroutput / dct_combined -----------------------------------===//

class DctBlocks final : public Workload {
public:
  DctBlocks(const Config &C, bool PerOutput) : C(C), PerOutput(PerOutput) {}

  std::string setup(int) override {
    const std::string Name = C.Workload;
    Img = PerOutput ? testimages::scene(16, 16, C.SceneSeed)
                    : testimages::scene(48, 32, C.SceneSeed);
    if (PerOutput)
      Opts.Mode = AnalysisOptions::OutputMode::PerOutput; // analyseDct's
    for (int BY = 0; BY < Img.height() / 8; ++BY)
      for (int BX = 0; BX < Img.width() / 8; ++BX) {
        ShardSpec S{"block_" + std::to_string(BX) + "_" + std::to_string(BY),
                    [this, BX, BY] {
                      apps::recordDctPipeline(Img, BX, BY, Quality,
                                              HalfWidth);
                    },
                    17000};
        P.addShard(S.Name, S.Record, S.Hint);
        Specs.push_back(std::move(S));
      }

    {
      const ParallelAnalysisResult One = P.run(Opts, 1);
      if (!One.isValid())
        return Name + ": reference report is invalid";
      Ref = reportDigest(One);
    }
    if (C.ExpectDigest != 0 && Ref != C.ExpectDigest)
      return Name + ": report digest " + hex64(Ref) +
             " differs from the committed reference " +
             hex64(C.ExpectDigest);
    // Every timed op compares its C.Workers report to this reference.
    if (reportDigest(P.run(Opts, IdentityWorkers)) != Ref)
      return Name + ": 1-worker and " + std::to_string(IdentityWorkers) +
             "-worker reports differ";
    if (reportDigest(serialReport(Specs, Opts)) != Ref)
      return Name + ": serial record + analyse differs from the pool";
    return "";
  }

  void prepare(size_t) override { Last = {}; }

  void run() override { Last = P.run(Opts, C.Workers); }

  OpCheck check() override {
    OpCheck K;
    K.Nodes = reportNodes(Last);
    if (!Last.isValid())
      K.Error = "invalid report";
    else if (reportDigest(Last) != Ref)
      K.Error = "report digest differs from the reference";
    return K;
  }

  std::vector<std::string> traced(Tracer &T, int) override {
    return tracedInProcess(T, Specs, Opts, Ref);
  }

  std::vector<std::string> workSpans() const override {
    return {"tape.record", "core.analyse", "core.merge"};
  }
  uint64_t referenceDigest() const override { return Ref; }

private:
  static constexpr int Quality = 50;
  static constexpr double HalfWidth = 2.0;
  Config C;
  bool PerOutput;
  Image Img;
  AnalysisOptions Opts;
  ParallelAnalysis P;
  std::vector<ShardSpec> Specs;
  uint64_t Ref = 0;
  ParallelAnalysisResult Last;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const Config &C) {
  if (C.Workload == "sobel_tiles")
    return std::make_unique<SobelTiles>(C);
  if (C.Workload == "dct_peroutput")
    return std::make_unique<DctBlocks>(C, /*PerOutput=*/true);
  if (C.Workload == "dct_combined")
    return std::make_unique<DctBlocks>(C, /*PerOutput=*/false);
  if (C.Workload == "portfolio_remerge")
    return makePortfolioRemerge(C);
  return nullptr;
}
