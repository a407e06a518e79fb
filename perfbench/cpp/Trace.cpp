//===- perfbench/cpp/Trace.cpp - In-memory spans for the traced run -------===//

#include "Trace.h"

#include <cstdio>
#include <fstream>

using namespace perfbench;

Tracer::Scope::Scope(Tracer &T, const char *Name, int Shard) : T(T) {
  Span S;
  S.Name = Name;
  S.Parent = T.Open.empty() ? -1 : T.Open.back();
  S.Op = T.CurrentOp;
  S.Shard = Shard >= 0 || T.Open.empty() ? Shard
                                          : T.Spans[size_t(T.Open.back())].Shard;
  Id = static_cast<int32_t>(T.Spans.size());
  T.Spans.push_back(S);
  T.Open.push_back(Id);
  // Read the clock last so the span excludes its own bookkeeping.
  T.Spans[size_t(Id)].StartNs = nowNs();
}

Tracer::Scope::~Scope() {
  T.Spans[size_t(Id)].EndNs = nowNs();
  T.Open.pop_back();
}

void Tracer::beginOp(int Op) {
  CurrentOp = Op;
  Counters[Op];
}

void Tracer::endOp() { Open.clear(); }

void Tracer::count(const std::string &Name, double V) {
  Counters[CurrentOp][Name] += V;
}

std::map<int, std::map<std::string, double>> Tracer::secondsByOp() const {
  std::map<int, std::map<std::string, double>> Out;
  for (const Span &S : Spans)
    Out[S.Op][S.Name] += S.seconds();
  return Out;
}

std::vector<std::string> Tracer::uncoveredSpans(double Tolerance) const {
  // Children of one parent run back to back in the serial replay, so
  // their summed durations are the covered part of the parent.
  std::vector<int64_t> Covered(Spans.size(), 0);
  std::vector<bool> HasChild(Spans.size(), false);
  for (const Span &S : Spans)
    if (S.Parent >= 0) {
      Covered[size_t(S.Parent)] += S.EndNs - S.StartNs;
      HasChild[size_t(S.Parent)] = true;
    }
  // Summed per span name over the whole run, so a preemption landing
  // between two microsecond-scale children cannot fail the check; a
  // missing span shows in every op and still does.
  std::map<std::string, std::pair<int64_t, int64_t>> ByName;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (HasChild[I]) {
      auto &[Cov, Total] = ByName[Spans[I].Name];
      Cov += Covered[I];
      Total += Spans[I].EndNs - Spans[I].StartNs;
    }
  std::vector<std::string> Out;
  for (const auto &[Name, CT] : ByName)
    if (double(CT.first) < (1.0 - Tolerance) * double(CT.second)) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "%s spans: children cover %lld of %lld ns",
                    Name.c_str(), static_cast<long long>(CT.first),
                    static_cast<long long>(CT.second));
      Out.emplace_back(Buf);
    }
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path, int MaxOps) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  const int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  char Buf[320];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Op >= MaxOps)
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%d,\"shard\":%d}}",
                  First ? "" : ",\n", S.Name,
                  double(S.StartNs - Origin) * 1e-3,
                  double(S.EndNs - S.StartNs) * 1e-3, I, S.Parent, S.Op,
                  S.Shard);
    OS << Buf;
    First = false;
  }
  OS << "\n]}\n";
  OS.close();
  return static_cast<bool>(OS);
}
