//===- perfbench/src/Trace.cpp - Spans, samples and the result line -------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <sys/resource.h>
#include <unordered_map>

using namespace pb;

double pb::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint64_t Tracer::record(const char *Name, uint64_t Parent, uint64_t Req,
                        int64_t StartNs, int64_t EndNs) {
  if (!on())
    return 0;
  Span S;
  S.Name = Name;
  S.Id = newId();
  S.Parent = Parent;
  S.Req = Parent == 0 && Req == 0 ? S.Id : Req;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(S);
  return S.Id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

std::map<std::string, std::pair<double, uint64_t>> Tracer::selfTimes() const {
  std::vector<Span> All = spans();
  std::unordered_map<uint64_t, std::vector<const Span *>> Kids;
  for (const Span &S : All)
    if (S.Parent != 0)
      Kids[S.Parent].push_back(&S);
  std::map<std::string, std::pair<double, uint64_t>> Out;
  for (const Span &S : All) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> Iv;
    auto It = Kids.find(S.Id);
    if (It != Kids.end())
      for (const Span *K : It->second) {
        int64_t A = std::max(K->StartNs, S.StartNs);
        int64_t B = std::min(K->EndNs, S.EndNs);
        if (B > A)
          Iv.push_back({A, B});
      }
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, CurA = 0, CurB = 0;
    bool Open = false;
    for (auto [A, B] : Iv) {
      if (Open && A <= CurB) {
        CurB = std::max(CurB, B);
        continue;
      }
      if (Open)
        Covered += CurB - CurA;
      CurA = A;
      CurB = B;
      Open = true;
    }
    if (Open)
      Covered += CurB - CurA;
    auto &Slot = Out[S.Name];
    Slot.first += msBetween(0, (S.EndNs - S.StartNs) - Covered);
    Slot.second += 1;
  }
  return Out;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr)
    return false;
  int64_t Base = All.empty() ? 0 : All.front().StartNs;
  for (const Span &S : All)
    Base = std::min(Base, S.StartNs);
  for (const Span &S : All)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 S.Name, static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Req),
                 static_cast<double>(S.StartNs - Base) / 1e3,
                 static_cast<double>(S.EndNs - Base) / 1e3);
  return std::fclose(F) == 0;
}

void Report::meta(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  Meta[Key] = Buf;
}

double pb::cpuSeconds() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  auto S = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return S(U.ru_utime) + S(U.ru_stime);
}

double pb::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}
