//===- Trace.cpp - In-memory spans for the traced run ---------------------===//
//
// Part of the levity benchmark (levbench/).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <unordered_map>

using namespace levbench;

const char *levbench::spanName(SpanName N) {
  static const char *const Names[] = {
      "op",          "surface.lex",      "surface.parse",   "surface.elaborate",
      "core.levity_check", "driver.lower_l", "anf.compile", "bytecode.compile",
      "bytecode.run", "driver.serialize", "driver.store_load", "driver.hydrate",
      "driver.executor_run", "driver.cache_hit", "driver.executor",
      "server.frame_parse", "server.process", "server.format"};
  static_assert(sizeof(Names) / sizeof(Names[0]) ==
                static_cast<size_t>(SpanName::NumNames));
  return Names[static_cast<size_t>(N)];
}

std::vector<double> levbench::selfTimes(const std::vector<Span> &Spans) {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.End - S.Start;
  return Self;
}

double levbench::medianFastestSelf(const std::vector<Span> &Spans,
                                   const std::vector<double> &Self,
                                   SpanName N) {
  // Self time per (operation, pass), then each operation's fastest pass.
  std::unordered_map<uint64_t, double> PerPass;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Name == N)
      PerPass[(uint64_t(Spans[I].Op) << 32) | Spans[I].Pass] += Self[I];
  std::unordered_map<uint32_t, double> Best;
  for (const auto &[Key, Micros] : PerPass) {
    auto [It, New] = Best.emplace(static_cast<uint32_t>(Key >> 32), Micros);
    if (!New)
      It->second = std::min(It->second, Micros);
  }
  std::vector<double> V;
  V.reserve(Best.size());
  for (const auto &[Op, Micros] : Best)
    V.push_back(Micros);
  return median(std::move(V));
}
