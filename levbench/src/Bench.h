//===- Bench.h - Timing, memory and outcome helpers ------------*- C++ -*-===//
//
// Part of the levity benchmark (levbench/).
//
// Timing model: a workload repeats a fixed set of operations in passes.
// Each operation keeps its fastest time across passes. On a shared host
// whose speed drifts by tens of percent within seconds, the fastest of
// many repeats moves far less than a mean or a median of raw samples.
// Throughput comes from the fastest measured pass, which holds all of a
// pass's work: per-operation windows and what lies between them, such as
// building and destroying a pass's Session.
//
//===----------------------------------------------------------------------===//

#ifndef LEVBENCH_BENCH_H
#define LEVBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace levbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double microsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

/// Median of \p V (which it reorders); 0 when empty.
double median(std::vector<double> V);

/// Each operation's fastest time (µs) across passes, and the fastest pass.
struct OpTimes {
  explicit OpTimes(size_t NumOps)
      : Best(NumOps, std::numeric_limits<double>::infinity()) {}
  void op(size_t I, double Micros) { Best[I] = std::min(Best[I], Micros); }
  void pass(double Seconds) {
    BestPass = std::min(BestPass, Seconds);
    ++Passes;
  }
  std::vector<double> Best;
  double BestPass = std::numeric_limits<double>::infinity();
  uint64_t Passes = 0;
};

/// Attempted/failed operation counts and the first wrong answer seen.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstError;

  void wrong(const std::string &Why) {
    if (Correct)
      FirstError = Why;
    Correct = false;
  }
};

/// Peak resident set of this process, in MiB.
double peakRssMiB();
/// Current resident set of this process, in bytes.
uint64_t currentRssBytes();

/// One workload: a fixed operation set run in passes.
class Workload {
public:
  virtual ~Workload() = default;
  /// Timed operations in one pass.
  virtual size_t opsPerPass() const = 0;
  /// Builds every input and piece of state, then runs one untimed
  /// warm-up pass.
  virtual void setup(Outcome &O) = 0;
  /// One timed pass. Records each operation's time and the pass's.
  virtual void pass(OpTimes &T, Outcome &O) = 0;
  /// Property checks after a set-up's timed passes.
  virtual void finish(Outcome &) {}
  /// Releases everything setup() built.
  virtual void teardown() = 0;
};

/// The four workloads. \p WorkDir is a scratch directory the workload may
/// create files under (store-warm keeps its `.levc` store there).
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &WorkDir);
bool isWorkload(const std::string &Name);

/// One metric of the result line.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// The traced run: per-layer metrics for every layer, from spans around
/// the calls into each layer's public functions. \p Workload's own
/// traced operations are repeated for about \p Seconds and counted in
/// \p O; the other workloads' layers get a few traced passes each.
std::vector<Metric> tracedRun(const std::string &Workload, uint64_t Seed,
                              double Seconds, const std::string &WorkDir,
                              Outcome &O);

} // namespace levbench

#endif // LEVBENCH_BENCH_H
