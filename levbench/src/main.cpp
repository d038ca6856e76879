//===- main.cpp - levbench: end-to-end and traced runs --------------------===//
//
// Part of the levity benchmark (levbench/).
//
//   levbench --workload <compile-cold|store-warm|run-hot|serve-hot>
//            --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 sets up the workload 20 times, spread over the run: after
// each set-up it repeats its operation set in timed passes for a
// twentieth of --seconds, then tears down. It prints the end-to-end
// metrics, with the median set-up as setup_s. --trace 1 prints the
// per-layer metrics from spans instead. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit status is 1 when an answer or property check failed, 0 otherwise.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace levbench;

namespace {

/// Set-ups per run, each followed by its share of the timed passes, so
/// they do not all fall in one slow stretch of the host as set-ups made
/// back to back did. setup_s is their median: fast set-ups are rare, and
/// over five runs per workload the fastest of 20 ranged 20-40% while
/// their median ranged 4-7%.
constexpr int Setups = 20;

/// A fixed integer loop in the benchmark's own code, timed like the
/// workloads (fastest of several): it tells a slow host from a slow
/// program. Printed, never a metric.
double hostProbeMillis() {
  double Best = 1e300;
  for (int Rep = 0; Rep != 7; ++Rep) {
    auto T0 = Clock::now();
    uint64_t X = 88172645463325252ULL;
    for (int I = 0; I != 20000000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
    }
    Best = std::min(Best, secondsSince(T0) * 1e3);
    if (X == 42) // Keeps the loop: X is never 42 here.
      std::puts("");
  }
  return Best;
}

void printResult(const Outcome &O, const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              O.Correct ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed));
  for (size_t I = 0; I != Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "levbench: %s\nusage: levbench --workload "
               "<compile-cold|store-warm|run-hot|serve-hot> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name, WorkDir = ".bench_build/work";
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      Name = V;
    else if (A == "--seed")
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      Trace = V == "1";
    else if (A == "--work-dir")
      WorkDir = V;
    else
      return usage(("unknown option " + A).c_str());
  }
  if (!isWorkload(Name))
    return usage(("unknown workload '" + Name + "'").c_str());
  if (!(Seconds > 0))
    return usage("--seconds must be positive");
  std::filesystem::create_directories(WorkDir);

  std::printf("probe_ms %.4f\n", hostProbeMillis());

  Outcome O;
  std::vector<Metric> Ms;
  if (Trace) {
    Ms = tracedRun(Name, Seed, Seconds, WorkDir, O);
  } else {
    std::unique_ptr<Workload> W = makeWorkload(Name, Seed, WorkDir);
    std::vector<double> SetupS;
    std::unique_ptr<OpTimes> T;
    for (int K = 0; K != Setups; ++K) {
      auto T0 = Clock::now();
      Outcome SetupO;
      W->setup(SetupO);
      SetupS.push_back(secondsSince(T0));
      if (!SetupO.Correct)
        O.wrong(SetupO.FirstError);
      if (!T)
        T = std::make_unique<OpTimes>(W->opsPerPass());
      auto Start = Clock::now();
      do
        W->pass(*T, O);
      while (secondsSince(Start) < Seconds / Setups);
      W->finish(O);
      W->teardown();
    }
    W.reset();
    std::printf("passes %llu ops_per_pass %zu\n",
                static_cast<unsigned long long>(T->Passes), T->Best.size());
    Ms = {{"setup_s", median(SetupS), "s"},
          {"ops_per_s", static_cast<double>(T->Best.size()) / T->BestPass,
           "1/s"},
          {"op_p50_us", median(T->Best), "us"},
          {"peak_rss_mb", peakRssMiB(), "MiB"}};
  }
  if (!O.Correct)
    std::fprintf(stderr, "levbench: WRONG: %s\n", O.FirstError.c_str());
  printResult(O, Ms);
  return O.Correct ? 0 : 1;
}
