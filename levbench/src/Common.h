//===- Common.h - Shared workload pieces -----------------------*- C++ -*-===//
//
// Part of the levity benchmark (levbench/). What the untraced workloads
// and the traced run share: set sizes, session options, answer checks,
// and the serve-hot client plan.
//
//===----------------------------------------------------------------------===//

#ifndef LEVBENCH_COMMON_H
#define LEVBENCH_COMMON_H

#include "Bench.h"
#include "Gen.h"
#include "Trace.h"

#include "driver/Session.h"
#include "server/Server.h"

#include <atomic>
#include <string>
#include <vector>

namespace levbench {

namespace driver = levity::driver;
namespace server = levity::server;

/// Programs in the compile-cold / store-warm set.
inline constexpr size_t CompileSetSize = 256;
/// Programs per loop family in the run-hot set (five families).
inline constexpr size_t RunSetPerFamily = 5;

/// Session options for bytecode runs: no cache bound, no store.
driver::CompileOptions bytecodeOptions();

/// Checks a bytecode run of \p P against its expected answer.
void checkRun(const Program &P, const driver::RunResult &R, Outcome &O);

/// Compiles every program with the front end, runs it once on bytecode
/// (checking the answer into \p Answers), and writes its artifact where
/// driver::ArtifactStore looks it up under \p Dir. \returns the
/// compilations, in program order. The artifacts are written without
/// fsync: the store is scratch, and durable writes would put the host
/// disk's latency, which drifts from run to run, into set-up time.
std::vector<std::shared_ptr<driver::Compilation>>
populateStore(const std::vector<Program> &Progs, const std::string &Dir,
              std::vector<std::string> &Answers, Outcome &O);

/// Checks a run of a fragment-gap program. \returns false when it failed
/// with the known "not expressible in L" diagnostic (a failed operation);
/// true when it ran and gave the right answer. Anything else is wrong.
bool checkGap(const Program &P, const driver::RunResult &R, Outcome &O);

/// The serve-hot traffic: two tenants, each with its own client and a
/// few registered programs; every client sends a fixed sequence of RUN
/// frames in pipelined batches.
class ServePlan {
public:
  static constexpr size_t Clients = 2;
  static constexpr size_t Depth = 4;     ///< RUN frames per pipelined batch.
  static constexpr size_t Batches = 64;  ///< Batches per client per pass.
  static constexpr size_t ProgramsPerTenant = 4;

  explicit ServePlan(uint64_t Seed);

  size_t numOps() const { return Clients * Batches * Depth; }
  static std::string tenant(size_t Client) {
    return "t" + std::to_string(Client);
  }
  const std::vector<Program> &programs(size_t Client) const {
    return Programs[Client];
  }

  /// AsyncWorkers = 2 (with the two clients: four threads), bytecode runs.
  static server::ServerOptions serverOptions();

  /// Registers every tenant's programs with COMPILE frames.
  void registerPrograms(server::Server &Srv, Outcome &O);

  /// One pass of client \p Client: every batch goes through
  /// formatRequest -> FrameReader -> Server::process -> formatResponse ->
  /// ResponseReader, and every answer is checked. Records per-request
  /// times into \p T and spans into \p R when non-null.
  void runClient(server::Server &Srv, size_t Client, OpTimes *T,
                   Recorder *R, Outcome &O);

  /// The tenant ledgers must reconcile exactly with Session::Stats.
  void reconcile(server::Server &Srv, Outcome &O) const;

private:
  std::vector<std::vector<Program>> Programs; ///< Per tenant.
  std::vector<std::vector<uint8_t>> Sequence; ///< Per client: program index
                                              ///< of every request.
  std::atomic<uint64_t> RunsSent{0};
};

} // namespace levbench

#endif // LEVBENCH_COMMON_H
