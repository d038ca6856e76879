//===- Workloads.cpp - The four benchmark workloads -----------------------===//
//
// Part of the levity benchmark (levbench/).
//
//   compile-cold  fresh Session per pass; per program Session::compile and
//                 one Executor::run on Backend::Bytecode.
//   store-warm    the same programs from a `.levc` store populated during
//                 set-up; per program a disk hit and one bytecode run.
//   run-hot       long-lived Executors re-running loop programs on
//                 bytecode; the fixed fragment-gap programs are attempted
//                 every pass, outside the timed window, and counted failed.
//   serve-hot     an in-process levityd Server, 2 clients sending
//                 pipelined RUN frames through the LEVP/1 wire format.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Common.h"
#include "Gen.h"

#include "driver/Executor.h"
#include "driver/Session.h"
#include "server/Server.h"

#include <filesystem>
#include <thread>
#include <unistd.h>

using namespace levbench;
using namespace levity;

namespace {

//===----------------------------------------------------------------------===//
// compile-cold
//===----------------------------------------------------------------------===//

class CompileCold : public Workload {
public:
  explicit CompileCold(uint64_t Seed) : Seed(Seed) {}
  size_t opsPerPass() const override { return Progs.size(); }

  void setup(Outcome &O) override {
    Progs = compileSet(Seed, CompileSetSize);
    OpTimes Warm(Progs.size());
    pass(Warm, O);
  }

  void pass(OpTimes &T, Outcome &O) override {
    auto P0 = Clock::now();
    {
      driver::Session S(bytecodeOptions());
      for (size_t I = 0; I != Progs.size(); ++I) {
        const Program &P = Progs[I];
        auto T0 = Clock::now();
        std::shared_ptr<driver::Compilation> C = S.compile(P.Source);
        driver::RunResult R =
            driver::Executor(C).run(P.Name, driver::Backend::Bytecode);
        T.op(I, microsSince(T0));
        ++O.Attempted;
        checkRun(P, R, O);
      }
    }
    // The pass includes destroying the Session and its cached
    // Compilations.
    T.pass(secondsSince(P0));
  }

  void teardown() override { Progs.clear(); }

private:
  uint64_t Seed;
  std::vector<Program> Progs;
};

//===----------------------------------------------------------------------===//
// store-warm
//===----------------------------------------------------------------------===//

class StoreWarm : public Workload {
public:
  StoreWarm(uint64_t Seed, std::string WorkDir)
      : Seed(Seed), WorkDir(std::move(WorkDir)) {}
  /// Every set-up's store is removed only here, after the timed passes:
  /// deleting files earlier would leave the file system committing those
  /// deletions while the timed passes read the store.
  ~StoreWarm() override {
    for (const std::string &Dir : Stores)
      std::filesystem::remove_all(Dir);
  }
  size_t opsPerPass() const override { return Progs.size(); }

  void setup(Outcome &O) override {
    Progs = compileSet(Seed, CompileSetSize);
    StoreDir = WorkDir + "/store-" + std::to_string(::getpid()) + "-" +
               std::to_string(Stores.size());
    std::filesystem::remove_all(StoreDir);
    Stores.push_back(StoreDir);

    // The front-end build's answers are compile-cold's; every warm pass
    // must reproduce them.
    populateStore(Progs, StoreDir, ColdAnswers, O);
    OpTimes Warm(Progs.size());
    pass(Warm, O);
  }

  void pass(OpTimes &T, Outcome &O) override {
    auto P0 = Clock::now();
    driver::CompileOptions Opts = bytecodeOptions();
    Opts.StorePath = StoreDir;
    auto S = std::make_unique<driver::Session>(Opts);
    for (size_t I = 0; I != Progs.size(); ++I) {
      const Program &P = Progs[I];
      auto T0 = Clock::now();
      driver::CompileOutcome How = driver::CompileOutcome::FrontEnd;
      std::shared_ptr<driver::Compilation> C = S->compile(P.Source, How);
      driver::RunResult R =
          driver::Executor(C).run(P.Name, driver::Backend::Bytecode);
      T.op(I, microsSince(T0));
      ++O.Attempted;
      checkRun(P, R, O);
      if (How != driver::CompileOutcome::DiskHit)
        O.wrong("store-warm: '" + P.Name + "' was not a disk hit");
      if (R.Display != ColdAnswers[I])
        O.wrong("store-warm: '" + P.Name + "' answered " + R.Display +
                ", compile-cold answered " + ColdAnswers[I]);
    }
    driver::Session::Stats St = S->stats();
    // The pass includes destroying the Session and its cached
    // Compilations.
    S.reset();
    T.pass(secondsSince(P0));
    if (St.DiskHits != Progs.size() || St.Compilations != 0 ||
        St.DiskMisses != 0)
      O.wrong("store-warm: pass saw " + std::to_string(St.DiskHits) +
              " disk hits, " + std::to_string(St.DiskMisses) +
              " misses and " + std::to_string(St.Compilations) +
              " front-end compiles for " + std::to_string(Progs.size()) +
              " programs");
  }

  void teardown() override { Progs.clear(); }

private:
  uint64_t Seed;
  std::string WorkDir;
  std::string StoreDir;
  std::vector<std::string> Stores;
  std::vector<Program> Progs;
  std::vector<std::string> ColdAnswers;
};

//===----------------------------------------------------------------------===//
// run-hot
//===----------------------------------------------------------------------===//

class RunHot : public Workload {
public:
  explicit RunHot(uint64_t Seed) : Seed(Seed) {}
  size_t opsPerPass() const override { return Progs.size(); }

  void setup(Outcome &O) override {
    Progs = runSet(Seed, RunSetPerFamily);
    Gaps = gapSet();
    S = std::make_unique<driver::Session>(bytecodeOptions());
    for (const Program &P : Progs)
      Execs.emplace_back(S->compile(P.Source));
    for (const Program &P : Gaps)
      GapExecs.emplace_back(S->compile(P.Source));
    Steps.assign(Progs.size(), 0);
    OpTimes Warm(Progs.size());
    Outcome WarmO;
    pass(Warm, WarmO);
    if (!WarmO.Correct)
      O.wrong(WarmO.FirstError);
  }

  void pass(OpTimes &T, Outcome &O) override {
    auto P0 = Clock::now();
    for (size_t I = 0; I != Progs.size(); ++I) {
      auto T0 = Clock::now();
      driver::RunResult R = Execs[I].run(Progs[I].Name,
                                         driver::Backend::Bytecode);
      T.op(I, microsSince(T0));
      ++O.Attempted;
      checkRun(Progs[I], R, O);
      // Identical VM step counts on every pass: every run re-executed.
      if (!Steps[I])
        Steps[I] = R.Vm.Steps;
      else if (Steps[I] != R.Vm.Steps)
        O.wrong("run-hot: '" + Progs[I].Name + "' took " +
                std::to_string(R.Vm.Steps) + " VM steps, earlier " +
                std::to_string(Steps[I]));
    }
    T.pass(secondsSince(P0));
    // The fragment-gap programs, outside the timed window.
    for (size_t I = 0; I != Gaps.size(); ++I) {
      ++O.Attempted;
      if (!checkGap(Gaps[I], GapExecs[I].run(Gaps[I].Name,
                                             driver::Backend::Bytecode),
                    O))
        ++O.Failed;
    }
  }

  void teardown() override {
    Execs.clear();
    GapExecs.clear();
    S.reset();
    Progs.clear();
    Gaps.clear();
  }

private:
  uint64_t Seed;
  std::vector<Program> Progs, Gaps;
  std::unique_ptr<driver::Session> S;
  std::vector<driver::Executor> Execs, GapExecs;
  std::vector<uint64_t> Steps;
};

//===----------------------------------------------------------------------===//
// serve-hot
//===----------------------------------------------------------------------===//

class ServeHot : public Workload {
public:
  explicit ServeHot(uint64_t Seed) : Seed(Seed) {}
  size_t opsPerPass() const override { return Plan->numOps(); }

  void setup(Outcome &O) override {
    Plan = std::make_unique<ServePlan>(Seed);
    Srv = std::make_unique<server::Server>(ServePlan::serverOptions());
    Plan->registerPrograms(*Srv, O);
    OpTimes Warm(Plan->numOps());
    pass(Warm, O);
  }

  void pass(OpTimes &T, Outcome &O) override {
    std::vector<Outcome> Per(ServePlan::Clients);
    auto P0 = Clock::now();
    std::thread Second(
        [&] { Plan->runClient(*Srv, 1, &T, nullptr, Per[1]); });
    Plan->runClient(*Srv, 0, &T, nullptr, Per[0]);
    Second.join();
    T.pass(secondsSince(P0));
    for (const Outcome &C : Per) {
      O.Attempted += C.Attempted;
      O.Failed += C.Failed;
      if (!C.Correct)
        O.wrong(C.FirstError);
    }
  }

  void finish(Outcome &O) override { Plan->reconcile(*Srv, O); }

  void teardown() override {
    Srv.reset();
    Plan.reset();
  }

private:
  uint64_t Seed;
  std::unique_ptr<ServePlan> Plan;
  std::unique_ptr<server::Server> Srv;
};

} // namespace

bool levbench::isWorkload(const std::string &Name) {
  return Name == "compile-cold" || Name == "store-warm" ||
         Name == "run-hot" || Name == "serve-hot";
}

std::unique_ptr<Workload> levbench::makeWorkload(const std::string &Name,
                                                 uint64_t Seed,
                                                 const std::string &WorkDir) {
  if (Name == "compile-cold")
    return std::make_unique<CompileCold>(Seed);
  if (Name == "store-warm")
    return std::make_unique<StoreWarm>(Seed, WorkDir);
  if (Name == "run-hot")
    return std::make_unique<RunHot>(Seed);
  if (Name == "serve-hot")
    return std::make_unique<ServeHot>(Seed);
  return nullptr;
}
