//===- Traced.cpp - The traced run: per-layer metrics from spans ----------===//
//
// Part of the levity benchmark (levbench/).
//
// Every per-layer metric comes from spans the benchmark records around
// calls into a layer's public functions (no span lives inside the
// program). Each workload has a traced counterpart of its operation:
//
//   compile-cold  the pipeline driven call by call: Lexer::lexAll,
//                 Parser::parseModule, Elaborator::run, LevityChecker::check
//                 (again, on its own), CoreToL::lowerGlobal,
//                 anf::Compiler::compileClosed, bytecode::compile, Vm::run.
//   store-warm    ArtifactStore::load, Compilation::deserializeArtifact,
//                 Executor::run; serializeArtifact timed over the
//                 populated compilations.
//   run-hot       Vm::run on long-lived VMs, with VmStats.
//   serve-hot     FrameReader, Server::process, formatResponse +
//                 ResponseReader; Session::compile on a cached source and
//                 Executor construction + first run, called directly.
//
// The named workload's traced operations repeat for up to --seconds (and
// are what attempted/failed count), each pass run once untraced (no
// Recorder) and once traced, so trace.overhead compares the same code with
// and without its spans. The other three get about 3 seconds of traced
// passes each, so every run prints every per-layer metric. Deterministic
// counts (tokens, instructions, VM steps and allocations, artifact bytes)
// must repeat exactly on every pass. Spans are written to
// <work-dir>/trace-<workload>-<seed>.tsv at the end.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Common.h"
#include "Trace.h"

#include "bytecode/Bytecode.h"
#include "bytecode/Vm.h"
#include "core/LevityCheck.h"
#include "driver/ArtifactStore.h"
#include "driver/Executor.h"
#include "driver/LowerToL.h"
#include "surface/Elaborate.h"
#include "surface/Lexer.h"
#include "surface/Parser.h"

#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>

using namespace levbench;
using namespace levity;

namespace {

constexpr uint64_t VmFuel = 1000000000;
/// Traced passes: at least MinPasses and at most MaxPasses, for --seconds
/// on the named workload's set and OtherSeconds on each other set.
constexpr uint32_t MinPasses = 3, MaxPasses = 50;
constexpr double OtherSeconds = 3.0;

/// One program carried through every layer up to bytecode by hand, the
/// way Session::compile and the lazy lowering do.
struct Lowered {
  DiagnosticEngine Diags;
  core::CoreContext C;
  surface::Elaborator E{C, Diags};
  std::optional<surface::ElabOutput> Out;
  lcalc::LContext L;
  mcalc::MContext MC;
  std::shared_ptr<const bytecode::Module> Mod;
  size_t Tokens = 0;
  std::string Error;
};

/// Lowers \p P into \p X with a span around each layer's call. \returns
/// false with X.Error set when a layer rejects the program.
bool lower(Lowered &X, const Program &P, Recorder *R, uint32_t Op) {
  std::vector<surface::Token> Toks;
  {
    Scoped S(R, SpanName::Lex, Op);
    Toks = surface::Lexer(P.Source, X.Diags).lexAll();
  }
  X.Tokens = Toks.size();
  surface::SModule M;
  {
    Scoped S(R, SpanName::Parse, Op);
    M = surface::Parser(std::move(Toks), X.Diags).parseModule();
  }
  if (X.Diags.hasErrors()) {
    X.Error = X.Diags.str();
    return false;
  }
  {
    Scoped S(R, SpanName::Elaborate, Op);
    X.Out = X.E.run(M);
  }
  if (!X.Out) {
    X.Error = X.Diags.str();
    return false;
  }
  {
    Scoped S(R, SpanName::LevityCheck, Op);
    core::CoreEnv Env;
    for (const core::TopBinding &B : X.Out->Program.Bindings)
      Env.addGlobal(B.Name, B.Ty);
    core::LevityChecker LC(X.C, X.Diags);
    for (const core::TopBinding &B : X.Out->Program.Bindings)
      if (!LC.check(Env, B.Rhs))
        X.Error = "levity check failed: " + X.Diags.str();
  }
  if (!X.Error.empty())
    return false;
  Result<const lcalc::Expr *> LT = err("unlowered");
  {
    Scoped S(R, SpanName::LowerL, Op);
    LT = driver::CoreToL(X.C, X.L).lowerGlobal(X.Out->Program, X.C.sym(P.Name));
  }
  if (!LT) {
    X.Error = LT.error();
    return false;
  }
  Result<const mcalc::Term *> MT = err("uncompiled");
  {
    Scoped S(R, SpanName::Anf, Op);
    MT = anf::Compiler(X.L, X.MC).compileClosed(*LT);
  }
  if (!MT) {
    X.Error = MT.error();
    return false;
  }
  Result<std::shared_ptr<const bytecode::Module>> BM = err("uncompiled");
  {
    Scoped S(R, SpanName::BcCompile, Op);
    BM = bytecode::compile(*MT);
  }
  if (!BM) {
    X.Error = BM.error();
    return false;
  }
  X.Mod = *BM;
  return true;
}

void checkVm(const Program &P, const bytecode::VmResult &VR, Outcome &O) {
  if (!VR.ok())
    O.wrong("'" + P.Name + "' did not reach a value on the VM: " +
            VR.StuckReason + VR.ErrorMessage);
  else if (!answerMatches(P, VR.IntValue ? &*VR.IntValue : nullptr,
                          VR.DoubleValue ? &*VR.DoubleValue : nullptr))
    O.wrong("'" + P.Name + "' answered " + VR.Display + " on the VM");
}

/// A per-pass count that must repeat exactly.
void samePerPass(const char *What, std::vector<uint64_t> &Seen, uint64_t V,
                 Outcome &O) {
  if (!Seen.empty() && Seen.front() != V)
    O.wrong(std::string("traced count ") + What + " changed between passes: " +
            std::to_string(Seen.front()) + " then " + std::to_string(V));
  Seen.push_back(V);
}

/// The spans of one traced set, with self times.
struct TraceSet {
  const char *Set;
  std::vector<Span> Spans;
  std::vector<double> Self;

  void add(const Recorder &R) {
    std::vector<double> S = selfTimes(R.Spans);
    int32_t Base = static_cast<int32_t>(Spans.size());
    for (Span Sp : R.Spans) {
      if (Sp.Parent >= 0)
        Sp.Parent += Base;
      Spans.push_back(Sp);
    }
    Self.insert(Self.end(), S.begin(), S.end());
  }
  double us(SpanName N, double Scale = 1) const {
    return medianFastestSelf(Spans, Self, N) / Scale;
  }
};

/// The fastest whole pass of a traced set, traced and untraced, in
/// seconds.
struct PassTimes {
  double Traced = 1e300, Untraced = 1e300;
};

/// Runs \p Pass(P, Traced) for P = 0, 1, ... for the set's budget. On the
/// named workload's set every pass runs twice, first untraced and then
/// traced, so host drift reaches both alike.
template <typename Fn> PassTimes passes(bool Own, double Seconds, Fn Pass) {
  double Budget = Own ? Seconds : OtherSeconds;
  PassTimes T;
  auto Start = Clock::now();
  for (uint32_t P = 0;
       P < MaxPasses && (P < MinPasses || secondsSince(Start) < Budget); ++P) {
    if (Own) {
      auto T0 = Clock::now();
      Pass(P, false);
      T.Untraced = std::min(T.Untraced, secondsSince(T0));
    }
    auto T0 = Clock::now();
    Pass(P, true);
    T.Traced = std::min(T.Traced, secondsSince(T0));
  }
  return T;
}

} // namespace

std::vector<Metric> levbench::tracedRun(const std::string &Workload,
                                        uint64_t Seed, double Seconds,
                                        const std::string &WorkDir,
                                        Outcome &O) {
  auto Epoch = Clock::now();
  std::vector<Metric> Ms;
  std::vector<TraceSet> Sets;
  double OwnOpsPerS = 0, Overhead = 0;
  auto Own = [&](const char *Name) { return Workload == Name; };
  auto Report = [&](const char *Name, size_t Ops, PassTimes PT) {
    if (Own(Name)) {
      OwnOpsPerS = static_cast<double>(Ops) / PT.Traced;
      Overhead = PT.Traced / PT.Untraced;
    }
  };
  // Operation counts: only the named workload's traced operations count
  // toward attempted/failed; the other sets are still checked.
  Outcome Other;
  auto For = [&](const char *Name) -> Outcome & {
    return Own(Name) ? O : Other;
  };

  //===--- compile-cold ----------------------------------------------===//
  std::vector<Program> Progs = compileSet(Seed, CompileSetSize);
  {
    // RSS growth per cached Compilation: the set compiled and run once
    // into one Session, before anything else has grown the heap.
    uint64_t Rss0 = currentRssBytes();
    driver::Session S(bytecodeOptions());
    for (const Program &P : Progs)
      checkRun(P, driver::Executor(S.compile(P.Source))
                      .run(P.Name, driver::Backend::Bytecode),
               Other);
    double Growth = static_cast<double>(currentRssBytes()) -
                    static_cast<double>(Rss0);
    Ms.push_back({"driver.compilation_kb", Growth / 1024.0 / Progs.size(),
                  "KiB"});
  }
  {
    Recorder R(Epoch);
    Outcome &CO = For("compile-cold");
    std::vector<uint64_t> Tokens, Instrs;
    PassTimes PT = passes(Own("compile-cold"), Seconds, [&](uint32_t Pass,
                                                             bool Traced) {
      Recorder *Rp = Traced ? &R : nullptr;
      R.Pass = Pass;
      uint64_t NTok = 0, NInstr = 0;
      for (uint32_t I = 0; I != Progs.size(); ++I) {
        Scoped Op(Rp, SpanName::Op, I);
        Lowered X;
        ++CO.Attempted;
        if (!lower(X, Progs[I], Rp, I)) {
          CO.wrong("compile-cold '" + Progs[I].Name + "': " + X.Error);
          continue;
        }
        NTok += X.Tokens;
        NInstr += X.Mod->Code.size();
        bytecode::VmResult VR;
        {
          Scoped S(Rp, SpanName::VmRun, I);
          VR = bytecode::Vm().run(*X.Mod, VmFuel);
        }
        checkVm(Progs[I], VR, CO);
      }
      samePerPass("surface.tokens", Tokens, NTok, O);
      samePerPass("bytecode.instrs", Instrs, NInstr, O);
    });
    Sets.push_back({"compile-cold", {}, {}});
    Sets.back().add(R);
    const TraceSet &T = Sets.back();
    Report("compile-cold", Progs.size(), PT);
    Ms.push_back({"surface.lex_us", T.us(SpanName::Lex), "us"});
    Ms.push_back({"surface.tokens", double(Tokens.front()), "count"});
    Ms.push_back({"surface.parse_us", T.us(SpanName::Parse), "us"});
    Ms.push_back({"surface.elaborate_us", T.us(SpanName::Elaborate), "us"});
    Ms.push_back({"core.levity_check_us", T.us(SpanName::LevityCheck), "us"});
    Ms.push_back({"driver.lower_l_us", T.us(SpanName::LowerL), "us"});
    Ms.push_back({"anf.compile_us", T.us(SpanName::Anf), "us"});
    Ms.push_back({"bytecode.compile_us", T.us(SpanName::BcCompile), "us"});
    Ms.push_back({"bytecode.instrs", double(Instrs.front()), "count"});
  }

  //===--- store-warm ------------------------------------------------===//
  {
    std::string StoreDir =
        WorkDir + "/trace-store-" + std::to_string(::getpid());
    std::filesystem::remove_all(StoreDir);
    driver::CompileOptions Opts = bytecodeOptions();
    Opts.StorePath = StoreDir;
    Outcome &SO = For("store-warm");
    Recorder R(Epoch);
    std::vector<uint64_t> Bytes;
    {
      // Populate, keeping the compilations to time serializeArtifact.
      std::vector<std::string> Answers;
      std::vector<std::shared_ptr<driver::Compilation>> Comps =
          populateStore(Progs, StoreDir, Answers, Other);
      passes(false, Seconds, [&](uint32_t Pass, bool) {
        R.Pass = Pass;
        uint64_t N = 0;
        for (uint32_t I = 0; I != Comps.size(); ++I) {
          Scoped Sp(&R, SpanName::Serialize, I);
          Result<std::string> A = Comps[I]->serializeArtifact();
          N += A ? A->size() : 0;
        }
        samePerPass("driver.artifact_bytes", Bytes, N, O);
      });
    }
    driver::ArtifactStore Store(StoreDir);
    PassTimes PT = passes(Own("store-warm"), Seconds, [&](uint32_t Pass,
                                                           bool Traced) {
      Recorder *Rp = Traced ? &R : nullptr;
      R.Pass = static_cast<uint32_t>(Bytes.size()) + Pass;
      for (uint32_t I = 0; I != Progs.size(); ++I) {
        const Program &P = Progs[I];
        Scoped Op(Rp, SpanName::Op, I);
        ++SO.Attempted;
        std::optional<std::string> A;
        {
          Scoped S(Rp, SpanName::StoreLoad, I);
          A = Store.load(driver::Session::hashSource(P.Source));
        }
        std::shared_ptr<driver::Compilation> C;
        if (A) {
          Scoped S(Rp, SpanName::Hydrate, I);
          C = driver::Compilation::deserializeArtifact(*A, P.Source, Opts);
        }
        if (!C) {
          SO.wrong("store-warm: no loadable artifact for '" + P.Name + "'");
          continue;
        }
        Scoped S(Rp, SpanName::ExecRun, I);
        checkRun(P, driver::Executor(C).run(P.Name, driver::Backend::Bytecode),
                 SO);
      }
    });
    double HitRatio = 0;
    {
      driver::Session S(Opts);
      for (const Program &P : Progs)
        S.compile(P.Source);
      driver::Session::Stats St = S.stats();
      HitRatio = static_cast<double>(St.DiskHits) /
                 static_cast<double>(St.DiskHits + St.DiskMisses);
      if (St.Compilations != 0)
        O.wrong("store-warm: a warm session ran the front end");
    }
    std::filesystem::remove_all(StoreDir);
    Sets.push_back({"store-warm", {}, {}});
    Sets.back().add(R);
    const TraceSet &T = Sets.back();
    Report("store-warm", Progs.size(), PT);
    Ms.push_back({"driver.serialize_us", T.us(SpanName::Serialize), "us"});
    Ms.push_back({"driver.artifact_bytes", double(Bytes.front()), "bytes"});
    Ms.push_back({"driver.store_load_us", T.us(SpanName::StoreLoad), "us"});
    Ms.push_back({"driver.hydrate_us", T.us(SpanName::Hydrate), "us"});
    Ms.push_back({"driver.disk_hit_ratio", HitRatio, "ratio"});
  }

  //===--- run-hot ---------------------------------------------------===//
  {
    std::vector<Program> Runs = runSet(Seed, RunSetPerFamily);
    std::vector<Program> Gaps = gapSet();
    Outcome &RO = For("run-hot");
    std::vector<std::unique_ptr<Lowered>> Built;
    for (const Program &P : Runs) {
      Built.push_back(std::make_unique<Lowered>());
      if (!lower(*Built.back(), P, nullptr, 0))
        O.wrong("run-hot '" + P.Name + "': " + Built.back()->Error);
    }
    if (!O.Correct)
      return Ms;
    // Fallbacks, through the real Executor path.
    uint64_t Fallbacks = 0;
    {
      driver::Session S(bytecodeOptions());
      for (const Program &P : Runs) {
        driver::RunResult RR = driver::Executor(S.compile(P.Source))
                                   .run(P.Name, driver::Backend::Bytecode);
        if (RR.ok() && RR.Used != driver::Backend::Bytecode)
          ++Fallbacks;
      }
    }
    std::vector<bytecode::Vm> Vms(Runs.size());
    Recorder R(Epoch);
    std::vector<uint64_t> Steps, Allocs;
    uint64_t PeakHeap = 0;
    PassTimes PT = passes(Own("run-hot"), Seconds, [&](uint32_t Pass,
                                                        bool Traced) {
      Recorder *Rp = Traced ? &R : nullptr;
      R.Pass = Pass;
      uint64_t NSteps = 0, NAllocs = 0;
      for (uint32_t I = 0; I != Runs.size(); ++I) {
        Scoped Op(Rp, SpanName::Op, I);
        bytecode::VmResult VR;
        {
          Scoped S(Rp, SpanName::VmRun, I);
          VR = Vms[I].run(*Built[I]->Mod, VmFuel);
        }
        ++RO.Attempted;
        checkVm(Runs[I], VR, RO);
        NSteps += VR.Stats.Steps;
        NAllocs += VR.Stats.Allocations;
        PeakHeap = std::max(PeakHeap, VR.Stats.PeakHeapBytes);
      }
      samePerPass("bytecode.steps", Steps, NSteps, O);
      samePerPass("bytecode.allocs", Allocs, NAllocs, O);
      // The fragment-gap programs, untimed: each is a failed operation
      // while core->L rejects it.
      for (const Program &P : Gaps) {
        Lowered X;
        ++RO.Attempted;
        if (lower(X, P, nullptr, 0)) {
          checkVm(P, bytecode::Vm().run(*X.Mod, VmFuel), RO);
        } else if (X.Error.find("not expressible in L") != std::string::npos) {
          ++RO.Failed;
        } else {
          RO.wrong("gap program '" + P.Name + "': " + X.Error);
        }
      }
    });
    Sets.push_back({"run-hot", {}, {}});
    Sets.back().add(R);
    const TraceSet &T = Sets.back();
    Report("run-hot", Runs.size(), PT);
    Ms.push_back({"bytecode.run_us", T.us(SpanName::VmRun), "us"});
    Ms.push_back({"bytecode.steps", double(Steps.front()), "count"});
    Ms.push_back({"bytecode.allocs", double(Allocs.front()), "count"});
    Ms.push_back({"bytecode.peak_heap_kb", PeakHeap / 1024.0, "KiB"});
    Ms.push_back({"bytecode.fallback_ratio",
                  static_cast<double>(Fallbacks) / Runs.size(), "ratio"});
  }

  //===--- serve-hot -------------------------------------------------===//
  {
    ServePlan Plan(Seed);
    server::Server Srv(ServePlan::serverOptions());
    Plan.registerPrograms(Srv, Other);
    Outcome &VO = For("serve-hot");
    std::vector<Recorder> Rs(ServePlan::Clients, Recorder(Epoch));
    PassTimes PT = passes(Own("serve-hot"), Seconds, [&](uint32_t Pass,
                                                          bool Traced) {
      std::vector<Outcome> Per(ServePlan::Clients);
      for (Recorder &R : Rs)
        R.Pass = Pass;
      std::thread Second([&] {
        Plan.runClient(Srv, 1, nullptr, Traced ? &Rs[1] : nullptr, Per[1]);
      });
      Plan.runClient(Srv, 0, nullptr, Traced ? &Rs[0] : nullptr, Per[0]);
      Second.join();
      for (const Outcome &C : Per) {
        VO.Attempted += C.Attempted;
        VO.Failed += C.Failed;
        if (!C.Correct)
          VO.wrong(C.FirstError);
      }
    });
    Report("serve-hot", Plan.numOps(), PT);
    Plan.reconcile(Srv, O);
    server::TenantStats Sum;
    for (size_t C = 0; C != ServePlan::Clients; ++C) {
      server::TenantStats T = Srv.tenantStats(ServePlan::tenant(C));
      Sum.CacheHits += T.CacheHits;
      Sum.FrontEndCompiles += T.FrontEndCompiles;
      Sum.DiskHits += T.DiskHits;
      Sum.Rejected += T.Rejected;
    }
    // Session::compile on cached sources and fresh Executors, called
    // directly (after the ledgers were reconciled: these calls bypass
    // the tenant ledgers).
    Recorder Direct(Epoch);
    for (uint32_t Pass = 0; Pass != MaxPasses; ++Pass) {
      Direct.Pass = Pass;
      uint32_t Op = 0;
      for (size_t C = 0; C != ServePlan::Clients; ++C)
        for (const Program &P : Plan.programs(C)) {
          driver::CompileOutcome How = driver::CompileOutcome::FrontEnd;
          std::shared_ptr<driver::Compilation> Comp;
          {
            Scoped S(&Direct, SpanName::CacheHit, Op);
            Comp = Srv.session().compile(P.Source, How);
          }
          if (How != driver::CompileOutcome::CacheHit)
            Other.wrong("serve-hot: '" + P.Name + "' missed the cache");
          driver::RunResult RR;
          {
            Scoped S(&Direct, SpanName::ExecutorNew, Op);
            driver::Executor Ex(Comp);
            RR = Ex.run(P.Name, driver::Backend::Bytecode);
          }
          checkRun(P, RR, Other);
          ++Op;
        }
    }
    Sets.push_back({"serve-hot", {}, {}});
    for (const Recorder &R : Rs)
      Sets.back().add(R);
    Sets.back().add(Direct);
    const TraceSet &T = Sets.back();
    double Depth = ServePlan::Depth;
    uint64_t Served = Sum.CacheHits + Sum.FrontEndCompiles + Sum.DiskHits;
    Ms.push_back({"driver.cache_hit_us", T.us(SpanName::CacheHit), "us"});
    Ms.push_back({"driver.cache_hit_ratio",
                  static_cast<double>(Sum.CacheHits) / Served, "ratio"});
    Ms.push_back({"driver.executor_us", T.us(SpanName::ExecutorNew), "us"});
    Ms.push_back({"server.frame_parse_us", T.us(SpanName::FrameParse, Depth),
                  "us"});
    Ms.push_back({"server.format_us", T.us(SpanName::Format, Depth), "us"});
    Ms.push_back({"server.process_us", T.us(SpanName::Process, Depth), "us"});
    Ms.push_back({"server.busy", double(Sum.Rejected), "count"});
  }

  Ms.push_back({"trace.ops_per_s", OwnOpsPerS, "1/s"});
  Ms.push_back({"trace.overhead", Overhead, "ratio"});
  if (!Other.Correct)
    O.wrong(Other.FirstError);

  // Write the spans out.
  std::string Path =
      WorkDir + "/trace-" + Workload + "-" + std::to_string(Seed) + ".tsv";
  if (FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fprintf(F, "set\tspan\tpass\top\tparent\tstart_us\tend_us\tself_us\n");
    for (const TraceSet &T : Sets)
      for (size_t I = 0; I != T.Spans.size(); ++I) {
        const Span &S = T.Spans[I];
        std::fprintf(F, "%s\t%s\t%u\t%u\t%d\t%.3f\t%.3f\t%.3f\n", T.Set,
                     spanName(S.Name), S.Pass, S.Op, S.Parent, S.Start, S.End,
                     T.Self[I]);
      }
    std::fclose(F);
  }
  return Ms;
}
