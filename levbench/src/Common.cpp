//===- Common.cpp - Shared workload pieces --------------------------------===//
//
// Part of the levity benchmark (levbench/).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/ArtifactStore.h"
#include "driver/Executor.h"
#include "server/LoadGen.h"
#include "server/Protocol.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>
#include <unistd.h>

using namespace levbench;
using namespace levity;

double levbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  if (V.size() % 2)
    return V[Mid];
  double Hi = V[Mid];
  return (*std::max_element(V.begin(), V.begin() + Mid) + Hi) / 2;
}

double levbench::peakRssMiB() {
  struct rusage U = {};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

uint64_t levbench::currentRssBytes() {
  unsigned long long Size = 0, Resident = 0;
  if (FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%llu %llu", &Size, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return Resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

driver::CompileOptions levbench::bytecodeOptions() {
  driver::CompileOptions Opts;
  Opts.DefaultBackend = driver::Backend::Bytecode;
  return Opts;
}

void levbench::checkRun(const Program &P, const driver::RunResult &R,
                        Outcome &O) {
  if (!R.ok()) {
    O.wrong(std::string(familyName(P.F)) + " '" + P.Name +
            "' failed: " + R.Error);
    return;
  }
  if (R.Used != driver::Backend::Bytecode)
    O.wrong("'" + P.Name + "' ran on " + std::string(driver::backendName(R.Used)));
  if (!answerMatches(P, R.IntValue ? &*R.IntValue : nullptr,
                     R.DoubleValue ? &*R.DoubleValue : nullptr))
    O.wrong(std::string(familyName(P.F)) + " '" + P.Name + "' answered " +
            R.Display + ", expected " +
            (P.IsDouble ? std::to_string(P.ExpectDouble)
                        : std::to_string(P.ExpectInt)));
}

bool levbench::checkGap(const Program &P, const driver::RunResult &R,
                        Outcome &O) {
  if (R.St == driver::RunResult::Status::Unsupported &&
      R.Error.find("not expressible in L") != std::string::npos)
    return false;
  if (!R.ok()) {
    O.wrong("gap program '" + P.Name + "' failed unexpectedly: " + R.Error);
    return false;
  }
  // The fragment has grown to cover it: the answer must be right.
  bool Right = P.Name == "gapTuple"
                   ? R.Display.find('4') != std::string::npos &&
                         R.Display.find('2') != std::string::npos
                   : answerMatches(P, R.IntValue ? &*R.IntValue : nullptr,
                                   R.DoubleValue ? &*R.DoubleValue : nullptr);
  if (!Right)
    O.wrong("gap program '" + P.Name + "' answered " + R.Display);
  return true;
}

std::vector<std::shared_ptr<driver::Compilation>>
levbench::populateStore(const std::vector<Program> &Progs,
                        const std::string &Dir,
                        std::vector<std::string> &Answers, Outcome &O) {
  driver::Session S(bytecodeOptions());
  driver::ArtifactStore Store(Dir);
  std::vector<std::shared_ptr<driver::Compilation>> Comps;
  Answers.clear();
  for (const Program &P : Progs) {
    Comps.push_back(S.compile(P.Source));
    driver::RunResult R =
        driver::Executor(Comps.back()).run(P.Name, driver::Backend::Bytecode);
    checkRun(P, R, O);
    Answers.push_back(R.Display);
    Result<std::string> Bytes = Comps.back()->serializeArtifact();
    std::filesystem::path Path =
        Store.entryPath(driver::Session::hashSource(P.Source));
    std::filesystem::create_directories(Path.parent_path());
    std::ofstream Out(Path, std::ios::binary);
    if (Bytes)
      Out << *Bytes;
    if (!Bytes || !Out.good())
      O.wrong("store-warm: could not store the artifact of '" + P.Name + "'");
  }
  return Comps;
}

//===----------------------------------------------------------------------===//
// ServePlan
//===----------------------------------------------------------------------===//

ServePlan::ServePlan(uint64_t Seed) {
  Rng G(Seed * 0x100000001b3ULL + 4);
  for (size_t C = 0; C != Clients; ++C) {
    Programs.push_back(serveSet(Seed, ProgramsPerTenant, tenant(C) + "p"));
    std::vector<uint8_t> Seq(Batches * Depth);
    for (uint8_t &I : Seq)
      I = static_cast<uint8_t>(G.range(0, ProgramsPerTenant - 1));
    Sequence.push_back(std::move(Seq));
  }
}

server::ServerOptions ServePlan::serverOptions() {
  server::ServerOptions Opts;
  Opts.Compile = bytecodeOptions();
  Opts.Compile.AsyncWorkers = 2;
  return Opts;
}

namespace {

/// One pipelined exchange through the LEVP/1 wire format, with spans
/// around the server side's frame parsing, processing and formatting.
std::vector<server::Response>
exchange(server::Server &Srv, const std::vector<server::Request> &Batch,
         Recorder *R, uint32_t Op, Outcome &O) {
  std::string Wire;
  for (const server::Request &Req : Batch)
    Wire += server::formatRequest(Req);

  std::vector<Result<server::Request>> Frames;
  {
    Scoped S(R, SpanName::FrameParse, Op);
    server::FrameReader FR;
    FR.append(Wire);
    while (std::optional<Result<server::Request>> F = FR.next())
      Frames.push_back(std::move(*F));
  }
  std::vector<server::Response> Resps;
  {
    Scoped S(R, SpanName::Process, Op);
    Resps = Srv.process(Frames);
  }
  std::vector<server::Response> Out;
  {
    Scoped S(R, SpanName::Format, Op);
    std::string Back;
    for (const server::Response &Resp : Resps)
      Back += server::formatResponse(Resp);
    server::ResponseReader RR;
    RR.append(Back);
    while (std::optional<Result<server::Response>> F = RR.next()) {
      if (!*F) {
        O.wrong("serve-hot: malformed response frame: " + F->error());
        break;
      }
      Out.push_back(std::move(**F));
    }
  }
  if (Out.size() != Batch.size())
    O.wrong("serve-hot: " + std::to_string(Batch.size()) + " frames sent, " +
            std::to_string(Out.size()) + " responses");
  return Out;
}

} // namespace

void ServePlan::registerPrograms(server::Server &Srv, Outcome &O) {
  for (size_t C = 0; C != Clients; ++C)
    for (const Program &P : Programs[C]) {
      server::Request Req;
      Req.K = server::Request::Kind::Compile;
      Req.Tenant = tenant(C);
      Req.Name = P.Name;
      Req.Source = P.Source;
      std::vector<server::Response> Resp =
          exchange(Srv, {Req}, nullptr, 0, O);
      if (Resp.size() != 1 || !Resp[0].ok())
        O.wrong("serve-hot: COMPILE of '" + P.Name + "' failed: " +
                (Resp.empty() ? std::string("no response") : Resp[0].Payload));
    }
}

void ServePlan::runClient(server::Server &Srv, size_t Client, OpTimes *T,
                          Recorder *R, Outcome &O) {
  const std::vector<Program> &Progs = Programs[Client];
  const std::vector<uint8_t> &Seq = Sequence[Client];
  std::vector<server::Request> Batch(Depth);
  for (size_t B = 0; B != Batches; ++B) {
    uint32_t Op = static_cast<uint32_t>((Client * Batches + B) * Depth);
    auto T0 = Clock::now();
    std::vector<server::Response> Resp;
    {
      Scoped S(R, SpanName::Op, Op);
      for (size_t K = 0; K != Depth; ++K) {
        server::Request &Req = Batch[K];
        Req.K = server::Request::Kind::Run;
        Req.Tenant = tenant(Client);
        Req.Name = Progs[Seq[B * Depth + K]].Name;
        Req.B = driver::Backend::Bytecode;
      }
      Resp = exchange(Srv, Batch, R, Op, O);
    }
    double Micros = microsSince(T0);
    RunsSent.fetch_add(Depth, std::memory_order_relaxed);
    for (size_t K = 0; K != Resp.size(); ++K) {
      const Program &P = Progs[Seq[B * Depth + K]];
      ++O.Attempted;
      if (T)
        T->op(Op + K, Micros);
      if (Resp[K].St == server::Response::Status::Busy) {
        ++O.Failed;
        continue;
      }
      std::optional<int64_t> V = server::extractInt(Resp[K].Payload);
      if (!Resp[K].ok() || !V || *V != P.ExpectInt)
        O.wrong("serve-hot: RUN '" + P.Name + "' answered " +
                std::string(server::statusToken(Resp[K].St)) + " " +
                Resp[K].Payload + ", expected " + std::to_string(P.ExpectInt));
    }
  }
}

void ServePlan::reconcile(server::Server &Srv, Outcome &O) const {
  server::TenantStats Sum;
  uint64_t OtherBackends = 0;
  for (size_t C = 0; C != Clients; ++C) {
    server::TenantStats T = Srv.tenantStats(tenant(C));
    Sum.CacheHits += T.CacheHits;
    Sum.FrontEndCompiles += T.FrontEndCompiles;
    Sum.RunsBytecode += T.RunsBytecode;
    Sum.Rejected += T.Rejected;
    OtherBackends += T.RunsMachine + T.RunsTree;
  }
  driver::Session::Stats St = Srv.session().stats();
  uint64_t Sent = RunsSent.load();
  if (Sum.CacheHits != St.CacheHits ||
      Sum.FrontEndCompiles != St.Compilations ||
      Sum.RunsBytecode + Sum.Rejected != Sent || OtherBackends != 0)
    O.wrong("serve-hot: ledgers do not reconcile: tenant cache hits " +
            std::to_string(Sum.CacheHits) + " vs session " +
            std::to_string(St.CacheHits) + ", front-end " +
            std::to_string(Sum.FrontEndCompiles) + " vs " +
            std::to_string(St.Compilations) + ", bytecode runs " +
            std::to_string(Sum.RunsBytecode) + " + busy " +
            std::to_string(Sum.Rejected) + " vs " + std::to_string(Sent) +
            " RUN frames sent");
}
