//===- Trace.h - In-memory spans for the traced run ------------*- C++ -*-===//
//
// Part of the levity benchmark (levbench/).
//
// A span records one call into a layer's public function: its name, the
// operation it served, the enclosing span, and its start and end. Spans
// stay in memory until the run ends. A layer's self time is its span's
// duration minus the time its direct child spans cover.
//
//===----------------------------------------------------------------------===//

#ifndef LEVBENCH_TRACE_H
#define LEVBENCH_TRACE_H

#include "Bench.h"

#include <cstdint>
#include <string>
#include <vector>

namespace levbench {

enum class SpanName : uint8_t {
  Op,          ///< One whole operation of the traced workload.
  Lex,         ///< surface::Lexer::lexAll
  Parse,       ///< surface::Parser::parseModule
  Elaborate,   ///< surface::Elaborator::run (inference, type, levity checks)
  LevityCheck, ///< core::LevityChecker::check over every binding, again
  LowerL,      ///< driver::CoreToL::lowerGlobal
  Anf,         ///< anf::Compiler::compileClosed
  BcCompile,   ///< bytecode::compile
  VmRun,       ///< bytecode::Vm::run
  Serialize,   ///< driver::Compilation::serializeArtifact
  StoreLoad,   ///< driver::ArtifactStore::load
  Hydrate,     ///< driver::Compilation::deserializeArtifact
  ExecRun,     ///< driver::Executor::run on Backend::Bytecode
  CacheHit,    ///< driver::Session::compile on a cached source
  ExecutorNew, ///< driver::Executor construction and its first run
  FrameParse,  ///< server::FrameReader append + next
  Process,     ///< server::Server::process
  Format,      ///< server::formatResponse + server::ResponseReader
  NumNames
};

const char *spanName(SpanName N);

struct Span {
  SpanName Name;
  uint32_t Pass;
  uint32_t Op;
  int32_t Parent; ///< Index of the enclosing span, or -1.
  double Start;   ///< µs since the recorder's epoch.
  double End;
};

/// One thread's spans. Not thread-safe: give each thread its own.
class Recorder {
public:
  explicit Recorder(Clock::time_point Epoch) : Epoch(Epoch) {}

  int begin(SpanName N, uint32_t Op) {
    Spans.push_back({N, Pass, Op, Open.empty() ? -1 : Open.back(), now(), 0});
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }
  void end(int Idx) {
    Spans[Idx].End = now();
    Open.pop_back();
  }

  uint32_t Pass = 0;
  std::vector<Span> Spans;

private:
  double now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }
  Clock::time_point Epoch;
  std::vector<int> Open;
};

/// Records a span for the enclosing scope; a null recorder records
/// nothing, so traced and untraced code share one path.
class Scoped {
public:
  Scoped(Recorder *R, SpanName N, uint32_t Op)
      : R(R), Idx(R ? R->begin(N, Op) : -1) {}
  ~Scoped() {
    if (R)
      R->end(Idx);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Recorder *R;
  int Idx;
};

/// Self time of every span of \p Spans, in the same order.
std::vector<double> selfTimes(const std::vector<Span> &Spans);

/// The median over operations of each operation's fastest per-pass self
/// time in spans named \p N (µs); 0 when no such span exists.
double medianFastestSelf(const std::vector<Span> &Spans,
                         const std::vector<double> &Self, SpanName N);

} // namespace levbench

#endif // LEVBENCH_TRACE_H
