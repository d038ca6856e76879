//===- Gen.h - Seeded program generator and independent answers -*- C++ -*-===//
//
// Part of the levity benchmark (levbench/). The generator writes surface
// programs from a seed; the program under test receives only the source
// text. Every expected answer is computed here, apart from the pipeline:
// closed forms for loops and list folds, an iterative fib, a wrapping
// int64 evaluator for the arithmetic family, and a C++ loop in the
// program's own order for the Double# family.
//
//===----------------------------------------------------------------------===//

#ifndef LEVBENCH_GEN_H
#define LEVBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace levbench {

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same programs on every standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }

private:
  uint64_t State;
};

enum class Family : uint8_t {
  Arith,      ///< Wide +#/-#/*# expression over two Int# parameters.
  SumUnboxed, ///< The paper's Section 2.1 sumTo over Int#.
  SumBoxed,   ///< The same loop over boxed Int.
  ListFold,   ///< Build an IntList of 1..n, fold it with an Int# accumulator.
  DoubleLoop, ///< A Double# accumulator loop.
  Fib,        ///< Doubly recursive fib over Int#.
  Gap         ///< A fixed program outside the core->L fragment.
};

const char *familyName(Family F);

/// One generated program and its independently computed answer.
struct Program {
  Family F = Family::Arith;
  std::string Name;   ///< The top-level binding that holds the answer.
  std::string Source; ///< Surface program text.
  bool IsDouble = false;
  int64_t ExpectInt = 0;
  double ExpectDouble = 0;
};

/// `Count` distinct small programs from every family except Gap: the
/// compile-cold and store-warm set. Runs are tiny, so the front end and
/// lowering dominate. Every set draws the same multiset of sizes; the seed
/// picks their order, the names, literals, expression shapes and constants.
std::vector<Program> compileSet(uint64_t Seed, size_t Count);

/// `PerFamily` programs of each loop family, sized so that the run
/// dominates: the run-hot set.
std::vector<Program> runSet(uint64_t Seed, size_t PerFamily);

/// The fixed fragment-gap programs (independent of the seed): an
/// unboxed-tuple result, mutually recursive ev/od, and int2Double#.
std::vector<Program> gapSet();

/// `Count` tiny programs whose answer binding is named like the program,
/// as a levityd RUN evaluates them: the serve-hot registry of one tenant.
std::vector<Program> serveSet(uint64_t Seed, size_t Count,
                              const std::string &Prefix);

/// True when \p IntValue or \p DoubleValue (null when absent) matches the
/// program's expected answer.
bool answerMatches(const Program &P, const int64_t *IntValue,
                   const double *DoubleValue);

} // namespace levbench

#endif // LEVBENCH_GEN_H
