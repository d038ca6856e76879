//===- Gen.cpp - Seeded program generator and independent answers ---------===//
//
// Part of the levity benchmark (levbench/).
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include <cstring>
#include <memory>

using namespace levbench;

const char *levbench::familyName(Family F) {
  switch (F) {
  case Family::Arith:
    return "arith";
  case Family::SumUnboxed:
    return "sum-unboxed";
  case Family::SumBoxed:
    return "sum-boxed";
  case Family::ListFold:
    return "list-fold";
  case Family::DoubleLoop:
    return "double-loop";
  case Family::Fib:
    return "fib";
  case Family::Gap:
    return "gap";
  }
  return "?";
}

namespace {

int64_t triangle(int64_t N) { return N * (N + 1) / 2; }

int64_t fibIter(int64_t N) {
  int64_t A = 0, B = 1;
  for (int64_t I = 0; I != N; ++I) {
    int64_t T = A + B;
    A = B;
    B = T;
  }
  return A;
}

/// The Double# loop below, summed in its own order:
///   sumD acc n = case (n ==## 0.0##) of { 1# -> acc ;
///                  _ -> sumD (acc +## (n *## c)) (n -## 1.0##) }
double doubleLoop(int64_t N, double C) {
  double Acc = 0.0;
  for (double X = static_cast<double>(N); X != 0.0; X -= 1.0)
    Acc = Acc + X * C;
  return Acc;
}

/// A +#/-#/*# expression tree over parameters a and b and small literals.
struct Expr {
  char Op = 0; ///< '+', '-', '*', or 0 for a leaf.
  int Leaf = 0; ///< -1 = a, -2 = b, otherwise a literal.
  std::unique_ptr<Expr> L, R;
};

std::unique_ptr<Expr> genExpr(Rng &G, int Leaves) {
  auto E = std::make_unique<Expr>();
  if (Leaves <= 1) {
    int64_t K = G.range(0, 5);
    E->Leaf = K == 0 ? -1 : K == 1 ? -2 : static_cast<int>(G.range(0, 19));
    return E;
  }
  static const char Ops[] = {'+', '-', '*', '+', '-', '+'};
  E->Op = Ops[G.range(0, 5)];
  int Left = static_cast<int>(G.range(1, Leaves - 1));
  E->L = genExpr(G, Left);
  E->R = genExpr(G, Leaves - Left);
  return E;
}

/// The wrapping int64 evaluator: two's-complement arithmetic done on
/// uint64_t, so the answer is defined whatever the operands.
uint64_t evalWrap(const Expr &E, uint64_t A, uint64_t B) {
  if (!E.Op)
    return E.Leaf == -1 ? A : E.Leaf == -2 ? B : static_cast<uint64_t>(E.Leaf);
  uint64_t L = evalWrap(*E.L, A, B), R = evalWrap(*E.R, A, B);
  switch (E.Op) {
  case '+':
    return L + R;
  case '-':
    return L - R;
  default:
    return L * R;
  }
}

/// True when no intermediate result leaves int64 range. The generator
/// keeps only such trees: the pipeline's Int# arithmetic is plain signed
/// int64, where overflow is undefined, so a benchmark input must not
/// overflow (the expected answer is still computed by wrapping).
bool fitsInt64(const Expr &E, int64_t A, int64_t B, int64_t &Out) {
  if (!E.Op) {
    Out = E.Leaf == -1 ? A : E.Leaf == -2 ? B : E.Leaf;
    return true;
  }
  int64_t L = 0, R = 0;
  if (!fitsInt64(*E.L, A, B, L) || !fitsInt64(*E.R, A, B, R))
    return false;
  switch (E.Op) {
  case '+':
    return !__builtin_add_overflow(L, R, &Out);
  case '-':
    return !__builtin_sub_overflow(L, R, &Out);
  default:
    return !__builtin_mul_overflow(L, R, &Out);
  }
}

void render(const Expr &E, std::string &Out) {
  if (!E.Op) {
    Out += E.Leaf == -1 ? "a" : E.Leaf == -2 ? "b" : std::to_string(E.Leaf) + "#";
    return;
  }
  Out += '(';
  render(*E.L, Out);
  Out += E.Op == '+' ? " +# " : E.Op == '-' ? " -# " : " *# ";
  render(*E.R, Out);
  Out += ')';
}

std::string doubleLit(double D) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  std::string S = Buf;
  if (S.find('.') == std::string::npos && S.find('e') == std::string::npos)
    S += ".0";
  return S + "##";
}

/// One program of family \p F. \p Id makes every name (and so every
/// source text) distinct; \p Size scales the loop families.
Program make(Family F, const std::string &Id, Rng &G, int64_t Size,
             const std::string &AnswerName) {
  Program P;
  P.F = F;
  P.Name = AnswerName;
  const std::string &V = AnswerName;
  std::string N = std::to_string(Size);
  switch (F) {
  case Family::Arith: {
    std::unique_ptr<Expr> E;
    int64_t A = 0, B = 0, Ignored = 0;
    do {
      E = genExpr(G, static_cast<int>(Size));
      A = G.range(0, 99);
      B = G.range(0, 99);
    } while (!fitsInt64(*E, A, B, Ignored));
    std::string Body;
    render(*E, Body);
    P.Source = "f" + Id + " :: Int# -> Int# -> Int# ; f" + Id + " a b = " +
               Body + " ; " + V + " = f" + Id + " " + std::to_string(A) +
               "# " + std::to_string(B) + "#";
    P.ExpectInt = static_cast<int64_t>(
        evalWrap(*E, static_cast<uint64_t>(A), static_cast<uint64_t>(B)));
    break;
  }
  case Family::SumUnboxed:
    P.Source = "sumTo" + Id + " :: Int# -> Int# -> Int# ; sumTo" + Id +
               " acc n = case n of { 0# -> acc ; _ -> sumTo" + Id +
               " (acc +# n) (n -# 1#) } ; " + V + " = sumTo" + Id + " 0# " +
               N + "#";
    P.ExpectInt = triangle(Size);
    break;
  case Family::SumBoxed:
    P.Source = "sumB" + Id + " :: Int -> Int -> Int ; sumB" + Id +
               " acc n = case n of { 0 -> acc ; _ -> sumB" + Id +
               " (acc + n) (n - 1) } ; " + V + " = sumB" + Id +
               " (I# 0#) (I# " + N + "#)";
    P.ExpectInt = triangle(Size);
    break;
  case Family::ListFold:
    P.Source = "data IntList = Nil | Cons Int IntList ; build" + Id +
               " :: Int# -> IntList -> IntList ; build" + Id +
               " n acc = case n of { 0# -> acc ; _ -> build" + Id +
               " (n -# 1#) (Cons (I# n) acc) } ; fold" + Id +
               " :: Int# -> IntList -> Int# ; fold" + Id +
               " acc xs = case xs of { Nil -> acc ; Cons y ys -> case y of "
               "{ I# k -> fold" + Id + " (acc +# k) ys } } ; " + V +
               " = fold" + Id + " 0# (build" + Id + " " + N + "# Nil)";
    P.ExpectInt = triangle(Size);
    break;
  case Family::DoubleLoop: {
    double C = static_cast<double>(G.range(1, 64)) / 16.0 + 0.1;
    P.Source = "sumD" + Id + " :: Double# -> Double# -> Double# ; sumD" +
               Id + " acc n = case (n ==## 0.0##) of { 1# -> acc ; _ -> sumD" +
               Id + " (acc +## (n *## " + doubleLit(C) +
               ")) (n -## 1.0##) } ; " + V + " = sumD" + Id + " 0.0## " +
               doubleLit(static_cast<double>(Size));
    P.IsDouble = true;
    P.ExpectDouble = doubleLoop(Size, C);
    break;
  }
  case Family::Fib:
    P.Source = "fib" + Id + " :: Int# -> Int# ; fib" + Id +
               " n = case (n <# 2#) of { 1# -> n ; _ -> fib" + Id +
               " (n -# 1#) +# fib" + Id + " (n -# 2#) } ; " + V + " = fib" +
               Id + " " + N + "#";
    P.ExpectInt = fibIter(Size);
    break;
  case Family::Gap:
    break;
  }
  return P;
}

/// \p Count sizes spread evenly over [Lo, Hi], in a seeded order. Every
/// seed draws the same multiset of sizes, so the work in a set barely
/// moves with the seed while every program text does.
std::vector<int64_t> spread(Rng &G, size_t Count, int64_t Lo, int64_t Hi) {
  std::vector<int64_t> Sizes(Count);
  for (size_t I = 0; I != Count; ++I)
    Sizes[I] = Lo + static_cast<int64_t>(
                        Count > 1 ? I * static_cast<size_t>(Hi - Lo) / (Count - 1)
                                  : 0);
  for (size_t I = Count; I > 1; --I)
    std::swap(Sizes[I - 1], Sizes[static_cast<size_t>(G.range(0, I - 1))]);
  return Sizes;
}

} // namespace

std::vector<Program> levbench::compileSet(uint64_t Seed, size_t Count) {
  Rng G(Seed * 0x100000001b3ULL + 1);
  // Half wide arithmetic (the front end's widest inputs), half small
  // instances of the five loop families, interleaved.
  size_t NumArith = (Count + 1) / 2, NumLoops = Count / 2;
  std::vector<int64_t> Leaves = spread(G, NumArith, 16, 40);
  std::vector<int64_t> LoopSizes = spread(G, NumLoops, 5, 40);
  std::vector<int64_t> FibSizes = spread(G, NumLoops, 5, 12);
  std::vector<Program> Out;
  Out.reserve(Count);
  for (size_t I = 0; I != Count; ++I) {
    Family F = I % 2 == 0 ? Family::Arith
                          : static_cast<Family>(1 + (I / 2) % 5);
    int64_t Size = F == Family::Arith ? Leaves[I / 2]
                   : F == Family::Fib ? FibSizes[I / 2]
                                      : LoopSizes[I / 2];
    std::string Id = std::to_string(I) + "x" + std::to_string(G.range(0, 9999));
    Out.push_back(make(F, Id, G, Size, "v" + Id));
  }
  return Out;
}

std::vector<Program> levbench::runSet(uint64_t Seed, size_t PerFamily) {
  Rng G(Seed * 0x100000001b3ULL + 2);
  struct Range {
    Family F;
    int64_t Lo, Hi;
  };
  // Sizes chosen so that each run takes roughly a millisecond.
  const Range Ranges[] = {{Family::SumUnboxed, 12000, 18000},
                          {Family::SumBoxed, 2400, 3600},
                          {Family::ListFold, 1600, 2400},
                          {Family::DoubleLoop, 12000, 18000},
                          {Family::Fib, 13, 15}};
  std::vector<std::vector<int64_t>> Sizes;
  for (const Range &R : Ranges)
    Sizes.push_back(spread(G, PerFamily, R.Lo, R.Hi));
  std::vector<Program> Out;
  for (size_t I = 0; I != PerFamily; ++I)
    for (size_t K = 0; K != Sizes.size(); ++K) {
      std::string Id = "r" + std::to_string(Out.size()) + "x" +
                       std::to_string(G.range(0, 9999));
      Out.push_back(make(Ranges[K].F, Id, G, Sizes[K][I], "v" + Id));
    }
  return Out;
}

std::vector<Program> levbench::gapSet() {
  std::vector<Program> Out(3);
  Out[0].Name = "gapTuple";
  Out[0].Source = "gapTuple = (# 4#, 2# #)";
  Out[1].Name = "gapMutual";
  Out[1].Source = "ev :: Int# -> Int# ; ev n = case n of { 0# -> 1# ; _ -> "
                  "od (n -# 1#) } ; od :: Int# -> Int# ; od n = case n of { "
                  "0# -> 0# ; _ -> ev (n -# 1#) } ; gapMutual = ev 10#";
  Out[1].ExpectInt = 1;
  Out[2].Name = "gapConvert";
  Out[2].Source = "gapConvert = int2Double# 7#";
  Out[2].IsDouble = true;
  Out[2].ExpectDouble = 7.0;
  for (Program &P : Out)
    P.F = Family::Gap;
  return Out;
}

std::vector<Program> levbench::serveSet(uint64_t Seed, size_t Count,
                                        const std::string &Prefix) {
  uint64_t Salt = 3;
  for (char C : Prefix)
    Salt = Salt * 131 + static_cast<unsigned char>(C);
  Rng G(Seed * 0x100000001b3ULL + Salt);
  std::vector<int64_t> Sizes = spread(G, Count, 8, 24);
  std::vector<Program> Out;
  for (size_t I = 0; I != Count; ++I) {
    // Integer answers only: a RUN reply carries the value as text.
    Family F = static_cast<Family>(I % 4); // Arith .. ListFold
    int64_t Size = Sizes[I];
    std::string Id = Prefix + std::to_string(I);
    Out.push_back(make(F, Id, G, Size, Id));
  }
  return Out;
}

bool levbench::answerMatches(const Program &P, const int64_t *IntValue,
                             const double *DoubleValue) {
  if (P.IsDouble)
    return DoubleValue &&
           std::memcmp(DoubleValue, &P.ExpectDouble, sizeof(double)) == 0;
  return IntValue && *IntValue == P.ExpectInt;
}
