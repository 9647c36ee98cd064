#include "programs/RandomProgram.h"

#include <cassert>
#include <random>
#include <vector>

using namespace afl;
using namespace afl::programs;

namespace {

/// The small monomorphic type universe of generated programs.
enum class GType { Int, Bool, ListInt, PairIntInt, FnIntInt };

/// Concatenates \p Parts left to right with +=. The generator builds
/// text this way rather than with `"lit" + std::string&&` chains: GCC 12
/// at -O3 raises a false -Wrestrict on those, and a chain leaves the
/// order of its random draws to the compiler. Parts that draw are
/// generated into locals first, last part first — the order GCC gave
/// the chains, in which the seeded corpora were generated.
template <typename... Ts> std::string cat(const Ts &...Parts) {
  std::string Out;
  ((Out += Parts), ...);
  return Out;
}

class Generator {
public:
  Generator(unsigned Seed, const RandomProgramOptions &Options)
      : Rng(Seed), Options(Options) {}

  std::string run() {
    // Result type: prefer ones easy to compare textually.
    switch (pick(4)) {
    case 0:
      return genExpr(GType::Int, Options.MaxDepth);
    case 1:
      return genExpr(GType::Bool, Options.MaxDepth);
    case 2:
      return genExpr(GType::ListInt, Options.MaxDepth);
    default:
      return genExpr(GType::PairIntInt, Options.MaxDepth);
    }
  }

private:
  unsigned pick(unsigned N) {
    return std::uniform_int_distribution<unsigned>(0, N - 1)(Rng);
  }
  bool coin() { return pick(2) == 0; }

  std::string freshName(const char *Prefix) {
    return std::string(Prefix) + std::to_string(NameCounter++);
  }

  /// Variables of type \p T currently in scope.
  std::vector<std::string> varsOf(GType T) const {
    std::vector<std::string> Out;
    for (const auto &[Name, Ty] : Env)
      if (Ty == T)
        Out.push_back(Name);
    return Out;
  }

  std::string genExpr(GType T, unsigned Depth) {
    // Occasionally use a variable of the right type.
    std::vector<std::string> Vars = varsOf(T);
    if (!Vars.empty() && pick(4) == 0)
      return Vars[pick(static_cast<unsigned>(Vars.size()))];
    if (Depth == 0)
      return genBase(T);

    switch (T) {
    case GType::Int:
      return genInt(Depth);
    case GType::Bool:
      return genBool(Depth);
    case GType::ListInt:
      return genList(Depth);
    case GType::PairIntInt:
      return genPair(Depth);
    case GType::FnIntInt:
      return genFn(Depth);
    }
    return genBase(T);
  }

  std::string genBase(GType T) {
    switch (T) {
    case GType::Int: {
      std::vector<std::string> Vars = varsOf(GType::Int);
      if (!Vars.empty() && coin())
        return Vars[pick(static_cast<unsigned>(Vars.size()))];
      return std::to_string(pick(100));
    }
    case GType::Bool:
      return coin() ? "true" : "false";
    case GType::ListInt:
      return "nil";
    case GType::PairIntInt: {
      std::string Second = genBase(GType::Int);
      std::string First = genBase(GType::Int);
      return cat("(", First, ", ", Second, ")");
    }
    case GType::FnIntInt: {
      std::string X = freshName("a");
      return "fn " + X + " => " + X + " + " + std::to_string(pick(10));
    }
    }
    return "0";
  }

  std::string genInt(unsigned Depth) {
    switch (pick(Options.Recursion ? 9 : 8)) {
    case 0:
      return genBase(GType::Int);
    case 1: {
      const char *Ops[] = {"+", "-", "*"};
      std::string Rhs = genExpr(GType::Int, Depth - 1);
      const char *Op = Ops[pick(3)];
      std::string Lhs = genExpr(GType::Int, Depth - 1);
      return cat("(", Lhs, " ", Op, " ", Rhs, ")");
    }
    case 2: { // guarded div/mod
      std::string Divisor = std::to_string(1 + pick(9));
      const char *Op = coin() ? "div" : "mod";
      std::string Lhs = genExpr(GType::Int, Depth - 1);
      return cat("(", Lhs, " ", Op, " ", Divisor, ")");
    }
    case 3: {
      std::string Else = genExpr(GType::Int, Depth - 1);
      std::string Then = genExpr(GType::Int, Depth - 1);
      std::string Cond = genExpr(GType::Bool, Depth - 1);
      return cat("(if ", Cond, " then ", Then, " else ", Else, ")");
    }
    case 4:
      return genLet(GType::Int, Depth);
    case 5:
      return "(fst " + genExpr(GType::PairIntInt, Depth - 1) + ")";
    case 6: { // safe head: if null l then k else hd l
      std::string L = freshName("l");
      std::string Default = std::to_string(pick(10));
      std::string Init = genExpr(GType::ListInt, Depth - 1);
      return cat("(let ", L, " = ", Init, " in if null ", L, " then ",
                 Default, " else hd ", L, " end)");
    }
    case 7: {
      if (!Options.HigherOrder)
        return genBase(GType::Int);
      if (Options.ClosureEscape && pick(3) == 0) {
        // Store a closure in a pair, retrieve it, apply it.
        std::string P = freshName("cp");
        std::string Arg = genExpr(GType::Int, Depth - 1);
        std::string Fn = genExpr(GType::FnIntInt, Depth - 1);
        return cat("(let ", P, " = (", Fn, ", ", Arg, ") in (fst ", P,
                   ") (snd ", P, ") end)");
      }
      std::string Arg = genExpr(GType::Int, Depth - 1);
      std::string Fn = genExpr(GType::FnIntInt, Depth - 1);
      return cat("(", Fn, ") (", Arg, ")");
    }
    case 8:
      return genRecInt(Depth);
    }
    return genBase(GType::Int);
  }

  std::string genBool(unsigned Depth) {
    switch (pick(4)) {
    case 0:
      return genBase(GType::Bool);
    case 1: {
      const char *Ops[] = {"<", "<=", "="};
      std::string Rhs = genExpr(GType::Int, Depth - 1);
      const char *Op = Ops[pick(3)];
      std::string Lhs = genExpr(GType::Int, Depth - 1);
      return cat("(", Lhs, " ", Op, " ", Rhs, ")");
    }
    case 2:
      return "(null " + genExpr(GType::ListInt, Depth - 1) + ")";
    default:
      return genLet(GType::Bool, Depth);
    }
  }

  std::string genList(unsigned Depth) {
    switch (pick(Options.Recursion ? 5 : 4)) {
    case 0:
      return "nil";
    case 1: {
      std::string Tail = genExpr(GType::ListInt, Depth - 1);
      std::string Head = genExpr(GType::Int, Depth - 1);
      return cat("(", Head, " :: ", Tail, ")");
    }
    case 2:
      return genLet(GType::ListInt, Depth);
    case 3: { // safe tail
      std::string L = freshName("l");
      return "(let " + L + " = " + genExpr(GType::ListInt, Depth - 1) +
             " in if null " + L + " then nil else tl " + L + " end)";
    }
    case 4: { // fromto-style builder
      std::string F = freshName("mk");
      std::string N = freshName("n");
      return "(letrec " + F + " " + N + " = if " + N + " <= 0 then nil" +
             " else " + N + " :: " + F + " (" + N + " - 1) in " + F + " (" +
             std::to_string(1 + pick(8)) + ") end)";
    }
    }
    return "nil";
  }

  std::string genPair(unsigned Depth) {
    if (pick(3) == 0)
      return genLet(GType::PairIntInt, Depth);
    std::string Second = genExpr(GType::Int, Depth - 1);
    std::string First = genExpr(GType::Int, Depth - 1);
    return cat("(", First, ", ", Second, ")");
  }

  std::string genFn(unsigned Depth) {
    std::string X = freshName("x");
    Env.push_back({X, GType::Int});
    std::string Body = genExpr(GType::Int, Depth - 1);
    Env.pop_back();
    return "(fn " + X + " => " + Body + ")";
  }

  std::string genLet(GType T, unsigned Depth) {
    GType InitT;
    switch (pick(4)) {
    case 0:
      InitT = GType::Int;
      break;
    case 1:
      InitT = GType::ListInt;
      break;
    case 2:
      InitT = GType::PairIntInt;
      break;
    default:
      InitT = Options.HigherOrder ? GType::FnIntInt : GType::Int;
      break;
    }
    std::string X = freshName("v");
    std::string Init = genExpr(InitT, Depth - 1);
    Env.push_back({X, InitT});
    std::string Body = genExpr(T, Depth - 1);
    Env.pop_back();
    return "(let " + X + " = " + Init + " in " + Body + " end)";
  }

  /// Guarded-recursive int function applied to a small argument. Four
  /// shapes: numeric recursion, a list consumer, a pair-parameter
  /// accumulator (quicksort-helper style), and a pair-parameter call with
  /// *aliased* components (both components built from one value, so the
  /// callee's region formals alias — exercising the color discipline).
  /// A fifth shape (Options.NestedHof) is the permuted-payload family.
  std::string genRecInt(unsigned Depth) {
    unsigned Shape =
        pick(Options.NestedHof && Options.HigherOrder ? 5 : 4);
    if (Shape == 4)
      return genPermRec(Depth);
    if (Shape == 0) {
      std::string F = freshName("f");
      std::string N = freshName("n");
      Env.push_back({N, GType::Int});
      std::string Step = genExpr(GType::Int, Depth >= 2 ? Depth - 2 : 0);
      Env.pop_back();
      std::string Arg = std::to_string(1 + pick(6));
      std::string Base = std::to_string(pick(10));
      return cat("(letrec ", F, " ", N, " = if ", N, " <= 0 then ", Base,
                 " else (", Step, ") + ", F, " (", N, " - 1) in ", F, " (",
                 Arg, ") end)");
    }
    if (Shape == 1) {
      std::string F = freshName("g");
      std::string L = freshName("l");
      std::string Arg = genExpr(GType::ListInt, Depth - 1);
      return "(letrec " + F + " " + L + " = if null " + L +
             " then 0 else hd " + L + " + " + F + " (tl " + L + ") in " +
             F + " (" + Arg + ") end)";
    }
    if (Shape == 2) {
      // Accumulator over a pair (count, acc).
      std::string F = freshName("h");
      std::string P = freshName("p");
      std::string Acc = genExpr(GType::Int, Depth - 1);
      std::string Count = std::to_string(1 + pick(6));
      std::string Step = std::to_string(1 + pick(5));
      return cat("(letrec ", F, " ", P, " = if fst ", P, " <= 0 then snd ",
                 P, " else ", F, " (fst ", P, " - 1, snd ", P, " + ", Step,
                 ") in ", F, " (", Count, ", ", Acc, ") end)");
    }
    // Aliased pair components: (v, v) puts both components in the same
    // region; the callee's formals for them are bound to one color.
    std::string F = freshName("k");
    std::string P = freshName("q");
    std::string V = freshName("w");
    return "(let " + V + " = " + genExpr(GType::Int, Depth - 1) +
           " in letrec " + F + " " + P + " = if fst " + P +
           " <= 0 then snd " + P + " else " + F + " (fst " + P +
           " - 1, snd " + P + ") in " + F + " (" + V + ", " + V +
           ") end end)";
  }

  /// Permuted-payload nested-HOF recursion: a letrec over
  /// (count, M-slot right-nested pair payload) with two recursive call
  /// sites applying different slot permutations (rotate, swap-first-two)
  /// through a higher-order int→int helper. Each distinct slot→region
  /// arrangement is a distinct abstract environment for the recursive
  /// closure, so the exact analysis walks the permutation orbit; the
  /// widened analysis collapses it. M stays at 2–3 so the exact side of
  /// a 500-program differential sweep remains affordable.
  std::string genPermRec(unsigned Depth) {
    const unsigned M = 2 + pick(2);
    std::string F = freshName("k");
    std::string Q = freshName("q");
    std::string Ap = freshName("ap");
    // Right-nested tuple text: (p0, (p1, ... pM-1)).
    auto Tup = [](const std::vector<std::string> &Parts) {
      std::string Out = Parts.back();
      for (size_t I = Parts.size() - 1; I-- > 0;)
        Out = "(" + Parts[I] + ", " + Out + ")";
      return Out;
    };
    // Slot I of the payload, read through the higher-order helper.
    auto Slot = [&](unsigned I) {
      std::string E = "(snd " + Q + ")";
      for (unsigned J = 0; J < I; ++J)
        E = "(snd " + E + ")";
      if (I < M - 1)
        E = "(fst " + E + ")";
      return "(" + Ap + " " + E + ")";
    };
    std::vector<std::string> Rot, Swp, Init;
    for (unsigned I = 0; I < M; ++I)
      Rot.push_back(Slot((I + 1) % M));
    Swp.push_back(Slot(1));
    Swp.push_back(Slot(0));
    for (unsigned I = 2; I < M; ++I)
      Swp.push_back(Slot(I));
    std::string Out = "(let " + Ap + " = " + genExpr(GType::FnIntInt, 1) +
                      " in ";
    for (unsigned I = 0; I < M; ++I) {
      std::string W = freshName("w");
      Out += "let " + W + " = " +
             genExpr(GType::Int, Depth >= 2 ? Depth - 2 : 0) + " in ";
      Init.push_back(W);
    }
    Out += "letrec " + F + " " + Q + " = if fst " + Q +
           " <= 0 then 0 else " + F + " (fst " + Q + " - 1, " + Tup(Rot) +
           ") + " + F + " (fst " + Q + " - 1, " + Tup(Swp) + ") in " + F +
           " (" + std::to_string(1 + pick(3)) + ", " + Tup(Init) + ") end";
    for (unsigned I = 0; I != M + 1; ++I) // close the w-slot + ap lets
      Out += " end";
    return Out + ")";
  }

  std::mt19937 Rng;
  const RandomProgramOptions &Options;
  std::vector<std::pair<std::string, GType>> Env;
  unsigned NameCounter = 0;
};

} // namespace

std::string
programs::generateRandomProgram(unsigned Seed,
                                const RandomProgramOptions &Options) {
  Generator G(Seed, Options);
  return G.run();
}
