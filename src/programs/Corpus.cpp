#include "programs/Corpus.h"

using namespace afl;
using namespace afl::programs;

std::string programs::appelSource(int N) {
  // g's list parameter dies after `hd (fst p) + 0` (the head is copied
  // into a fresh region) — before the next list is built and the (tail)
  // recursion continues. A stack discipline cannot reclaim any of the
  // lists until the whole recursion unwinds, holding n + (n-1) + ... + 1
  // cells: O(n²) residency and O(n) simultaneously allocated regions.
  // Freeing each dead parameter early keeps residency at O(n) and live
  // regions at O(1).
  return "letrec fromto n = if n = 0 then nil else n :: fromto (n - 1) in "
         "letrec g p = "
         "  if null (fst p) then snd p + 0 "
         "  else let h = hd (fst p) + 0 in "
         "       g (fromto (h - 1), h + snd p) end "
         "in g (fromto " +
         std::to_string(N) + ", 0) end end";
}

/// Shared list-of-random-integers generator: seed state is a pair
/// (count, seed); a linear congruential generator produces values.
static std::string randGen() {
  return "letrec randl s = "
         "  if fst s = 0 then nil "
         "  else (snd s) mod 1000 :: "
         "       randl (fst s - 1, ((snd s) * 75 + 74) mod 65537) in ";
}

std::string programs::quicksortSource(int N) {
  return randGen() +
         "letrec append p = "
         "  if null (fst p) then snd p "
         "  else hd (fst p) :: append (tl (fst p), snd p) in "
         "letrec lesseq p = "
         "  if null (snd p) then nil "
         "  else if hd (snd p) <= fst p "
         "       then hd (snd p) :: lesseq (fst p, tl (snd p)) "
         "       else lesseq (fst p, tl (snd p)) in "
         "letrec greater p = "
         "  if null (snd p) then nil "
         "  else if fst p < hd (snd p) "
         "       then hd (snd p) :: greater (fst p, tl (snd p)) "
         "       else greater (fst p, tl (snd p)) in "
         "letrec qsort l = "
         "  if null l then nil "
         "  else let pv = hd l + 0 in "
         "       append (qsort (lesseq (pv, tl l)), "
         "               pv :: qsort (greater (pv, tl l))) end "
         "in qsort (randl (" +
         std::to_string(N) + ", 12345)) end end end end end";
}

std::string programs::fibSource(int N) {
  return "letrec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in "
         "fib " +
         std::to_string(N) + " end";
}

std::string programs::randlistSource(int N) {
  return randGen() + "randl (" + std::to_string(N) + ", 12345) end";
}

std::string programs::facSource(int N) {
  return "letrec fac n = if n = 0 then 1 else n * fac (n - 1) in fac " +
         std::to_string(N) + " end";
}

std::string programs::example11Source() {
  return "(let z = (2, 3) in fn y => (fst z, y) end) 5";
}

std::string programs::example21Source() {
  return "let i = 1 in let j = 2 in "
         "letrec f k = k + 1 in (f i) + (f j) end end end";
}

std::string programs::permSource(int Slots, int Depth) {
  const int M = Slots;
  // Right-nested tuple text: (p0, (p1, ... pM-1)).
  auto Tup = [](const std::vector<std::string> &Parts) {
    std::string Out = Parts.back();
    for (size_t I = Parts.size() - 1; I-- > 0;)
      Out = "(" + Parts[I] + ", " + Out + ")";
    return Out;
  };
  // Slot I of the payload carried in k's parameter q.
  auto Slot = [M](int I) {
    std::string E = "(snd q)";
    for (int J = 0; J < I; ++J)
      E = "(snd " + E + ")";
    if (I < M - 1)
      E = "(fst " + E + ")";
    return E;
  };
  std::vector<std::string> Rot, Swp, Init;
  for (int I = 0; I < M; ++I)
    Rot.push_back(Slot((I + 1) % M));
  Swp.push_back(Slot(1));
  Swp.push_back(Slot(0));
  for (int I = 2; I < M; ++I)
    Swp.push_back(Slot(I));
  std::string Out;
  // Each payload slot starts as its own let-bound value so every slot
  // lives in a distinct region — permutations then genuinely move
  // regions between payload positions.
  // (Appended piece by piece: GCC 12 at -O3 raises a false -Wrestrict
  // on `"lit" + std::string&&` chains.)
  for (int I = 0; I < M; ++I) {
    std::string W = "w";
    W += std::to_string(I);
    Out += "let ";
    Out += W;
    Out += " = ";
    Out += std::to_string(I);
    Out += " in ";
    Init.push_back(std::move(W));
  }
  Out += "letrec k q = if fst q <= 0 then 0 else k (fst q - 1, ";
  Out += Tup(Rot);
  Out += ") + k (fst q - 1, ";
  Out += Tup(Swp);
  Out += ") in k (";
  Out += std::to_string(Depth);
  Out += ", ";
  Out += Tup(Init);
  Out += ") end";
  for (int I = 0; I < M; ++I)
    Out += " end";
  return Out;
}

std::vector<BenchProgram> programs::table2Corpus() {
  return {
      {"Appel(100)", appelSource(100)},
      {"Quicksort(500)", quicksortSource(500)},
      {"Fibonacci(6)", fibSource(6)},
      {"Randlist(25)", randlistSource(25)},
      {"Fac(10)", facSource(10)},
  };
}

std::vector<BenchProgram> programs::smallCorpus() {
  return {
      {"Appel(12)", appelSource(12)},
      {"Quicksort(20)", quicksortSource(20)},
      {"Fibonacci(8)", fibSource(8)},
      {"Randlist(10)", randlistSource(10)},
      {"Fac(6)", facSource(6)},
      {"Example1.1", example11Source()},
      {"Example2.1", example21Source()},
  };
}
