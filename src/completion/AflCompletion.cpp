#include "completion/AflCompletion.h"

#include "closure/ClosureAnalysis.h"
#include "completion/Conservative.h"
#include "constraints/ConstraintGen.h"
#include "solver/Solver.h"
#include "support/Metrics.h"

#include <algorithm>

using namespace afl;
using namespace afl::completion;
using namespace afl::regions;

Completion completion::extractCompletion(const constraints::GenResult &Gen,
                                         const solver::SolveResult &Sol) {
  Completion Out;
  for (const constraints::ChoicePoint &CP : Gen.Choices) {
    if (!Sol.boolValue(CP.B))
      continue;
    switch (CP.Kind) {
    case COpKind::AllocBefore:
    case COpKind::FreeBefore:
      Out.Pre[CP.Node].push_back({CP.Kind, CP.Region});
      break;
    case COpKind::AllocAfter:
    case COpKind::FreeAfter:
      Out.Post[CP.Node].push_back({CP.Kind, CP.Region});
      break;
    case COpKind::FreeApp:
      Out.FreeApp[CP.Node].push_back({CP.Kind, CP.Region});
      break;
    }
  }
  // Ops at one point fire in ascending region order — the same
  // sequentialization order used by constraint generation.
  auto SortOps = [](std::unordered_map<RNodeId, std::vector<COp>> &M) {
    for (auto &[Node, Ops] : M)
      std::sort(Ops.begin(), Ops.end(),
                [](const COp &A, const COp &B) { return A.Region < B.Region; });
  };
  SortOps(Out.Pre);
  SortOps(Out.Post);
  SortOps(Out.FreeApp);
  return Out;
}

Completion completion::aflCompletion(const RegionProgram &Prog,
                                     AflStats *Stats,
                                     const constraints::GenOptions &Options,
                                     const solver::SolveOptions &Solve,
                                     const closure::ClosureOptions &ClosureOpts,
                                     solver::ShardSolutionCache *Cache,
                                     solver::SolveResult *Sol) {
  AflStats LocalStats;
  AflStats &S = Stats ? *Stats : LocalStats;
  S = AflStats();
  solver::SolveResult LocalSol;
  solver::SolveResult &R = Sol ? *Sol : LocalSol;
  R = solver::SolveResult();

  Stopwatch Watch;
  closure::ClosureAnalysis CA(Prog, ClosureOpts);
  bool Converged = CA.run();
  S.ClosureSeconds = Watch.seconds();
  S.Closure = CA.stats();

  // A fixpoint that hit its stabilization cap leaves an unsound snapshot
  // of the analysis tables: fall back to the conservative completion.
  if (!Converged)
    return conservativeCompletion(Prog);

  Watch.reset();
  constraints::GenResult Gen =
      constraints::generateConstraints(Prog, CA, Options);
  S.ConstraintGenSeconds = Watch.seconds();
  R = Cache ? solver::solveCached(Gen.Sys, Solve, *Cache)
            : solver::solve(Gen.Sys, Solve);

  S.SolveSeconds = R.Seconds;
  S.NumContexts = Gen.NumContexts;
  S.NumStateVars = Gen.Sys.numStateVars();
  S.NumBoolVars = Gen.Sys.numBoolVars();
  S.NumConstraints = Gen.Sys.numConstraints();
  S.NumPinnedCalls = Gen.NumPinnedCalls;
  S.NumWidenedPinned = Gen.NumWidenedPinned;
  S.SolverPropagations = R.Propagations;
  S.SolverChoices = R.Choices;
  S.SolverBacktracks = R.Backtracks;
  S.SolverSimplify = R.Simplify;
  S.Sharding = Gen.Sharding;
  S.Solved = R.Sat;
  if (!R.Sat)
    return conservativeCompletion(Prog);

  Watch.reset();
  Completion Out = extractCompletion(Gen, R);
  S.ExtractSeconds = Watch.seconds();
  return Out;
}
