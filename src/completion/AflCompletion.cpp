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
                                     const closure::ClosureOptions &ClosureOpts) {
  Stopwatch Watch;
  closure::ClosureAnalysis CA(Prog, ClosureOpts);
  bool Converged = CA.run();
  double ClosureSeconds = Watch.seconds();

  if (!Converged) {
    // The fixpoint hit its stabilization cap: the analysis tables are an
    // unsound snapshot, so fall back to the conservative completion.
    if (Stats) {
      Stats->ClosureSeconds = ClosureSeconds;
      Stats->Closure = CA.stats();
      Stats->Solved = false;
    }
    return conservativeCompletion(Prog);
  }

  Watch.reset();
  constraints::GenResult Gen =
      constraints::generateConstraints(Prog, CA, Options);
  double GenSeconds = Watch.seconds();
  solver::SolveResult Sol = solver::solve(Gen.Sys, Solve);
  Watch.reset();

  if (Stats) {
    Stats->ClosureSeconds = ClosureSeconds;
    Stats->ConstraintGenSeconds = GenSeconds;
    Stats->SolveSeconds = Sol.Seconds;
    Stats->Closure = CA.stats();
    Stats->NumContexts = Gen.NumContexts;
    Stats->NumStateVars = Gen.Sys.numStateVars();
    Stats->NumBoolVars = Gen.Sys.numBoolVars();
    Stats->NumConstraints = Gen.Sys.numConstraints();
    Stats->NumPinnedCalls = Gen.NumPinnedCalls;
    Stats->NumWidenedPinned = Gen.NumWidenedPinned;
    Stats->SolverPropagations = Sol.Propagations;
    Stats->SolverChoices = Sol.Choices;
    Stats->SolverBacktracks = Sol.Backtracks;
    Stats->SolverSimplify = Sol.Simplify;
    Stats->Sharding = Gen.Sharding;
    Stats->Solved = Sol.Sat;
  }

  if (!Sol.Sat)
    return conservativeCompletion(Prog);

  Completion Out = extractCompletion(Gen, Sol);
  if (Stats)
    Stats->ExtractSeconds = Watch.seconds();
  return Out;
}
