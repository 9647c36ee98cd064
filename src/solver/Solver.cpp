#include "solver/Solver.h"

#include "solver/Workspace.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cstring>
#include <numeric>

using namespace afl;
using namespace afl::solver;
using namespace afl::constraints;

namespace {

/// The propagation/choice/backtrack core over the system loaded in a
/// Workspace: the constraint span \p Cons and the byte-lane domains
/// `W.SD` / `W.BD`. The production path loads a simplified group
/// residual; the raw oracle loads the unsimplified system.
class Core {
public:
  Core(Workspace &W, const Constraint *Cons, size_t NumCons,
       SolveResult &Counts)
      : W(W), Cons(Cons), NumCons(NumCons), Counts(Counts) {}

  /// True iff the loaded system is satisfiable; the solution is then
  /// in `W.SD` / `W.BD`. Adds the work counters to Counts either way.
  /// \p AtFixpoint says the loaded domains already are the
  /// arc-consistent fixpoint of the loaded constraints (a simplified
  /// residual), so the search starts at its first choice; otherwise
  /// every constraint is propagated once first.
  bool run(bool AtFixpoint);

private:
  /// CSR occurrence lists of the loaded constraints (ascending
  /// constraint indices per variable), built once per run.
  void buildOccurrences() {
    std::vector<uint32_t> &SStart = W.SOccStart, &BStart = W.BOccStart;
    SStart.assign(W.SD.size() + 1, 0);
    BStart.assign(W.BD.size() + 1, 0);
    for (size_t CI = 0; CI != NumCons; ++CI) {
      const Constraint &C = Cons[CI];
      ++SStart[C.S1 + 1];
      ++SStart[C.S2 + 1];
      if (C.K != Constraint::Kind::Eq)
        ++BStart[C.B + 1];
    }
    for (size_t V = 1; V < SStart.size(); ++V)
      SStart[V] += SStart[V - 1];
    for (size_t V = 1; V < BStart.size(); ++V)
      BStart[V] += BStart[V - 1];
    W.SOccData.resize(SStart.back());
    W.BOccData.resize(BStart.back());
    // Fill with Start[V] as V's cursor; afterwards each cursor sits at
    // the next list's start, so shifting them up one slot restores the
    // starts.
    for (uint32_t CI = 0; CI != NumCons; ++CI) {
      const Constraint &C = Cons[CI];
      W.SOccData[SStart[C.S1]++] = CI;
      W.SOccData[SStart[C.S2]++] = CI;
      if (C.K != Constraint::Kind::Eq)
        W.BOccData[BStart[C.B]++] = CI;
    }
    SStart.insert(SStart.begin(), 0);
    SStart.pop_back();
    BStart.insert(BStart.begin(), 0);
    BStart.pop_back();
  }

  /// One scan of the variable's occurrence list handles everything a
  /// domain change requires: re-queue the constraints for propagation
  /// (skipped on rollback, which restores domains without needing to
  /// re-propagate) and refresh the border-candidate stacks — any domain
  /// change can create new candidates among the constraints mentioning
  /// the variable. The in-stack flags keep each constraint queued at
  /// most once per structure — without them, propagation-heavy programs
  /// push the same index on every domain change (quadratic growth).
  void onChange(bool IsBool, uint32_t Id, bool Enqueue) {
    const std::vector<uint32_t> &Start = IsBool ? W.BOccStart : W.SOccStart;
    const uint32_t *Data = IsBool ? W.BOccData.data() : W.SOccData.data();
    // Byte stores may alias anything, so hoist the flag arrays out of
    // the loop rather than reloading them through W on every entry.
    const Constraint *const C = Cons;
    uint8_t *const InQueue = W.InQueue.data();
    uint8_t *const InAlloc = W.InAllocCand.data();
    uint8_t *const InDealloc = W.InDeallocCand.data();
    const bool Candidates = Recording;
    for (uint32_t I = Start[Id], E = Start[Id + 1]; I != E; ++I) {
      uint32_t CI = Data[I];
      if (Enqueue && !InQueue[CI]) {
        InQueue[CI] = 1;
        W.Queue.push_back(CI);
      }
      if (!Candidates)
        continue;
      const Constraint::Kind K = C[CI].K;
      if (K == Constraint::Kind::AllocTriple) {
        if (!InAlloc[CI]) {
          InAlloc[CI] = 1;
          W.AllocCand.push_back(CI);
        }
      } else if (K == Constraint::Kind::DeallocTriple) {
        if (!InDealloc[CI]) {
          InDealloc[CI] = 1;
          W.DeallocCand.push_back(CI);
        }
      }
    }
    if (IsBool && Id < BoolPointer)
      BoolPointer = Id;
  }

  bool setState(StateVarId S, uint8_t Mask) {
    uint8_t Old = W.SD[S];
    uint8_t New = Old & Mask;
    if (New == Old)
      return true;
    if (New == 0)
      return false;
    if (Recording)
      W.Trail.push_back({false, S, Old});
    W.SD[S] = New;
    onChange(false, S, true);
    return true;
  }

  bool setBool(BoolVarId B, uint8_t Mask) {
    uint8_t Old = W.BD[B];
    uint8_t New = Old & Mask;
    if (New == Old)
      return true;
    if (New == 0)
      return false;
    if (Recording)
      W.Trail.push_back({true, B, Old});
    W.BD[B] = New;
    onChange(true, B, true);
    return true;
  }

  /// Propagates one triple with pre-state \p S1, post-state \p S2, boolean
  /// \p B; \p From/\p To are the transition states (U→A for allocation,
  /// A→D for deallocation). Note the sequencing in the ¬b arm: the
  /// second setState reads the domain the first one just narrowed.
  bool propagateTriple(StateVarId S1, BoolVarId B, StateVarId S2,
                       uint8_t From, uint8_t To) {
    uint8_t BV = W.BD[B];
    if (BV == BTrue)
      return setState(S1, From) && setState(S2, To);
    if (BV == BFalse)
      return setState(S1, W.SD[S2]) && setState(S2, W.SD[S1]);
    // Boolean undetermined.
    uint8_t D1 = W.SD[S1], D2 = W.SD[S2];
    if (!(D1 & From) || !(D2 & To)) {
      if (!setBool(B, BFalse))
        return false;
      return setState(S1, W.SD[S2]) && setState(S2, W.SD[S1]);
    }
    if ((D1 & D2) == 0) {
      if (!setBool(B, BTrue))
        return false;
      return setState(S1, From) && setState(S2, To);
    }
    // Both options open: prune to the union of the two scenarios.
    return setState(S1, static_cast<uint8_t>(D2 | From)) &&
           setState(S2, static_cast<uint8_t>(W.SD[S1] | To));
  }

  bool propagateOne(const Constraint &C) {
    switch (C.K) {
    case Constraint::Kind::Eq:
      return setState(C.S1, W.SD[C.S2]) && setState(C.S2, W.SD[C.S1]);
    case Constraint::Kind::AllocTriple:
      return propagateTriple(C.S1, C.B, C.S2, StU, StA);
    case Constraint::Kind::DeallocTriple:
      return propagateTriple(C.S1, C.B, C.S2, StA, StD);
    }
    return true;
  }

  /// Drains the index-cursor worklist; the storage is reclaimed whenever
  /// the queue drains.
  bool propagate() {
    while (QueueHead != W.Queue.size()) {
      uint32_t CI = W.Queue[QueueHead++];
      W.InQueue[CI] = 0;
      ++Counts.Propagations;
      if (!propagateOne(Cons[CI])) {
        // Drain the queue; state is rolled back by the caller.
        for (size_t I = QueueHead; I != W.Queue.size(); ++I)
          W.InQueue[W.Queue[I]] = 0;
        W.Queue.clear();
        QueueHead = 0;
        return false;
      }
    }
    W.Queue.clear();
    QueueHead = 0;
    return true;
  }

  void rollbackTo(size_t TrailSize) {
    while (W.Trail.size() > TrailSize) {
      const Workspace::TrailEntry E = W.Trail.back();
      W.Trail.pop_back();
      if (E.IsBool)
        W.BD[E.Id] = E.Old;
      else
        W.SD[E.Id] = E.Old;
      // Reverting re-creates whatever candidacy existed before.
      onChange(E.IsBool, E.Id, false);
    }
  }

  bool isAllocCandidate(const Constraint &C) const {
    return C.K == Constraint::Kind::AllocTriple && W.BD[C.B] == BAny &&
           W.SD[C.S2] == StA && (W.SD[C.S1] & StU) && W.SD[C.S1] != StU;
  }
  bool isDeallocCandidate(const Constraint &C) const {
    return C.K == Constraint::Kind::DeallocTriple && W.BD[C.B] == BAny &&
           W.SD[C.S1] == StA && (W.SD[C.S2] & StD) && W.SD[C.S2] != StD;
  }

  /// Finds the next choice per the paper's preference: a border allocation
  /// triple, else a border deallocation triple (both tracked
  /// incrementally), else any open boolean (defaulted to false = no
  /// operation).
  bool findChoice(BoolVarId &B, uint8_t &Value) {
    // Seed the candidate stacks once with every triple, in order.
    if (!Seeded) {
      Seeded = true;
      for (uint32_t CI = 0; CI != NumCons; ++CI) {
        if (Cons[CI].K == Constraint::Kind::AllocTriple) {
          W.InAllocCand[CI] = 1;
          W.AllocCand.push_back(CI);
        } else if (Cons[CI].K == Constraint::Kind::DeallocTriple) {
          W.InDeallocCand[CI] = 1;
          W.DeallocCand.push_back(CI);
        }
      }
    }
    while (!W.AllocCand.empty()) {
      uint32_t CI = W.AllocCand.back();
      W.AllocCand.pop_back();
      W.InAllocCand[CI] = 0;
      if (isAllocCandidate(Cons[CI])) {
        // The candidate is popped, not peeked: if the decision is later
        // rolled back, onChange re-adds it for the variables on the
        // trail.
        B = Cons[CI].B;
        Value = BTrue;
        return true;
      }
    }
    while (!W.DeallocCand.empty()) {
      uint32_t CI = W.DeallocCand.back();
      W.DeallocCand.pop_back();
      W.InDeallocCand[CI] = 0;
      if (isDeallocCandidate(Cons[CI])) {
        B = Cons[CI].B;
        Value = BTrue;
        return true;
      }
    }
    while (BoolPointer < W.BD.size() && W.BD[BoolPointer] != BAny)
      ++BoolPointer;
    if (BoolPointer < W.BD.size()) {
      B = static_cast<BoolVarId>(BoolPointer);
      Value = BFalse;
      return true;
    }
    return false;
  }

  Workspace &W;
  const Constraint *Cons;
  size_t NumCons;
  SolveResult &Counts;
  size_t QueueHead = 0;
  size_t BoolPointer = 0;
  bool Seeded = false;
  /// Off during the raw oracle's initial propagation, which then pushes
  /// neither trail entries nor border candidates (docs/SOLVER.md): no
  /// decision can roll back below it, and the seeding in findChoice
  /// stacks every triple above anything it would have pushed.
  bool Recording = false;
};

bool Core::run(bool AtFixpoint) {
  // An empty initial domain is a conflict even when the variable occurs
  // in no constraint — propagation would never visit it, and a
  // completion extracted from such a "solution" would be unsound.
  if (std::find(W.SD.begin(), W.SD.end(), 0) != W.SD.end() ||
      std::find(W.BD.begin(), W.BD.end(), 0) != W.BD.end())
    return false;

  buildOccurrences();
  W.InAllocCand.assign(NumCons, 0);
  W.InDeallocCand.assign(NumCons, 0);
  W.AllocCand.clear();
  W.DeallocCand.clear();
  W.Trail.clear();
  W.Decisions.clear();

  if (AtFixpoint) {
    W.InQueue.assign(NumCons, 0);
    W.Queue.clear();
  } else {
    // Initial propagation: seed with every constraint.
    W.InQueue.assign(NumCons, 1);
    W.Queue.resize(NumCons);
    std::iota(W.Queue.begin(), W.Queue.end(), 0u);
    if (!propagate())
      return false;
  }
  Recording = true;

  for (;;) {
    BoolVarId B = 0;
    uint8_t Value = 0;
    if (!findChoice(B, Value))
      return true;
    ++Counts.Choices;
    W.Decisions.push_back({B, W.Trail.size(), Value, false});
    setBool(B, Value);
    while (!propagate()) {
      // Conflict: flip the most recent unflipped decision.
      for (;;) {
        if (W.Decisions.empty())
          return false;
        Workspace::Decision &D = W.Decisions.back();
        rollbackTo(D.TrailSize);
        if (!D.Flipped) {
          ++Counts.Backtracks;
          D.Flipped = true;
          setBool(D.B, D.FirstTry == BTrue ? BFalse : BTrue);
          break;
        }
        W.Decisions.pop_back();
      }
    }
  }
}

/// The raw §4.3 oracle: the unsimplified system, solved as one on the
/// same core.
SolveResult solveRaw(const ConstraintSystem &Sys) {
  SolveResult R;
  Workspace W;
  W.SD = Sys.StateDom;
  W.BD = Sys.BoolDom;
  if (Core(W, Sys.Cons.data(), Sys.Cons.size(), R).run(/*AtFixpoint=*/false)) {
    R.Sat = true;
    R.StateDom = std::move(W.SD);
    R.BoolDom = std::move(W.BD);
  }
  return R;
}

/// Numbers every sharded variable by its rank within its group of
/// \p GroupStart (member shards in order, members ascending) — the
/// group-local ids simplifyGroup reads. Returns the number of sharded
/// state variables.
size_t assignLocalIds(const ConstraintSystem &Sys,
                      const std::vector<uint32_t> &GroupStart, Workspace &W) {
  W.LocalState.assign(Sys.numStateVars(), ~0u);
  W.LocalBool.assign(Sys.numBoolVars(), ~0u);
  size_t Sharded = 0;
  for (size_t G = 0; G + 1 < GroupStart.size(); ++G) {
    uint32_t LS = 0, LB = 0;
    for (uint32_t K = GroupStart[G]; K != GroupStart[G + 1]; ++K) {
      for (uint32_t S : Sys.shardStates(K))
        W.LocalState[S] = LS++;
      for (uint32_t B : Sys.shardBools(K))
        W.LocalBool[B] = LB++;
    }
    Sharded += LS;
  }
  return Sharded;
}

/// Simplifies and solves the shard group [\p KBegin, \p KEnd) on \p W,
/// adding its statistics and work counters to \p R. On success the
/// group's solution is loaded in W: `SD` over representatives (via
/// `StateRep`), `BD` over group-local booleans.
bool solveGroup(const ConstraintSystem &Sys, uint32_t KBegin, uint32_t KEnd,
                Workspace &W, SolveResult &R) {
  Stopwatch Watch;
  SimplifyStats Stats;
  bool Ok = simplifyGroup(Sys, KBegin, KEnd, W, Stats);
  Stats.SimplifySeconds = Watch.seconds();
  R.Simplify.accumulate(Stats);
  return Ok &&
         Core(W, W.Cons.data(), W.Cons.size(), R).run(/*AtFixpoint=*/true);
}

/// Shared epilogue of the sharded paths: whole-system statistics, and
/// the final boolean sweep — booleans in no shard (never in a triple)
/// default to false, exactly as the raw solver's choices leave them.
void finishSharded(const ConstraintSystem &Sys, size_t ShardedStates,
                   bool Sat, SolveResult &R) {
  // The per-group sums cover only sharded variables; unconstrained ones
  // are one singleton class each.
  size_t Unsharded = Sys.numStateVars() - ShardedStates;
  R.Simplify.StateVarsBefore += Unsharded;
  R.Simplify.StateVarsAfter += Unsharded;
  R.Simplify.Components = Sys.numShards();
  R.Sat = Sat;
  if (!Sat) {
    R.StateDom.clear();
    R.BoolDom.clear();
    return;
  }
  for (uint8_t &D : R.BoolDom)
    if (D == BAny)
      D = BFalse;
}

/// An empty *initial* domain is a conflict even for a variable in no
/// constraint — it never reaches a shard, so the sharded paths check
/// the whole system up front.
bool hasEmptyDomain(const ConstraintSystem &Sys) {
  auto Empty = [](const std::vector<uint8_t> &D) {
    return std::find(D.begin(), D.end(), 0) != D.end();
  };
  return Empty(Sys.StateDom) || Empty(Sys.BoolDom);
}

/// The production path. The input's emission-time union-find already
/// partitioned variables and constraints into connected components, so
/// contiguous shards are grouped and each group is simplified and
/// solved on one workspace, then scattered into the result.
SolveResult solveShards(const ConstraintSystem &Sys) {
  SolveResult R;
  if (hasEmptyDomain(Sys))
    return R;

  // Group contiguous shards into work units of roughly GroupTarget
  // constraints: the per-unit fixed costs (clearing scratch, seeding
  // propagation) dwarf the work of a ten-constraint shard, and typical
  // programs produce hundreds of tiny shards. Because shards share no
  // variables, simplifying and solving a group is exactly the
  // concatenation of its members' individual runs — grouping changes
  // nothing observable but the amortization.
  constexpr size_t GroupTarget = 8192;
  const uint32_t NumShards = static_cast<uint32_t>(Sys.numShards());
  std::vector<uint32_t> GroupStart{0};
  size_t Acc = 0;
  for (uint32_t K = 0; K != NumShards; ++K) {
    size_t N = Sys.shardConstraints(K).size();
    if (Acc != 0 && Acc + N > GroupTarget) {
      GroupStart.push_back(K);
      Acc = 0;
    }
    Acc += N;
  }
  if (NumShards != 0)
    GroupStart.push_back(NumShards);

  Workspace W;
  const size_t Sharded = assignLocalIds(Sys, GroupStart, W);

  // Unsharded variables keep their initial domains (they are their own
  // representatives); every sharded slot is overwritten below.
  R.StateDom = Sys.StateDom;
  R.BoolDom = Sys.BoolDom;
  bool Sat = true;
  for (size_t G = 0; G + 1 < GroupStart.size(); ++G) {
    Sat = solveGroup(Sys, GroupStart[G], GroupStart[G + 1], W, R);
    if (!Sat)
      break;
    uint32_t LS = 0, LB = 0;
    for (uint32_t K = GroupStart[G]; K != GroupStart[G + 1]; ++K) {
      for (uint32_t S : Sys.shardStates(K))
        R.StateDom[S] = W.SD[W.StateRep[LS++]];
      for (uint32_t B : Sys.shardBools(K))
        R.BoolDom[B] = W.BD[LB++];
    }
  }
  finishSharded(Sys, Sharded, Sat, R);
  return R;
}

/// Writes shard \p K's cache key into \p Key: every constraint's kind
/// and shard-local variable ids (in CSR order), then the initial
/// domains of the member variables. Ids are word-copied in host byte
/// order — keys never leave the process.
void buildShardKey(const ConstraintSystem &Sys, uint32_t K,
                   const Workspace &W, std::string &Key) {
  const auto Cons = Sys.shardConstraints(K);
  const auto States = Sys.shardStates(K);
  const auto Bools = Sys.shardBools(K);
  constexpr size_t MaxPerConstraint = 1 + 3 * sizeof(uint32_t);
  Key.resize(MaxPerConstraint * Cons.size() + States.size() + Bools.size());
  char *P = &Key[0];
  for (uint32_t CI : Cons) {
    const Constraint &C = Sys.Cons[CI];
    const bool IsEq = C.K == Constraint::Kind::Eq;
    const uint32_t Ids[3] = {W.LocalState[C.S1], W.LocalState[C.S2],
                             IsEq ? 0u : W.LocalBool[C.B]};
    *P++ = static_cast<char>(C.K);
    const size_t N = (IsEq ? 2 : 3) * sizeof(uint32_t);
    std::memcpy(P, Ids, N);
    P += N;
  }
  for (uint32_t S : States)
    *P++ = static_cast<char>(Sys.StateDom[S]);
  for (uint32_t B : Bools)
    *P++ = static_cast<char>(Sys.BoolDom[B]);
  Key.resize(static_cast<size_t>(P - Key.data()));
}

} // namespace

SolveResult solver::solve(const ConstraintSystem &Sys,
                          const SolveOptions &Options) {
  Stopwatch Watch;
  SolveResult R = Options.Simplify ? solveShards(Sys) : solveRaw(Sys);
  R.Seconds = Watch.seconds();
  return R;
}

std::string solver::checkSolution(const ConstraintSystem &Sys,
                                  const SolveResult &R) {
  if (!R.Sat)
    return "the result is not satisfiable";
  if (R.StateDom.size() != Sys.numStateVars() ||
      R.BoolDom.size() != Sys.numBoolVars())
    return "the result's domain counts differ from the system's";
  for (BoolVarId B = 0; B != R.BoolDom.size(); ++B) {
    const uint8_t D = R.BoolDom[B];
    if ((D != BFalse && D != BTrue) || (D & ~Sys.BoolDom[B]))
      return "boolean c" + std::to_string(B) +
             " is not a singleton inside its initial domain";
  }
  for (StateVarId S = 0; S != R.StateDom.size(); ++S) {
    const uint8_t D = R.StateDom[S];
    if (D == 0 || (D & ~Sys.StateDom[S]))
      return "state s" + std::to_string(S) +
             " is empty or outside its initial domain";
  }
  for (size_t CI = 0; CI != Sys.Cons.size(); ++CI) {
    const Constraint &C = Sys.Cons[CI];
    const uint8_t D1 = R.StateDom[C.S1], D2 = R.StateDom[C.S2];
    if (C.K == Constraint::Kind::Eq || R.BoolDom[C.B] == BFalse) {
      if (D1 != D2)
        return "constraint " + std::to_string(CI) +
               " equates states with different domains";
      continue;
    }
    const bool Alloc = C.K == Constraint::Kind::AllocTriple;
    if ((D1 & ~(Alloc ? StU : StA)) || (D2 & ~(Alloc ? StA : StD)))
      return "constraint " + std::to_string(CI) +
             " fires outside its transition states";
  }
  return "";
}

SolveResult solver::solveCached(const ConstraintSystem &Sys,
                                const SolveOptions &Options,
                                ShardSolutionCache &Cache) {
  if (!Options.Simplify)
    return solve(Sys, Options);

  Stopwatch Watch;
  SolveResult R;
  const uint64_t Call = ++Cache.Calls;

  if (hasEmptyDomain(Sys)) {
    Cache.Entries.clear(); // this call uses no entry
    R.Seconds = Watch.seconds();
    return R;
  }

  // Every shard is its own group, so local ids are shard-local: the
  // coordinates the content keys are written in.
  const uint32_t NumShards = static_cast<uint32_t>(Sys.numShards());
  std::vector<uint32_t> GroupStart(NumShards + 1);
  std::iota(GroupStart.begin(), GroupStart.end(), 0u);
  Workspace W;
  const size_t Sharded = assignLocalIds(Sys, GroupStart, W);

  // Unsharded variables keep their initial domains; sharded slots are
  // overwritten from cache entries or fresh solves below.
  R.StateDom = Sys.StateDom;
  R.BoolDom = Sys.BoolDom;

  bool Sat = true;
  std::string Key;
  for (uint32_t K = 0; K != NumShards; ++K) {
    // Identical keys mean identical subsystems up to the local->global
    // renaming, and the solved local domains depend on nothing else.
    buildShardKey(Sys, K, W, Key);
    const auto States = Sys.shardStates(K);
    const auto Bools = Sys.shardBools(K);
    auto It = Cache.Entries.find(Key);
    if (It != Cache.Entries.end()) {
      ++Cache.Hits;
    } else {
      ++Cache.Misses;
      ShardSolutionCache::Entry E;
      E.Sat = solveGroup(Sys, K, K + 1, W, R);
      if (E.Sat) {
        E.StateDom.resize(States.size());
        for (size_t L = 0; L != States.size(); ++L)
          E.StateDom[L] = W.SD[W.StateRep[L]];
        E.BoolDom.assign(W.BD.begin(), W.BD.end());
      }
      It = Cache.Entries.emplace(Key, std::move(E)).first;
    }
    ShardSolutionCache::Entry &E = It->second;
    E.LastUse = Call;
    if (!E.Sat) {
      Sat = false;
      break;
    }
    for (size_t L = 0; L != States.size(); ++L)
      R.StateDom[States.begin()[L]] = E.StateDom[L];
    for (size_t L = 0; L != Bools.size(); ++L)
      R.BoolDom[Bools.begin()[L]] = E.BoolDom[L];
  }

  // One generation: drop what this call did not use.
  std::erase_if(Cache.Entries,
                [Call](const auto &KV) { return KV.second.LastUse != Call; });
  finishSharded(Sys, Sharded, Sat, R);
  R.Seconds = Watch.seconds();
  return R;
}

size_t ShardSolutionCache::bytes() const {
  size_t N = 0;
  for (const auto &[Key, E] : Entries)
    N += Key.size() + E.StateDom.size() + E.BoolDom.size();
  return N;
}
