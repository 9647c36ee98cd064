#include "driver/Pipeline.h"

#include "completion/Conservative.h"
#include "parser/Parser.h"
#include "regions/RegionInference.h"
#include "regions/RegionPrinter.h"
#include "support/ArenaPool.h"

#include <cstdio>

using namespace afl;
using namespace afl::driver;

std::string PipelineResult::printConservative() const {
  if (!Prog)
    return "";
  return regions::printRegionProgram(*Prog, &ConservativeC);
}

std::string PipelineResult::printAfl() const {
  if (!Prog)
    return "";
  return regions::printRegionProgram(*Prog, &AflC);
}

void driver::recordPipelineMetrics(MetricsRegistry &Reg,
                                   const PipelineStats &Stats,
                                   const completion::AflStats &Analysis,
                                   const interp::Stats *ConsRun,
                                   const interp::Stats *AflRun, bool Ok) {
  Reg.set("ok", Ok ? 1 : 0);
  {
    MetricScope Sizes(Reg, "sizes");
    Reg.set("ast_nodes", Stats.AstNodes);
    Reg.set("region_nodes", Stats.RegionNodes);
    Reg.set("region_vars", Stats.RegionVars);
    Reg.set("closure_contexts", Analysis.NumContexts);
    Reg.set("closures", Analysis.Closure.NumClosures);
    Reg.set("closure_envs", Analysis.Closure.NumEnvs);
    Reg.set("closure_interned_sets", Analysis.Closure.InternedSets);
    Reg.set("state_vars", Analysis.NumStateVars);
    Reg.set("bool_vars", Analysis.NumBoolVars);
    Reg.set("constraints", Analysis.NumConstraints);
  }
  {
    MetricScope Stages(Reg, "stages");
    auto Stage = [&Reg](const char *Name, double Seconds) {
      MetricScope S(Reg, Name);
      Reg.addTime("wall_seconds", Seconds);
    };
    Stage("parse", Stats.ParseSeconds);
    Stage("type_inference", Stats.TypeInferSeconds);
    Stage("region_inference", Stats.RegionInferSeconds);
    Stage("conservative_completion", Stats.ConservativeSeconds);
    {
      MetricScope S(Reg, "closure_analysis");
      Reg.addTime("wall_seconds", Analysis.ClosureSeconds);
      Reg.add("passes", Analysis.Closure.Passes);
      Reg.add("processed_contexts", Analysis.Closure.ProcessedContexts);
      Reg.add("enqueued", Analysis.Closure.Enqueued);
      Reg.set("worklist", Analysis.Closure.UsedWorklist ? 1 : 0);
      Reg.set("converged", Analysis.Closure.Converged ? 1 : 0);
      if (Analysis.Closure.WideningBound > 0) {
        MetricScope Wide(Reg, "widening");
        Reg.setMax("bound", Analysis.Closure.WideningBound);
        Reg.set("widened_closures", Analysis.Closure.WidenedClosures);
        Reg.set("widened_vars", Analysis.Closure.WidenedVars);
        Reg.set("widened_pinned_calls", Analysis.NumWidenedPinned);
      }
    }
    {
      MetricScope S(Reg, "constraint_gen");
      Reg.addTime("wall_seconds", Analysis.ConstraintGenSeconds);
      // Escape-pool pinned calls, a precision loss (DESIGN.md).
      Reg.set("pinned_calls", Analysis.NumPinnedCalls);
      const constraints::ShardingStats &Shard = Analysis.Sharding;
      MetricScope Sharding(Reg, "sharding");
      Reg.set("shards", Shard.Shards);
      Reg.setMax("largest_shard_constraints", Shard.LargestShardConstraints);
      Reg.set("interned_shapes", Shard.InternedShapes);
      Reg.addTime("finalize_seconds", Shard.FinalizeSeconds);
    }
    {
      MetricScope S(Reg, "solve");
      Reg.addTime("wall_seconds", Analysis.SolveSeconds);
      Reg.add("propagations", Analysis.SolverPropagations);
      Reg.add("choices", Analysis.SolverChoices);
      Reg.add("backtracks", Analysis.SolverBacktracks);
      {
        const solver::SimplifyStats &Simp = Analysis.SolverSimplify;
        MetricScope Pre(Reg, "simplify");
        Reg.set("state_vars_before", Simp.StateVarsBefore);
        Reg.set("state_vars_after", Simp.StateVarsAfter);
        Reg.set("constraints_before", Simp.ConstraintsBefore);
        Reg.set("constraints_after", Simp.ConstraintsAfter);
        Reg.set("eq_removed", Simp.EqRemoved);
        Reg.set("forced_triples_removed", Simp.ForcedTriplesRemoved);
        Reg.set("bools_forced", Simp.BoolsForced);
        Reg.set("components", Simp.Components);
        Reg.setMax("largest_component", Simp.LargestComponent);
        Reg.addTime("simplify_seconds", Simp.SimplifySeconds);
      }
    }
    Stage("extract", Analysis.ExtractSeconds);
    Stage("run_conservative", Stats.RunConservativeSeconds);
    Stage("run_afl", Stats.RunAflSeconds);
    Stage("run_reference", Stats.RunReferenceSeconds);
    {
      // VM-backend split of the completed runs (zero under the tree
      // walker); a sub-split of run_conservative + run_afl above.
      MetricScope S(Reg, "runs");
      MetricScope Vm(Reg, "vm");
      Reg.addTime("compile_seconds", Stats.VmCompileSeconds);
      Reg.addTime("execute_seconds", Stats.VmExecuteSeconds);
    }
  }
  if (ConsRun || AflRun) {
    MetricScope Runs(Reg, "runs");
    auto Run = [&Reg](const char *Name, const interp::Stats *S) {
      if (!S)
        return;
      MetricScope Scope(Reg, Name);
      Reg.setMax("max_regions", S->MaxRegions);
      Reg.set("region_allocs", S->TotalRegionAllocs);
      Reg.set("value_allocs", S->TotalValueAllocs);
      Reg.setMax("max_values", S->MaxValues);
      Reg.set("final_values", S->FinalValues);
      Reg.set("steps", S->Steps);
      Reg.set("memory_ops", S->Time);
    };
    Run("conservative", ConsRun);
    Run("afl", AflRun);
  }
  Reg.addTime("total_seconds", Stats.TotalSeconds);
}

void PipelineResult::recordMetrics(MetricsRegistry &Reg) const {
  recordPipelineMetrics(Reg, Stats, Analysis,
                        Conservative.Ok ? &Conservative.S : nullptr,
                        Afl.Ok ? &Afl.S : nullptr, Ok);
}

std::string driver::formatTimings(const MetricsRegistry &Reg,
                                  std::string_view Scope) {
  std::string Prefix(Scope);
  if (!Prefix.empty())
    Prefix += '/';
  // Everything but the total lives under "stages".
  auto Count = [&](const std::string &Path) {
    return static_cast<unsigned long long>(
        Reg.counter(Prefix + "stages/" + Path));
  };
  auto Time = [&](const std::string &Path) {
    return Reg.timer(Prefix + "stages/" + Path);
  };

  std::string Out;
  char Buf[128];
  double TotalSeconds = Reg.timer(Prefix + "total_seconds");
  double Total = TotalSeconds > 0 ? TotalSeconds : 1;
  auto Row = [&](const char *Name, double Seconds) {
    std::snprintf(Buf, sizeof(Buf), "%-24s %10.3f ms %6.1f%%\n", Name,
                  Seconds * 1e3, Seconds / Total * 100);
    Out += Buf;
  };
  std::snprintf(Buf, sizeof(Buf), "%-24s %13s %7s\n", "stage", "time", "");
  Out += Buf;
  static const char *const Stages[][2] = {
      {"parse", "parse"},
      {"type inference", "type_inference"},
      {"region inference", "region_inference"},
      {"conservative completion", "conservative_completion"},
      {"closure analysis", "closure_analysis"},
      {"constraint generation", "constraint_gen"},
      {"solve", "solve"},
      {"extract", "extract"},
      {"run (conservative)", "run_conservative"},
      {"run (A-F-L)", "run_afl"},
      {"run (reference)", "run_reference"},
  };
  for (const auto &S : Stages)
    Row(S[0], Time(std::string(S[1]) + "/wall_seconds"));
  Row("total", TotalSeconds);
  double VmCompile = Time("runs/vm/compile_seconds");
  double VmExecute = Time("runs/vm/execute_seconds");
  if (VmCompile + VmExecute > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "vm: compile %.3f ms, execute %.3f ms "
                  "(split of the two completed runs)\n",
                  VmCompile * 1e3, VmExecute * 1e3);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "solver: %llu propagations, %llu choices, %llu backtracks\n",
                Count("solve/propagations"), Count("solve/choices"),
                Count("solve/backtracks"));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "closure: %s, %llu pass(es), %llu contexts processed, "
                "%llu enqueued\n",
                Count("closure_analysis/worklist") ? "worklist" : "restart",
                Count("closure_analysis/passes"),
                Count("closure_analysis/processed_contexts"),
                Count("closure_analysis/enqueued"));
  Out += Buf;
  if (Count("closure_analysis/widening/bound")) {
    std::snprintf(Buf, sizeof(Buf),
                  "closure-widen: bound %llu, %llu widened closure(s), "
                  "%llu recolored var(s), %llu pinned call(s)\n",
                  Count("closure_analysis/widening/bound"),
                  Count("closure_analysis/widening/widened_closures"),
                  Count("closure_analysis/widening/widened_vars"),
                  Count("closure_analysis/widening/widened_pinned_calls"));
    Out += Buf;
  }
  if (Count("constraint_gen/sharding/shards")) {
    std::snprintf(Buf, sizeof(Buf),
                  "congen-shard: %llu shard(s) (largest %llu constraints), "
                  "%llu interned shape(s), finalize %.3f ms\n",
                  Count("constraint_gen/sharding/shards"),
                  Count("constraint_gen/sharding/largest_shard_constraints"),
                  Count("constraint_gen/sharding/interned_shapes"),
                  Time("constraint_gen/sharding/finalize_seconds") * 1e3);
    Out += Buf;
  }
  if (Count("solve/simplify/constraints_before")) {
    std::snprintf(Buf, sizeof(Buf),
                  "simplify: %llu vars -> %llu, %llu constraints -> %llu, "
                  "%llu component(s) (largest %llu), %.3f ms\n",
                  Count("solve/simplify/state_vars_before"),
                  Count("solve/simplify/state_vars_after"),
                  Count("solve/simplify/constraints_before"),
                  Count("solve/simplify/constraints_after"),
                  Count("solve/simplify/components"),
                  Count("solve/simplify/largest_component"),
                  Time("solve/simplify/simplify_seconds") * 1e3);
    Out += Buf;
  }
  ArenaPool::Stats Pool = ArenaPool::global().stats();
  std::snprintf(Buf, sizeof(Buf),
                "memory: arena pool %zu/%zu checkout(s) reused, "
                "%zu arena(s) pooled (%zu KiB retained)\n",
                Pool.Hits, Pool.Checkouts, Pool.Pooled,
                Pool.RetainedBytes / 1024);
  Out += Buf;
  return Out;
}

std::string PipelineResult::formatTimings() const {
  MetricsRegistry Reg;
  recordMetrics(Reg);
  return driver::formatTimings(Reg, "");
}

void driver::recordMemoryMetrics(MetricsRegistry &Reg) {
  ArenaPool::Stats S = ArenaPool::global().stats();
  MetricScope Mem(Reg, "memory");
  MetricScope Pool(Reg, "arena_pool");
  Reg.set("checkouts", S.Checkouts);
  Reg.set("hits", S.Hits);
  Reg.set("misses", S.Misses);
  Reg.set("returns", S.Returns);
  Reg.set("discarded", S.Discarded);
  Reg.set("pooled", S.Pooled);
  Reg.set("retained_bytes", S.RetainedBytes);
  Reg.set("max_pooled", ArenaPool::global().maxPooled());
}

FrontEnd driver::runFrontEnd(std::string_view Source, DiagnosticEngine &Diags,
                             PipelineStats &Stats) {
  FrontEnd F;
  F.Ctx = std::make_unique<ast::ASTContext>();
  Stopwatch Watch;

  F.Ast = parseExpr(Source, *F.Ctx, Diags);
  Stats.ParseSeconds = Watch.seconds();
  if (!F.Ast)
    return F;

  Watch.reset();
  types::TypedProgram Typed = types::inferTypes(F.Ast, *F.Ctx, Diags);
  Stats.TypeInferSeconds = Watch.seconds();
  if (!Typed.Success)
    return F;

  Watch.reset();
  F.Prog = regions::inferRegions(F.Ast, *F.Ctx, Typed, Diags);
  Stats.RegionInferSeconds = Watch.seconds();
  return F;
}

bool driver::checkRunsAgree(const interp::RunResult &Conservative,
                            const interp::RunResult &Afl,
                            const interp::RefResult &Reference,
                            DiagnosticEngine &Diags) {
  if (Conservative.ResultText == Reference.ResultText &&
      Afl.ResultText == Reference.ResultText)
    return true;
  Diags.error(SourceLoc(), "result mismatch: conservative run gave " +
                               Conservative.ResultText + ", A-F-L run gave " +
                               Afl.ResultText + ", reference run gave " +
                               Reference.ResultText);
  return false;
}

PipelineResult driver::runPipeline(std::string_view Source,
                                   const PipelineOptions &Options) {
  PipelineResult R;
  Stopwatch Total;

  FrontEnd F = runFrontEnd(Source, R.Diags, R.Stats);
  R.Ctx = std::move(F.Ctx);
  R.Ast = F.Ast;
  R.Prog = std::move(F.Prog);
  R.Stats.AstNodes = R.Ctx->numNodes();
  if (!R.Prog) {
    R.Stats.TotalSeconds = Total.seconds();
    return R;
  }
  R.Stats.RegionNodes = R.Prog->numNodes();
  R.Stats.RegionVars = R.Prog->Types.numRegionVars();
  Stopwatch Watch;

  Watch.reset();
  R.ConservativeC = completion::conservativeCompletion(*R.Prog);
  R.Stats.ConservativeSeconds = Watch.seconds();

  R.AflC = completion::aflCompletion(*R.Prog, &R.Analysis, Options.GenOptions,
                                     Options.SolveOptions,
                                     Options.ClosureOptions);

  if (!Options.SkipRuns) {
    interp::RunOptions RO;
    RO.RecordTrace = Options.RecordTrace;
    RO.MaxSteps = Options.MaxSteps;
    RO.Backend = Options.Backend;
    Watch.reset();
    R.Conservative = interp::run(*R.Prog, R.ConservativeC, RO);
    R.Stats.RunConservativeSeconds = Watch.seconds();
    R.Stats.VmCompileSeconds += R.Conservative.VmCompileSeconds;
    R.Stats.VmExecuteSeconds += R.Conservative.VmExecuteSeconds;
    if (!R.Conservative.Ok) {
      R.Diags.error(SourceLoc(),
                    "conservative run failed: " + R.Conservative.Error);
      R.Stats.TotalSeconds = Total.seconds();
      return R;
    }
    Watch.reset();
    R.Afl = interp::run(*R.Prog, R.AflC, RO);
    R.Stats.RunAflSeconds = Watch.seconds();
    R.Stats.VmCompileSeconds += R.Afl.VmCompileSeconds;
    R.Stats.VmExecuteSeconds += R.Afl.VmExecuteSeconds;
    if (!R.Afl.Ok) {
      R.Diags.error(SourceLoc(), "A-F-L run failed: " + R.Afl.Error);
      R.Stats.TotalSeconds = Total.seconds();
      return R;
    }
    Watch.reset();
    R.Reference = interp::runRef(R.Ast, *R.Ctx, Options.MaxSteps);
    R.Stats.RunReferenceSeconds = Watch.seconds();
    if (!R.Reference.Ok) {
      R.Diags.error(SourceLoc(), "reference run failed: " + R.Reference.Error);
      R.Stats.TotalSeconds = Total.seconds();
      return R;
    }
    if (!checkRunsAgree(R.Conservative, R.Afl, R.Reference, R.Diags)) {
      R.Stats.TotalSeconds = Total.seconds();
      return R;
    }
  }

  R.Ok = true;
  R.Stats.TotalSeconds = Total.seconds();
  return R;
}
