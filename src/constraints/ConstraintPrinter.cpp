#include "constraints/ConstraintPrinter.h"

using namespace afl;
using namespace afl::constraints;

SystemStats constraints::systemStats(const GenResult &Gen) {
  SystemStats S;
  S.StateVars = Gen.Sys.numStateVars();
  S.BoolVars = Gen.Sys.numBoolVars();
  for (const Constraint &C : Gen.Sys.Cons) {
    switch (C.K) {
    case Constraint::Kind::Eq:
      ++S.Equalities;
      break;
    case Constraint::Kind::AllocTriple:
      ++S.AllocTriples;
      break;
    case Constraint::Kind::DeallocTriple:
      ++S.DeallocTriples;
      break;
    }
  }
  for (uint8_t D : Gen.Sys.StateDom)
    if (D != StAny)
      ++S.RestrictedStates;
  for (const ChoicePoint &CP : Gen.Choices) {
    switch (CP.Kind) {
    case regions::COpKind::AllocBefore:
    case regions::COpKind::AllocAfter:
      ++S.AllocBeforeChoices;
      break;
    case regions::COpKind::FreeBefore:
    case regions::COpKind::FreeAfter:
      ++S.FreeAfterChoices;
      break;
    case regions::COpKind::FreeApp:
      ++S.FreeAppChoices;
      break;
    }
  }
  return S;
}

std::string constraints::summarize(const GenResult &Gen) {
  SystemStats S = systemStats(Gen);
  std::string Out;
  Out += std::to_string(S.StateVars) + " state vars, ";
  Out += std::to_string(S.BoolVars) + " booleans, ";
  Out += std::to_string(S.Equalities) + " equalities, ";
  Out += std::to_string(S.AllocTriples) + " alloc triples, ";
  Out += std::to_string(S.DeallocTriples) + " dealloc triples, ";
  Out += std::to_string(S.RestrictedStates) + " pinned states; choices: ";
  Out += std::to_string(S.AllocBeforeChoices) + " alloc_before, ";
  Out += std::to_string(S.FreeAfterChoices) + " free_after, ";
  Out += std::to_string(S.FreeAppChoices) + " free_app";
  return Out;
}

static std::string domainName(uint8_t D) {
  std::string S = "{";
  if (D & StU)
    S += 'U';
  if (D & StA)
    S += 'A';
  if (D & StD)
    S += 'D';
  return S + "}";
}

std::string constraints::dumpSystem(const GenResult &Gen) {
  std::string Out = summarize(Gen) + "\n";
  for (size_t I = 0; I != Gen.Sys.StateDom.size(); ++I) {
    if (Gen.Sys.StateDom[I] != StAny)
      Out += "  s" + std::to_string(I) + " in " +
             domainName(Gen.Sys.StateDom[I]) + "\n";
  }
  for (const Constraint &C : Gen.Sys.Cons) {
    switch (C.K) {
    case Constraint::Kind::Eq:
      Out += "  s" + std::to_string(C.S1) + " = s" + std::to_string(C.S2) +
             "\n";
      break;
    case Constraint::Kind::AllocTriple:
      Out += "  (s" + std::to_string(C.S1) + ", c" + std::to_string(C.B) +
             ", s" + std::to_string(C.S2) + ")a\n";
      break;
    case Constraint::Kind::DeallocTriple:
      Out += "  (s" + std::to_string(C.S1) + ", c" + std::to_string(C.B) +
             ", s" + std::to_string(C.S2) + ")d\n";
      break;
    }
  }
  for (const ChoicePoint &CP : Gen.Choices) {
    Out += "  c" + std::to_string(CP.B) + " := " +
           regions::spelling(CP.Kind) + " r" + std::to_string(CP.Region) +
           " @node" + std::to_string(CP.Node) + "\n";
  }
  return Out;
}
