// Unit tests for region types, effects, and the union-find machinery.

#include "regions/RegionTypes.h"
#include "types/Type.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::regions;

namespace {

TEST(RegionVars, UnifyKeepsSmallestRepresentative) {
  RTypeTable T;
  RegionVarId A = T.freshRegion();
  RegionVarId B = T.freshRegion();
  RegionVarId C = T.freshRegion();
  T.unifyRegions(B, C);
  EXPECT_EQ(T.findRegion(C), B);
  T.unifyRegions(C, A);
  EXPECT_EQ(T.findRegion(A), A);
  EXPECT_EQ(T.findRegion(B), A);
  EXPECT_EQ(T.findRegion(C), A);
}

TEST(EffectVars, UnifyMergesLatentSets) {
  RTypeTable T;
  EffectVarId E1 = T.freshEffectVar();
  EffectVarId E2 = T.freshEffectVar();
  RegionVarId R1 = T.freshRegion();
  RegionVarId R2 = T.freshRegion();
  EffectSet S1, S2;
  S1.Regions.insert(R1);
  S2.Regions.insert(R2);
  T.addToEffectVar(E1, S1);
  T.addToEffectVar(E2, S2);
  T.unifyEffectVars(E1, E2);
  EXPECT_EQ(T.findEffectVar(E1), T.findEffectVar(E2));
  const EffectSet &L = T.latentOf(E1);
  EXPECT_TRUE(L.Regions.count(R1));
  EXPECT_TRUE(L.Regions.count(R2));
}

TEST(EffectSets, TransitiveRegionResolution) {
  RTypeTable T;
  EffectVarId E1 = T.freshEffectVar();
  EffectVarId E2 = T.freshEffectVar();
  RegionVarId R = T.freshRegion();
  EffectSet Inner;
  Inner.Regions.insert(R);
  T.addToEffectVar(E2, Inner);
  EffectSet Outer;
  Outer.EffectVars.insert(E2);
  T.addToEffectVar(E1, Outer);

  EffectSet Probe;
  Probe.EffectVars.insert(E1);
  RegionSet Rs = T.regionsOf(Probe);
  EXPECT_EQ(Rs.size(), 1u);
  EXPECT_TRUE(Rs.count(R));
}

TEST(EffectSets, CyclicEffectVarsTerminate) {
  RTypeTable T;
  EffectVarId E1 = T.freshEffectVar();
  EffectVarId E2 = T.freshEffectVar();
  RegionVarId R = T.freshRegion();
  EffectSet S1, S2;
  S1.EffectVars.insert(E2);
  S2.EffectVars.insert(E1);
  S2.Regions.insert(R);
  T.addToEffectVar(E1, S1);
  T.addToEffectVar(E2, S2);
  EffectSet Probe;
  Probe.EffectVars.insert(E1);
  RegionSet Rs = T.regionsOf(Probe);
  EXPECT_TRUE(Rs.count(R));
}

TEST(RegionTypes, FreshFromTypeDecoratesEverything) {
  types::TypeTable ML;
  types::TypeId Arrow =
      ML.arrow(ML.intType(), ML.pair(ML.boolType(), ML.list(ML.intType())));
  RTypeTable T;
  RTypeId Mu = T.freshFromType(ML, Arrow);
  EXPECT_EQ(T.kind(Mu), RTypeKind::Arrow);
  RegionSet Frv;
  T.freeRegionVars(Mu, Frv);
  // arrow box, int param, pair box, bool, list spine, list elem = 6.
  EXPECT_EQ(Frv.size(), 6u);
}

TEST(RegionTypes, UnifyMergesRegionsAndEffects) {
  types::TypeTable ML;
  types::TypeId ArrowTy = ML.arrow(ML.intType(), ML.intType());
  RTypeTable T;
  RTypeId A = T.freshFromType(ML, ArrowTy);
  RTypeId B = T.freshFromType(ML, ArrowTy);
  EffectSet S;
  S.Regions.insert(T.regionOf(T.child0(A)));
  T.addToEffectVar(T.arrowEffect(A), S);

  T.unify(A, B);
  EXPECT_EQ(T.regionOf(A), T.regionOf(B));
  EXPECT_EQ(T.arrowEffect(A), T.arrowEffect(B));
  EXPECT_EQ(T.regionOf(T.child0(A)), T.regionOf(T.child0(B)));
  // B's arrow effect now sees A's latent region.
  EffectSet Probe;
  Probe.EffectVars.insert(T.arrowEffect(B));
  EXPECT_TRUE(T.regionsOf(Probe).count(T.regionOf(T.child0(A))));
}

TEST(RegionTypes, InstantiateSubstitutesQuantifiedOnly) {
  types::TypeTable ML;
  types::TypeId ArrowTy = ML.arrow(ML.intType(), ML.intType());
  RTypeTable T;
  RTypeId Scheme = T.freshFromType(ML, ArrowTy);
  RegionVarId ParamR = T.regionOf(T.child0(Scheme));
  RegionVarId ResultR = T.regionOf(T.child1(Scheme));

  RSubst Subst;
  RegionVarId FreshParam = T.freshRegion();
  Subst.Regions.push_back({ParamR, FreshParam});
  // Result region left unquantified: shared between scheme and instance.
  RTypeId Inst = T.instantiate(Scheme, Subst);
  EXPECT_EQ(T.regionOf(T.child0(Inst)), FreshParam);
  EXPECT_EQ(T.regionOf(T.child1(Inst)), ResultR);
  // The original scheme is untouched.
  EXPECT_EQ(T.regionOf(T.child0(Scheme)), ParamR);
}

TEST(RegionTypes, InstantiateMapsLatentEffects) {
  types::TypeTable ML;
  types::TypeId ArrowTy = ML.arrow(ML.intType(), ML.intType());
  RTypeTable T;
  RTypeId Scheme = T.freshFromType(ML, ArrowTy);
  RegionVarId ParamR = T.regionOf(T.child0(Scheme));
  EffectSet Latent;
  Latent.Regions.insert(ParamR);
  T.addToEffectVar(T.arrowEffect(Scheme), Latent);

  RSubst Subst;
  RegionVarId FreshParam = T.freshRegion();
  EffectVarId FreshEps = T.freshEffectVar();
  Subst.Regions.push_back({ParamR, FreshParam});
  Subst.Effects.push_back({T.arrowEffect(Scheme), FreshEps});
  RTypeId Inst = T.instantiate(Scheme, Subst);

  EffectSet Probe;
  Probe.EffectVars.insert(T.arrowEffect(Inst));
  RegionSet Rs = T.regionsOf(Probe);
  EXPECT_TRUE(Rs.count(FreshParam));
  EXPECT_FALSE(Rs.count(ParamR));
}

TEST(RegionTypes, StrRendersShape) {
  types::TypeTable ML;
  RTypeTable T;
  RTypeId Mu = T.freshFromType(ML, ML.list(ML.intType()));
  std::string S = T.str(Mu);
  EXPECT_NE(S.find("list"), std::string::npos);
  EXPECT_NE(S.find("@r"), std::string::npos);
}

} // namespace
