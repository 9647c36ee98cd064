#include "vm/VM.h"

#include "ast/Expr.h"
#include "ast/IntOps.h"
#include "support/Arena.h"

#include <cassert>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace afl;
using namespace afl::vm;
using namespace afl::interp;

namespace {

/// Runtime address: (region index in the region table, cell offset).
struct Addr {
  uint32_t Region = 0;
  uint32_t Offset = 0;
};

/// A boxed runtime value — one cell of a region arena. 24 bytes, vs the
/// tree walker's ~64-byte Value; trivially copyable so arenas can grow
/// with memcpy (addresses are (region, offset) pairs, never pointers).
struct Cell {
  enum class Kind : uint8_t { Int, Bool, Unit, Clos, RegClos, Pair, Nil, Cons };
  Kind K = Kind::Unit;
  /// Clos/RegClos: index into VmProgram::Funcs.
  uint32_t Fn = 0;
  union {
    int64_t I; ///< Int value / Bool truth (0 or 1)
    struct {
      Addr A, B; ///< Pair components / Cons head+tail
    } P;
    struct {
      const Addr *V;     ///< value capture record (null when empty)
      const uint32_t *R; ///< region record (null when empty)
    } C;
  };
  Cell() : I(0) {}
};

/// The walker's Value keeps Int in a dedicated field that stays 0 for
/// non-numeric kinds; BinOp reads it without a kind check. Reproduce
/// that exactly over the union.
int64_t numericValue(const Cell &V) {
  return (V.K == Cell::Kind::Int || V.K == Cell::Kind::Bool) ? V.I : 0;
}

enum class RegState : uint8_t { Unallocated, Allocated, Deallocated };

/// One runtime region: a bump-pointer arena of cells plus the U→A→D
/// state tag and lifetime bookkeeping.
struct RtRegion {
  RegState St = RegState::Unallocated;
  uint32_t Len = 0;
  uint32_t Cap = 0;
  Cell *Base = nullptr;
  uint64_t AllocTime = 0;
  uint64_t FreeTime = 0;
  uint64_t ValuesAtFree = 0;
};

/// One VM activation. Locals live in shared slot stacks (ValSlots /
/// RegSlots) at [ValBase, ValBase + NumValSlots) etc.; D0 is the runtime
/// depth of the function body's root node (each Enter checks
/// D0 + static depth, which equals the walker's recursion depth).
struct Frame {
  uint32_t RetPC = 0;
  uint32_t D0 = 0;
  uint32_t ValBase = 0;
  uint32_t RegBase = 0;
  const Addr *VCaps = nullptr;
  const uint32_t *RCaps = nullptr;
};

class VM {
public:
  VM(const VmProgram &P, const RunOptions &Options)
      : P(P), Options(Options) {}

  ~VM() {
    for (RtRegion &Reg : Regions)
      delete[] Reg.Base;
    for (auto &Class : Pool)
      for (Cell *Buf : Class)
        delete[] Buf;
  }

  RunResult run();

private:
  //===------------------------------------------------------------------===//
  // Errors
  //===------------------------------------------------------------------===//

  bool fail(std::string Message) {
    if (Err.empty())
      Err = std::move(Message);
    Failed = true;
    return false;
  }

  //===------------------------------------------------------------------===//
  // Region arenas (all store operations instrumented like the walker)
  //===------------------------------------------------------------------===//

  void tick() {
    ++S.Time;
    if (Options.RecordTrace)
      Trace.push_back({S.Time, S.CurValues});
  }

  uint32_t newRegion() {
    Regions.emplace_back();
    return static_cast<uint32_t>(Regions.size() - 1);
  }

  static unsigned sizeClass(uint32_t Cap) {
    // Capacities are exact powers of two starting at MinCap.
    unsigned C = 0;
    while ((MinCap << C) < Cap)
      ++C;
    return C;
  }

  void growArena(RtRegion &Reg) {
    uint32_t NewCap = Reg.Cap ? Reg.Cap * 2 : MinCap;
    unsigned Class = sizeClass(NewCap);
    Cell *Buf;
    if (Class < NumClasses && !Pool[Class].empty()) {
      Buf = Pool[Class].back();
      Pool[Class].pop_back();
    } else {
      Buf = new Cell[NewCap];
    }
    if (Reg.Base) {
      std::memcpy(Buf, Reg.Base, Reg.Len * sizeof(Cell));
      releaseBuffer(Reg.Base, Reg.Cap);
    }
    Reg.Base = Buf;
    Reg.Cap = NewCap;
  }

  void releaseBuffer(Cell *Buf, uint32_t Cap) {
    unsigned Class = sizeClass(Cap);
    if (Class < NumClasses)
      Pool[Class].push_back(Buf);
    else
      delete[] Buf;
  }

  bool allocRegion(uint32_t R) {
    RtRegion &Reg = Regions[R];
    if (Reg.St != RegState::Unallocated)
      return fail("allocation of a region that is not unallocated");
    Reg.St = RegState::Allocated;
    ++S.TotalRegionAllocs;
    ++S.CurRegions;
    S.MaxRegions = std::max(S.MaxRegions, S.CurRegions);
    tick();
    Reg.AllocTime = S.Time;
    return true;
  }

  bool freeRegion(uint32_t R) {
    RtRegion &Reg = Regions[R];
    if (Reg.St != RegState::Allocated)
      return fail("deallocation of a region that is not allocated");
    Reg.St = RegState::Deallocated;
    --S.CurRegions;
    S.CurValues -= Reg.Len;
    Reg.ValuesAtFree = Reg.Len;
    // O(1) free: the whole arena goes back to the pool.
    if (Reg.Base) {
      releaseBuffer(Reg.Base, Reg.Cap);
      Reg.Base = nullptr;
      Reg.Cap = 0;
    }
    Reg.Len = 0;
    tick();
    Reg.FreeTime = S.Time;
    return true;
  }

  /// Writes \p V through destination reference \p DstRef (resolving the
  /// region) and pushes the new cell's address — the written value is the
  /// node's result.
  bool writeCell(uint32_t DstRef, const Cell &V) {
    uint32_t R;
    if (!regionOf(DstRef, R))
      return false;
    RtRegion &Reg = Regions[R];
    if (Reg.St != RegState::Allocated)
      return fail("write to a region that is not allocated");
    if (Reg.Len == Reg.Cap)
      growArena(Reg);
    Reg.Base[Reg.Len] = V;
    ++Reg.Len;
    ++S.Writes;
    ++S.TotalValueAllocs;
    ++S.CurValues;
    S.MaxValues = std::max(S.MaxValues, S.CurValues);
    tick();
    OpStack.push_back(Addr{R, Reg.Len - 1});
    return true;
  }

  const Cell *readCell(Addr A) {
    RtRegion &Reg = Regions[A.Region];
    if (Reg.St != RegState::Allocated) {
      fail("read from a region that is not allocated");
      return nullptr;
    }
    if (A.Offset >= Reg.Len) {
      // Writes only append and a region is never reallocated, so every
      // address points below its region's length; this guards the arena.
      fail("read past the end of a region's values (interpreter bug)");
      return nullptr;
    }
    ++S.Reads;
    tick();
    return &Reg.Base[A.Offset];
  }

  //===------------------------------------------------------------------===//
  // Reference resolution
  //===------------------------------------------------------------------===//

  /// Resolves region reference \p Ref in the current frame. Poisoned
  /// references fail with their baked message, exactly where the
  /// walker's environment lookup would have.
  bool regionOf(uint32_t Ref, uint32_t &R) {
    if (Ref & RefPoison)
      return fail(P.TrapMsgs[Ref & RefIndexMask]);
    uint32_t Idx = Ref & RefIndexMask;
    const Frame &F = Frames.back();
    R = (Ref & RefCapture) ? F.RCaps[Idx] : RegSlots[F.RegBase + Idx];
    return true;
  }

  Addr valueAt(uint32_t Ref) {
    uint32_t Idx = Ref & RefIndexMask;
    const Frame &F = Frames.back();
    return (Ref & RefCapture) ? F.VCaps[Idx] : ValSlots[F.ValBase + Idx];
  }

  //===------------------------------------------------------------------===//
  // Capture records (persistent, arena-allocated — the analogue of the
  // walker's environment chains; not counted by the memory instrumentation)
  //===------------------------------------------------------------------===//

  Addr captureValue(const CaptureSource &Src) {
    const Frame &F = Frames.back();
    switch (Src.K) {
    case CaptureSource::Local:
      return ValSlots[F.ValBase + Src.Idx];
    case CaptureSource::Capture:
      return F.VCaps[Src.Idx];
    case CaptureSource::Self:
      return Addr{}; // patched after the closure cell is written
    }
    return Addr{};
  }

  uint32_t captureRegion(const CaptureSource &Src) {
    const Frame &F = Frames.back();
    switch (Src.K) {
    case CaptureSource::Local:
      return RegSlots[F.RegBase + Src.Idx];
    case CaptureSource::Capture:
      return F.RCaps[Src.Idx];
    case CaptureSource::Self:
      break; // regions have no self capture
    }
    return 0;
  }

  Addr *buildValCaps(const FuncInfo &FI) {
    if (FI.ValCaps.empty())
      return nullptr;
    Addr *Rec = static_cast<Addr *>(
        Mem.allocate(FI.ValCaps.size() * sizeof(Addr), alignof(Addr)));
    for (size_t I = 0; I != FI.ValCaps.size(); ++I)
      Rec[I] = captureValue(FI.ValCaps[I]);
    return Rec;
  }

  uint32_t *buildRegCaps(const FuncInfo &FI) {
    if (FI.RegCaps.empty())
      return nullptr;
    uint32_t *Rec = static_cast<uint32_t *>(
        Mem.allocate(FI.RegCaps.size() * sizeof(uint32_t), alignof(uint32_t)));
    for (size_t I = 0; I != FI.RegCaps.size(); ++I)
      Rec[I] = captureRegion(FI.RegCaps[I]);
    return Rec;
  }

  //===------------------------------------------------------------------===//
  // Frames
  //===------------------------------------------------------------------===//

  void pushFrame(uint32_t RetPC, uint32_t D0, const FuncInfo &FI,
                 const Addr *VCaps, const uint32_t *RCaps) {
    Frame F;
    F.RetPC = RetPC;
    F.D0 = D0;
    F.ValBase = static_cast<uint32_t>(ValSlots.size());
    F.RegBase = static_cast<uint32_t>(RegSlots.size());
    F.VCaps = VCaps;
    F.RCaps = RCaps;
    Frames.push_back(F);
    ValSlots.resize(F.ValBase + FI.NumValSlots);
    RegSlots.resize(F.RegBase + FI.NumRegSlots);
  }

  std::string render(Addr A, unsigned Depth = 0);

  const VmProgram &P;
  const RunOptions &Options;

  static constexpr uint32_t MinCap = 8;
  static constexpr unsigned NumClasses = 24; // up to 8 << 23 cells

  Arena Mem;
  std::vector<RtRegion> Regions;
  std::vector<Cell *> Pool[NumClasses];

  std::vector<Addr> OpStack;
  std::vector<Addr> ValSlots;
  std::vector<uint32_t> RegSlots;
  std::vector<Frame> Frames;

  /// The closure latched by ReadClos/ReadRegClos for the Call /
  /// RegAppWrite that follows (the walker's closure copy).
  struct {
    uint32_t Fn = 0;
    const Addr *VCaps = nullptr;
    const uint32_t *RCaps = nullptr;
  } Pend;

  Stats S;
  std::vector<TracePoint> Trace;
  std::string Err;
  bool Failed = false;
};

std::string VM::render(Addr A, unsigned Depth) {
  if (Depth > 64)
    return "...";
  const RtRegion &Reg = Regions[A.Region];
  if (Reg.St != RegState::Allocated)
    return "<freed>";
  if (!Reg.Base || A.Offset >= Reg.Cap)
    return "?";
  // Every address points at a written cell (Offset < Len); the checks
  // above only guard the arena index.
  const Cell &V = Reg.Base[A.Offset];
  switch (V.K) {
  case Cell::Kind::Int:
    return std::to_string(V.I);
  case Cell::Kind::Bool:
    return V.I ? "true" : "false";
  case Cell::Kind::Unit:
    return "()";
  case Cell::Kind::Clos:
    return "<fn>";
  case Cell::Kind::RegClos:
    return "<regfn>";
  case Cell::Kind::Pair: {
    // Built with += rather than operator+ chains: GCC 12's -Wrestrict
    // fires a false positive on the inlined char*+string&& overload.
    std::string Out = "(";
    Out += render(V.P.A, Depth + 1);
    Out += ", ";
    Out += render(V.P.B, Depth + 1);
    Out += ")";
    return Out;
  }
  case Cell::Kind::Nil:
  case Cell::Kind::Cons: {
    std::string Out = "[";
    Addr Cur = A;
    bool First = true;
    for (unsigned I = 0; I < 100000; ++I) {
      const RtRegion &CurReg = Regions[Cur.Region];
      if (CurReg.St != RegState::Allocated)
        return Out + "<freed>]";
      if (!CurReg.Base || Cur.Offset >= CurReg.Cap)
        return Out + "?]";
      const Cell &CellV = CurReg.Base[Cur.Offset];
      if (CellV.K == Cell::Kind::Nil)
        break;
      if (!First)
        Out += ", ";
      First = false;
      Out += render(CellV.P.A, Depth + 1);
      Cur = CellV.P.B;
    }
    return Out + "]";
  }
  }
  return "?";
}

RunResult VM::run() {
  const uint32_t *Code = P.Code.data();
  uint32_t PC = P.Funcs[P.RootFunc].Entry;
  pushFrame(/*RetPC=*/0, /*D0=*/0, P.Funcs[P.RootFunc], nullptr, nullptr);

  bool Halted = false;
  while (!Failed && !Halted) {
    Op O = static_cast<Op>(Code[PC++]);
    switch (O) {
    case Op::Enter: {
      uint32_t D = Code[PC++];
      if (++S.Steps > Options.MaxSteps) {
        fail("step limit exceeded");
        break;
      }
      if (Frames.back().D0 + D >= Options.MaxDepth)
        fail("recursion depth limit exceeded");
      break;
    }
    case Op::NewRegion: {
      uint32_t Slot = Code[PC++];
      RegSlots[Frames.back().RegBase + Slot] = newRegion();
      break;
    }
    case Op::AllocReg: {
      uint32_t R;
      if (regionOf(Code[PC++], R))
        allocRegion(R);
      break;
    }
    case Op::FreeReg: {
      uint32_t R;
      if (regionOf(Code[PC++], R))
        freeRegion(R);
      break;
    }
    case Op::CheckEnd: {
      uint32_t Slot = Code[PC++];
      uint32_t RV = Code[PC++];
      uint32_t R = RegSlots[Frames.back().RegBase + Slot];
      if (Regions[R].St == RegState::Allocated)
        fail("region r" + std::to_string(RV) +
             " still allocated at letregion exit");
      break;
    }
    case Op::WriteInt: {
      uint32_t Idx = Code[PC++];
      uint32_t Dst = Code[PC++];
      Cell V;
      V.K = Cell::Kind::Int;
      V.I = P.IntPool[Idx];
      writeCell(Dst, V);
      break;
    }
    case Op::WriteTag: {
      uint32_t Tag = Code[PC++];
      uint32_t Dst = Code[PC++];
      Cell V;
      switch (Tag) {
      case TagFalse:
        V.K = Cell::Kind::Bool;
        V.I = 0;
        break;
      case TagTrue:
        V.K = Cell::Kind::Bool;
        V.I = 1;
        break;
      case TagUnit:
        V.K = Cell::Kind::Unit;
        break;
      default:
        V.K = Cell::Kind::Nil;
        break;
      }
      writeCell(Dst, V);
      break;
    }
    case Op::LoadLocal: {
      uint32_t Slot = Code[PC++];
      OpStack.push_back(ValSlots[Frames.back().ValBase + Slot]);
      break;
    }
    case Op::LoadCap: {
      uint32_t Idx = Code[PC++];
      OpStack.push_back(Frames.back().VCaps[Idx]);
      break;
    }
    case Op::StoreLocal: {
      uint32_t Slot = Code[PC++];
      ValSlots[Frames.back().ValBase + Slot] = OpStack.back();
      OpStack.pop_back();
      break;
    }
    case Op::MakeClos: {
      uint32_t Fn = Code[PC++];
      uint32_t Dst = Code[PC++];
      const FuncInfo &FI = P.Funcs[Fn];
      Cell V;
      V.K = Cell::Kind::Clos;
      V.Fn = Fn;
      V.C.V = buildValCaps(FI);
      V.C.R = buildRegCaps(FI);
      writeCell(Dst, V);
      break;
    }
    case Op::MakeRegClos: {
      uint32_t Fn = Code[PC++];
      uint32_t Dst = Code[PC++];
      const FuncInfo &FI = P.Funcs[Fn];
      Addr *VRec = buildValCaps(FI);
      Cell V;
      V.K = Cell::Kind::RegClos;
      V.Fn = Fn;
      V.C.V = VRec;
      V.C.R = buildRegCaps(FI);
      if (!writeCell(Dst, V))
        break;
      // Tie the letrec knot: Self captures become the closure's own
      // address (the walker's post-write Env patch).
      Addr Self = OpStack.back();
      for (size_t I = 0; I != FI.ValCaps.size(); ++I)
        if (FI.ValCaps[I].K == CaptureSource::Self)
          VRec[I] = Self;
      break;
    }
    case Op::ReadClos: {
      const Cell *Cl = readCell(OpStack[OpStack.size() - 2]);
      if (!Cl)
        break;
      if (Cl->K != Cell::Kind::Clos) {
        fail("application of a non-closure value");
        break;
      }
      // Latch before the free_app ops run: freeing the closure's region
      // must not lose the code/captures (the walker's ClosCopy).
      Pend.Fn = Cl->Fn;
      Pend.VCaps = Cl->C.V;
      Pend.RCaps = Cl->C.R;
      break;
    }
    case Op::Call: {
      uint32_t Delta = Code[PC++];
      Addr Arg = OpStack.back();
      OpStack.pop_back();
      OpStack.pop_back(); // the closure's address
      const FuncInfo &FI = P.Funcs[Pend.Fn];
      uint32_t D0 = Frames.back().D0 + Delta;
      pushFrame(PC, D0, FI, Pend.VCaps, Pend.RCaps);
      ValSlots[Frames.back().ValBase] = Arg; // parameter: slot 0
      PC = FI.Entry;
      break;
    }
    case Op::Ret: {
      Frame F = Frames.back();
      Frames.pop_back();
      ValSlots.resize(F.ValBase);
      RegSlots.resize(F.RegBase);
      PC = F.RetPC;
      break;
    }
    case Op::ReadRegClos: {
      uint32_t Src = Code[PC++];
      const Cell *Cl = readCell(valueAt(Src));
      if (!Cl)
        break;
      if (Cl->K != Cell::Kind::RegClos) {
        fail("region application of a non-region-closure");
        break;
      }
      Pend.Fn = Cl->Fn;
      Pend.VCaps = Cl->C.V;
      Pend.RCaps = Cl->C.R;
      break;
    }
    case Op::RegAppWrite: {
      uint32_t Dst = Code[PC++];
      uint32_t N = Code[PC++];
      const FuncInfo &FI = P.Funcs[Pend.Fn];
      assert(N == FI.NumFormals && "region arity mismatch");
      uint32_t NCaps = static_cast<uint32_t>(FI.RegCaps.size());
      uint32_t *Rec = nullptr;
      if (N + NCaps != 0)
        Rec = static_cast<uint32_t *>(Mem.allocate(
            (N + NCaps) * sizeof(uint32_t), alignof(uint32_t)));
      bool OkActuals = true;
      for (uint32_t I = 0; I != N; ++I) {
        uint32_t R;
        if (!regionOf(Code[PC + I], R)) {
          OkActuals = false;
          break;
        }
        Rec[I] = R;
      }
      PC += N;
      if (!OkActuals)
        break;
      for (uint32_t I = 0; I != NCaps; ++I)
        Rec[N + I] = Pend.RCaps[I];
      Cell V;
      V.K = Cell::Kind::Clos;
      V.Fn = Pend.Fn;
      V.C.V = Pend.VCaps;
      V.C.R = Rec;
      writeCell(Dst, V);
      break;
    }
    case Op::Branch: {
      uint32_t Target = Code[PC++];
      Addr A = OpStack.back();
      OpStack.pop_back();
      const Cell *Cond = readCell(A);
      if (!Cond)
        break;
      if (Cond->K != Cell::Kind::Bool) {
        fail("if condition is not a boolean");
        break;
      }
      if (!Cond->I)
        PC = Target;
      break;
    }
    case Op::Jump:
      PC = Code[PC];
      break;
    case Op::WritePair:
    case Op::WriteCons: {
      uint32_t Dst = Code[PC++];
      Addr B = OpStack.back();
      OpStack.pop_back();
      Addr A = OpStack.back();
      OpStack.pop_back();
      Cell V;
      V.K = O == Op::WritePair ? Cell::Kind::Pair : Cell::Kind::Cons;
      V.P.A = A;
      V.P.B = B;
      writeCell(Dst, V);
      break;
    }
    case Op::Proj: {
      uint32_t Which = Code[PC++];
      Addr A = OpStack.back();
      OpStack.pop_back();
      const Cell *V = readCell(A);
      if (!V)
        break;
      switch (Which) {
      case 0:
        if (V->K != Cell::Kind::Pair) {
          fail("fst of a non-pair");
          break;
        }
        OpStack.push_back(V->P.A);
        break;
      case 1:
        if (V->K != Cell::Kind::Pair) {
          fail("snd of a non-pair");
          break;
        }
        OpStack.push_back(V->P.B);
        break;
      case 2:
        if (V->K != Cell::Kind::Cons) {
          fail("hd of an empty or non-list value");
          break;
        }
        OpStack.push_back(V->P.A);
        break;
      default:
        if (V->K != Cell::Kind::Cons) {
          fail("tl of an empty or non-list value");
          break;
        }
        OpStack.push_back(V->P.B);
        break;
      }
      break;
    }
    case Op::NullTest: {
      uint32_t Dst = Code[PC++];
      Addr A = OpStack.back();
      OpStack.pop_back();
      const Cell *V = readCell(A);
      if (!V)
        break;
      if (V->K != Cell::Kind::Nil && V->K != Cell::Kind::Cons) {
        fail("null of a non-list");
        break;
      }
      Cell R;
      R.K = Cell::Kind::Bool;
      R.I = V->K == Cell::Kind::Nil ? 1 : 0;
      writeCell(Dst, R);
      break;
    }
    case Op::BinOp: {
      auto Kind = static_cast<ast::BinOpKind>(Code[PC++]);
      uint32_t Dst = Code[PC++];
      Addr Rhs = OpStack.back();
      OpStack.pop_back();
      Addr Lhs = OpStack.back();
      OpStack.pop_back();
      const Cell *LV = readCell(Lhs);
      if (!LV)
        break;
      int64_t L = numericValue(*LV);
      const Cell *RV = readCell(Rhs);
      if (!RV)
        break;
      int64_t R = numericValue(*RV);
      Cell Out;
      Out.K = ast::isComparison(Kind) ? Cell::Kind::Bool : Cell::Kind::Int;
      if (const char *Error = ast::applyBinOp(Kind, L, R, Out.I)) {
        fail(Error);
        break;
      }
      writeCell(Dst, Out);
      break;
    }
    case Op::Trap:
      fail(P.TrapMsgs[Code[PC]]);
      break;
    case Op::Halt:
      Halted = true;
      break;
    }
  }

  RunResult Out;
  Out.Trace = std::move(Trace);
  if (Failed || OpStack.empty()) {
    Out.Ok = false;
    Out.Error = Err.empty() ? "unknown runtime error" : Err;
    Out.S = S;
    return Out;
  }
  S.FinalValues = S.CurValues;
  Out.Ok = true;
  Out.ResultText = render(OpStack.back());
  Out.S = S;
  if (Options.RecordLifetimes) {
    Out.Lifetimes.reserve(Regions.size());
    for (const RtRegion &Reg : Regions) {
      RegionLifetime L;
      L.AllocTime = Reg.AllocTime;
      L.FreeTime = Reg.FreeTime;
      L.ValuesAtFree =
          Reg.St == RegState::Allocated ? Reg.Len : Reg.ValuesAtFree;
      Out.Lifetimes.push_back(L);
    }
  }
  return Out;
}

} // namespace

RunResult vm::execute(const VmProgram &P, const RunOptions &Options) {
  return VM(P, Options).run();
}
