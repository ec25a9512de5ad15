//===-- ir/IROpt.cpp - IR optimisation passes -----------------------------==//

#include "ir/IROpt.h"

#include <algorithm>
#include <optional>

using namespace vg;
using namespace vg::ir;

//===----------------------------------------------------------------------===//
// Fuzz self-test plant
//===----------------------------------------------------------------------===//

static int FuzzPlantKind = 0;

void vg::ir::setFuzzPlant(int Kind) { FuzzPlantKind = Kind; }
int vg::ir::fuzzPlant() { return FuzzPlantKind; }

//===----------------------------------------------------------------------===//
// Flattening: tree IR -> flat IR
//===----------------------------------------------------------------------===//

namespace {

class Flattener {
public:
  Flattener(const IRSB &In, IRSB &Out) : In(In), Out(Out) {}

  void run() {
    for (const Stmt *S : In.stmts())
      flattenStmt(S);
    Out.setNext(atomize(In.next()), In.endJumpKind());
  }

private:
  TmpId mapTmp(TmpId Old) {
    if (Old >= TmpMap.size())
      TmpMap.resize(Old + 1, NoTmp);
    if (TmpMap[Old] == NoTmp)
      TmpMap[Old] = Out.newTmp(In.typeOfTmp(Old));
    return TmpMap[Old];
  }

  /// Returns an atom (tmp/const) in Out that evaluates \p E, emitting WrTmp
  /// statements for interior nodes.
  Expr *atomize(const Expr *E) {
    if (E->Kind == ExprKind::Const)
      return Out.mkConst(E->T, E->ConstVal);
    if (E->Kind == ExprKind::RdTmp)
      return Out.rdTmp(mapTmp(E->Tmp));
    Expr *Shallow = shallowClone(E);
    return Out.rdTmp(Out.wrTmp(Shallow));
  }

  /// Clones one level of \p E with atomised operands.
  Expr *shallowClone(const Expr *E) {
    switch (E->Kind) {
    case ExprKind::Const:
      return Out.mkConst(E->T, E->ConstVal);
    case ExprKind::RdTmp:
      return Out.rdTmp(mapTmp(E->Tmp));
    case ExprKind::Get:
      return Out.get(E->Offset, E->T);
    case ExprKind::Unop:
      return Out.unop(E->Opc, atomize(E->Arg[0]));
    case ExprKind::Binop:
      return Out.binop(E->Opc, atomize(E->Arg[0]), atomize(E->Arg[1]));
    case ExprKind::Load:
      return Out.load(E->T, atomize(E->Arg[0]));
    case ExprKind::ITE:
      return Out.ite(atomize(E->Arg[0]), atomize(E->Arg[1]),
                     atomize(E->Arg[2]));
    case ExprKind::CCall: {
      std::vector<Expr *> Args;
      for (const Expr *A : E->CallArgs)
        Args.push_back(atomize(A));
      return Out.ccall(E->CalleeFn, E->T, std::move(Args));
    }
    }
    unreachable("shallowClone: bad expr kind");
  }

  void flattenStmt(const Stmt *S) {
    switch (S->Kind) {
    case StmtKind::NoOp:
      return; // dropped
    case StmtKind::IMark:
      Out.imark(S->IAddr, S->ILen);
      return;
    case StmtKind::Put:
      Out.put(S->Offset, atomize(S->Data));
      return;
    case StmtKind::WrTmp:
      Out.wrTmpTo(mapTmp(S->Tmp), shallowClone(S->Data));
      return;
    case StmtKind::Store: {
      Expr *A = atomize(S->Addr);
      Expr *D = atomize(S->Data);
      Out.store(A, D);
      return;
    }
    case StmtKind::Dirty: {
      std::vector<Expr *> Args;
      for (const Expr *A : S->CallArgs)
        Args.push_back(atomize(A));
      Expr *G = S->Guard ? atomize(S->Guard) : nullptr;
      Out.dirty(S->CalleeFn, std::move(Args),
                S->Tmp == NoTmp ? NoTmp : mapTmp(S->Tmp), G, S->Fx);
      return;
    }
    case StmtKind::Exit:
      Out.exit(atomize(S->Guard), S->DstPC, S->JK);
      return;
    case StmtKind::ShadowProbe: {
      Expr *A = atomize(S->Addr);
      Expr *D = S->Data ? atomize(S->Data) : nullptr;
      Out.shadowProbe(A, D, mapTmp(S->Tmp), S->AccSize);
      return;
    }
    }
  }

  const IRSB &In;
  IRSB &Out;
  std::vector<TmpId> TmpMap;
};

} // namespace

std::unique_ptr<IRSB> ir::flatten(const IRSB &In) {
  auto Out = std::make_unique<IRSB>();
  Flattener F(In, *Out);
  F.run();
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared pass machinery
//===----------------------------------------------------------------------===//

namespace {

/// Byte ranges of guest state, for Get/Put conflict analysis.
struct Range {
  uint32_t Lo, Hi; // [Lo, Hi)
  bool overlaps(Range O) const { return Lo < O.Hi && O.Lo < Hi; }
  bool covers(Range O) const { return Lo <= O.Lo && O.Hi <= Hi; }
};

Range rangeOfPut(const Stmt *S) {
  return {S->Offset, S->Offset + tySizeBits(S->Data->T) / 8};
}

Range rangeOfGet(const Expr *E) {
  return {E->Offset, E->Offset + tySizeBits(E->T) / 8};
}

/// Forward constant/copy propagation + folding + algebraic simplification +
/// helper-call specialisation. Rewrites in place; removes WrTmps that became
/// pure atom copies.
class PropFold {
public:
  PropFold(IRSB &SB, const SpecFn &Spec, std::vector<Expr *> &Env,
           std::vector<Stmt *> &Out)
      : SB(SB), Spec(Spec), Env(Env), Out(Out) {}

  void run() {
    Env.assign(SB.numTmps(), nullptr);
    Out.clear();
    for (Stmt *S : SB.stmts()) {
      if (!rewriteStmt(S))
        continue; // absorbed into environment
      Out.push_back(S);
    }
    // The old list's storage becomes the next pass's output buffer.
    SB.stmts().swap(Out);
    SB.setNext(subst(SB.next()), SB.endJumpKind());
  }

private:
  /// Re-flattens an expression the spec hook may have returned as a small
  /// tree: interior nodes get their own WrTmp emitted before the current
  /// statement, so the block stays flat.
  Expr *atomizeOperand(Expr *E) {
    if (E->isAtom())
      return E;
    Expr *N = simplify(normalizeRhs(E));
    if (N->isAtom())
      return N;
    TmpId T = SB.newTmp(N->T);
    Stmt *S = SB.allocStmt();
    S->Kind = StmtKind::WrTmp;
    S->Tmp = T;
    S->Data = N;
    Out.push_back(S);
    return SB.rdTmp(T);
  }

  /// Makes all operands of \p E atoms (recursively flattening sub-trees).
  Expr *normalizeRhs(Expr *E) {
    switch (E->Kind) {
    case ExprKind::Unop:
      E->Arg[0] = atomizeOperand(E->Arg[0]);
      return E;
    case ExprKind::Binop:
      E->Arg[0] = atomizeOperand(E->Arg[0]);
      E->Arg[1] = atomizeOperand(E->Arg[1]);
      return E;
    case ExprKind::Load:
      E->Arg[0] = atomizeOperand(E->Arg[0]);
      return E;
    case ExprKind::ITE:
      for (int I = 0; I != 3; ++I)
        E->Arg[I] = atomizeOperand(E->Arg[I]);
      return E;
    case ExprKind::CCall:
      for (Expr *&A : E->CallArgs)
        A = atomizeOperand(A);
      return E;
    default:
      return E;
    }
  }

  /// Resolves an atom through the tmp environment. Tmps created during
  /// the pass lie past the table's end and are never bound.
  Expr *subst(Expr *E) {
    while (E->Kind == ExprKind::RdTmp && E->Tmp < Env.size() && Env[E->Tmp])
      E = Env[E->Tmp];
    return E;
  }

  /// Simplifies a one-level expression whose operands are already resolved.
  /// Returns the (possibly new) expression.
  Expr *simplify(Expr *E) {
    switch (E->Kind) {
    case ExprKind::Unop: {
      Expr *A = E->Arg[0];
      if (A->isConst())
        return SB.mkConst(E->T, evalOp(E->Opc, A->ConstVal, 0));
      return E;
    }
    case ExprKind::Binop: {
      Expr *A = E->Arg[0], *B = E->Arg[1];
      if (A->isConst() && B->isConst())
        return SB.mkConst(E->T, evalOp(E->Opc, A->ConstVal, B->ConstVal));
      // Algebraic identities (a representative, conservative set).
      switch (E->Opc) {
      case Op::Add8:
      case Op::Add16:
      case Op::Add32:
      case Op::Add64:
      case Op::Or8:
      case Op::Or16:
      case Op::Or32:
      case Op::Or64:
      case Op::Xor8:
      case Op::Xor16:
      case Op::Xor32:
      case Op::Xor64:
        if (B->isConst(0))
          return A;
        if (A->isConst(0))
          return B;
        // Deliberately-planted miscompile for vgfuzz --self-test (off in
        // normal operation; see setFuzzPlant in IROpt.h).
        if (fuzzPlant() == 1 && E->Opc == Op::Add32 && B->isConst(1))
          return A;
        break;
      case Op::Sub8:
      case Op::Sub16:
      case Op::Sub32:
      case Op::Sub64:
        if (B->isConst(0))
          return A;
        break;
      case Op::And8:
      case Op::And16:
      case Op::And32:
      case Op::And64:
        if (B->isConst(0) || A->isConst(0))
          return SB.mkConst(E->T, 0);
        if (B->isConst(truncToTy(~0ull, E->T)))
          return A;
        if (A->isConst(truncToTy(~0ull, E->T)))
          return B;
        if (A->isRdTmp() && B->isRdTmp() && A->Tmp == B->Tmp)
          return A;
        break;
      case Op::Shl8:
      case Op::Shl16:
      case Op::Shl32:
      case Op::Shl64:
      case Op::Shr8:
      case Op::Shr16:
      case Op::Shr32:
      case Op::Shr64:
      case Op::Sar8:
      case Op::Sar16:
      case Op::Sar32:
      case Op::Sar64:
        if (B->isConst(0))
          return A;
        break;
      case Op::Mul8:
      case Op::Mul16:
      case Op::Mul32:
      case Op::Mul64:
        if (B->isConst(1))
          return A;
        if (A->isConst(1))
          return B;
        if (B->isConst(0) || A->isConst(0))
          return SB.mkConst(E->T, 0);
        break;
      default:
        break;
      }
      // Or/Xor/Sub with identical tmps.
      if (A->isRdTmp() && B->isRdTmp() && A->Tmp == B->Tmp) {
        switch (E->Opc) {
        case Op::Or8:
        case Op::Or16:
        case Op::Or32:
        case Op::Or64:
          return A;
        case Op::Xor8:
        case Op::Xor16:
        case Op::Xor32:
        case Op::Xor64:
        case Op::Sub8:
        case Op::Sub16:
        case Op::Sub32:
        case Op::Sub64:
          return SB.mkConst(E->T, 0);
        case Op::CmpEQ8:
        case Op::CmpEQ16:
        case Op::CmpEQ32:
        case Op::CmpEQ64:
          return SB.constI1(true);
        case Op::CmpNE8:
        case Op::CmpNE16:
        case Op::CmpNE32:
        case Op::CmpNE64:
          return SB.constI1(false);
        default:
          break;
        }
      }
      return E;
    }
    case ExprKind::ITE:
      if (E->Arg[0]->isConst())
        return E->Arg[0]->ConstVal ? E->Arg[1] : E->Arg[2];
      if (E->Arg[1]->isRdTmp() && E->Arg[2]->isRdTmp() &&
          E->Arg[1]->Tmp == E->Arg[2]->Tmp)
        return E->Arg[1];
      return E;
    case ExprKind::CCall:
      if (Spec) {
        if (Expr *R = Spec(SB, E->CalleeFn, E->CallArgs))
          return R;
      }
      return E;
    default:
      return E;
    }
  }

  /// Rewrites operands of \p S through the environment; returns false if the
  /// statement should be dropped (its value captured in the environment).
  bool rewriteStmt(Stmt *S) {
    switch (S->Kind) {
    case StmtKind::NoOp:
      return false;
    case StmtKind::IMark:
      return true;
    case StmtKind::Put:
      S->Data = subst(S->Data);
      return true;
    case StmtKind::WrTmp: {
      Expr *D = S->Data;
      // Resolve operands.
      switch (D->Kind) {
      case ExprKind::Const:
      case ExprKind::RdTmp:
        D = subst(D);
        break;
      case ExprKind::Get:
        break;
      case ExprKind::Unop:
        D->Arg[0] = subst(D->Arg[0]);
        break;
      case ExprKind::Binop:
        D->Arg[0] = subst(D->Arg[0]);
        D->Arg[1] = subst(D->Arg[1]);
        break;
      case ExprKind::Load:
        D->Arg[0] = subst(D->Arg[0]);
        break;
      case ExprKind::ITE:
        for (int I = 0; I != 3; ++I)
          D->Arg[I] = subst(D->Arg[I]);
        break;
      case ExprKind::CCall:
        for (Expr *&A : D->CallArgs)
          A = subst(A);
        break;
      }
      D = simplify(D);
      if (D->isAtom()) {
        Env[S->Tmp] = D;
        return false;
      }
      D = normalizeRhs(D); // spec results may be small trees
      S->Data = D;
      return true;
    }
    case StmtKind::Store:
      S->Addr = subst(S->Addr);
      S->Data = subst(S->Data);
      return true;
    case StmtKind::Dirty:
      for (Expr *&A : S->CallArgs)
        A = subst(A);
      if (S->Guard) {
        S->Guard = subst(S->Guard);
        // A statically false guard removes the call entirely.
        if (S->Guard->isConst(0))
          return false;
      }
      return true;
    case StmtKind::Exit:
      S->Guard = subst(S->Guard);
      if (S->Guard->isConst(0))
        return false; // never taken
      return true;
    case StmtKind::ShadowProbe:
      S->Addr = subst(S->Addr);
      if (S->Data)
        S->Data = subst(S->Data);
      return true;
    }
    return true;
  }

  IRSB &SB;
  const SpecFn &Spec;
  std::vector<Expr *> &Env; ///< tmp -> the atom it copies (null: none)
  std::vector<Stmt *> &Out;
};

/// Disjoint guest-state byte ranges, each owning its bytes, with a value
/// per range: RedundantGet's known slot contents and DeadPut's pending
/// overwrites. A byte's owner is one table read and clear() is O(1): it
/// only moves the floor below which recorded slots read as dead.
class RangeOwners {
public:
  struct Slot {
    Range R;
    Expr *Val;
  };

  RangeOwners() {
    // A guest state and its shadow copy span a few hundred bytes; reserve
    // past that so the table rarely regrows (larger offsets still work).
    Owner.reserve(512);
  }

  /// The live slot owning byte \p B, or null.
  const Slot *ownerOf(uint32_t B) const {
    return B < Owner.size() && Owner[B] > Floor ? &Slots[Owner[B] - 1]
                                                 : nullptr;
  }

  /// True if no byte of \p R is owned.
  bool isFree(Range R) const {
    uint32_t Hi =
        std::min<uint32_t>(R.Hi, static_cast<uint32_t>(Owner.size()));
    for (uint32_t B = R.Lo; B < Hi; ++B)
      if (Owner[B] > Floor)
        return false;
    return true;
  }

  /// Drops every slot with a byte in \p R.
  void invalidate(Range R) {
    uint32_t Hi =
        std::min<uint32_t>(R.Hi, static_cast<uint32_t>(Owner.size()));
    for (uint32_t B = R.Lo; B < Hi; ++B)
      if (Owner[B] > Floor)
        release(Slots[Owner[B] - 1].R);
  }

  /// Records \p R, whose bytes must be free, as a slot holding \p Val.
  void insert(Range R, Expr *Val) {
    if (Owner.size() < R.Hi)
      Owner.resize(R.Hi, 0);
    Slots.push_back(Slot{R, Val});
    std::fill(Owner.begin() + R.Lo, Owner.begin() + R.Hi,
              static_cast<uint32_t>(Slots.size()));
  }

  /// Drops every slot for which \p Pred holds (a linear walk).
  template <class Fn> void dropIf(Fn Pred) {
    for (uint32_t I = Floor; I != Slots.size(); ++I)
      if (isLive(I) && Pred(Slots[I].R))
        release(Slots[I].R);
  }

  /// Calls \p F on the range of every live slot (a linear walk).
  template <class Fn> void forEachLive(Fn F) const {
    for (uint32_t I = Floor; I != Slots.size(); ++I)
      if (isLive(I))
        F(Slots[I].R);
  }

  void clear() {
    if (Slots.size() < MaxSlots) {
      Floor = static_cast<uint32_t>(Slots.size());
      return;
    }
    // Bound the storage: forget every slot the slow way, once in a while.
    std::fill(Owner.begin(), Owner.end(), 0);
    Slots.clear();
    Floor = 0;
  }

private:
  static constexpr size_t MaxSlots = 4096;

  bool isLive(uint32_t I) const {
    const Range &R = Slots[I].R;
    return R.Lo < R.Hi && Owner[R.Lo] == I + 1;
  }

  void release(Range R) {
    std::fill(Owner.begin() + R.Lo, Owner.begin() + R.Hi, 0);
  }

  /// Every slot recorded since the storage was last reset; those below
  /// Floor were recorded before the last clear() and are dead.
  std::vector<Slot> Slots;
  uint32_t Floor = 0;
  /// Guest-state byte offset -> 1 + index in Slots of the slot that last
  /// owned it (live only if above Floor), or 0.
  std::vector<uint32_t> Owner;
};

/// DeadPut's pending set: guest-state ranges that are overwritten before
/// any read on every path from the current statement. It answers as a
/// plain list of ranges would ("is R inside one pending range", "drop
/// every range R overlaps"), in O(bytes of R) per query while the ranges
/// are disjoint. A range that partly overlaps a pending one, and any
/// empty range, goes to a short overflow list that is scanned instead.
/// The VG1 front end and the tools write each slot at one width, so the
/// list stays empty in practice.
class PendingSet {
public:
  bool covers(Range R) const {
    bool Found = false;
    if (R.Lo < R.Hi) {
      const RangeOwners::Slot *O = Disjoint.ownerOf(R.Lo);
      Found = O && O->R.covers(R);
    } else {
      Disjoint.forEachLive([&](Range P) { Found = Found || P.covers(R); });
    }
    for (Range P : Overflow)
      Found = Found || P.covers(R);
    return Found;
  }

  void add(Range R) {
    if (R.Lo < R.Hi && Disjoint.isFree(R)) {
      Disjoint.insert(R, nullptr);
      return;
    }
    const RangeOwners::Slot *O =
        R.Lo < R.Hi ? Disjoint.ownerOf(R.Lo) : nullptr;
    if (O && O->R.Lo == R.Lo && O->R.Hi == R.Hi)
      return; // already pending
    Overflow.push_back(R);
  }

  /// Drops every pending range that overlaps \p R.
  void remove(Range R) {
    if (R.Lo < R.Hi)
      Disjoint.invalidate(R);
    else
      Disjoint.dropIf([R](Range P) { return P.overlaps(R); });
    Overflow.erase(std::remove_if(Overflow.begin(), Overflow.end(),
                                  [R](Range P) { return P.overlaps(R); }),
                   Overflow.end());
  }

  /// Keeps, of every pending range P, the parts inside some range of
  /// \p Keep (the set becomes the pairwise intersections).
  void intersect(const Range *Keep, unsigned NKeep) {
    Old.clear();
    Disjoint.forEachLive([this](Range P) { Old.push_back(P); });
    Old.insert(Old.end(), Overflow.begin(), Overflow.end());
    clear();
    for (unsigned I = 0; I != NKeep; ++I)
      for (Range P : Old) {
        Range R{std::max(Keep[I].Lo, P.Lo), std::min(Keep[I].Hi, P.Hi)};
        if (R.Lo < R.Hi)
          add(R);
      }
  }

  void clear() {
    Disjoint.clear();
    Overflow.clear();
  }

private:
  RangeOwners Disjoint;
  std::vector<Range> Overflow;
  std::vector<Range> Old; ///< intersect's copy of the old set
};

/// Redundant Get elimination: forward pass tracking the current contents of
/// guest-state slots, from PUTs seen and previous GETs.
class RedundantGet {
public:
  RedundantGet(IRSB &SB, RangeOwners &Slots, const TraceOptConfig *Trace)
      : SB(SB), Trace(Trace), Slots(Slots) {}

  void run() {
    Slots.clear();
    for (Stmt *S : SB.stmts()) {
      switch (S->Kind) {
      case StmtKind::WrTmp:
        if (S->Data->Kind == ExprKind::Get) {
          Range R = rangeOfGet(S->Data);
          if (Expr *Known = findExact(R, S->Data->T)) {
            // Replace the Get with the known atom; PropFold then propagates.
            S->Data = Known;
          } else {
            record(R, SB.rdTmp(S->Tmp));
          }
        }
        break;
      case StmtKind::Put: {
        Range R = rangeOfPut(S);
        if (S->Data->isAtom())
          record(R, S->Data);
        else
          Slots.invalidate(R);
        break;
      }
      case StmtKind::Dirty:
        // An unannotated helper may touch any guest-state slot. Trace tier
        // only: a helper declared StateFxComplete is exactly its Fx list,
        // so probe/check calls between former block seams stop killing
        // Get/Put forwarding (gated on Trace to keep tier 0 untouched).
        if (S->Fx.empty() &&
            !(Trace && S->CalleeFn && S->CalleeFn->StateFxComplete)) {
          Slots.clear();
        } else {
          for (const GuestFx &F : S->Fx)
            if (F.IsWrite)
              Slots.invalidate(Range{F.Offset, F.Offset + F.Size});
        }
        break;
      default:
        break;
      }
    }
  }

private:
  Expr *findExact(Range R, Ty T) const {
    const RangeOwners::Slot *S = Slots.ownerOf(R.Lo);
    return S && S->R.Lo == R.Lo && S->R.Hi == R.Hi && S->Val->T == T
               ? S->Val
               : nullptr;
  }

  void record(Range R, Expr *Val) {
    Slots.invalidate(R);
    Slots.insert(R, Val);
  }

  IRSB &SB;
  const TraceOptConfig *Trace;
  RangeOwners &Slots;
};

/// Redundant Put elimination (backward): a PUT whose slot is overwritten by
/// a later PUT before any observation (Get, Dirty, Exit, or block end) is
/// dead. This is what removes the intermediate %pc writes in Figure 1's
/// optimisation (paper Section 3.7, Phase 2).
class DeadPut {
public:
  DeadPut(IRSB &SB, PendingSet &Pending, const PreservedPuts &Preserve,
          const TraceOptConfig *Trace)
      : SB(SB), Preserve(Preserve), Trace(Trace), Pending(Pending) {}

  void run() {
    auto &Stmts = SB.stmts();
    // Walk backwards. Pending = slots that will be overwritten. Kept
    // statements are packed in place towards the end of the list.
    Pending.clear();
    if (Trace) {
      Range Taken[3];
      unsigned N = takenPendingRanges(nullptr, Taken); // block-end liveness
      for (unsigned I = 0; I != N; ++I)
        Pending.add(Taken[I]);
    }
    size_t Out = Stmts.size();
    for (size_t I = Stmts.size(); I-- > 0;) {
      Stmt *S = Stmts[I];
      bool Keep = true;
      switch (S->Kind) {
      case StmtKind::Put: {
        Range R = rangeOfPut(S);
        if (!Preserve.covers(S->Offset) && Pending.covers(R)) {
          Keep = false;
          if (Trace && Trace->Stats && overlapsCC(R))
            ++Trace->Stats->DeadFlagPuts;
        } else {
          Pending.add(R);
        }
        break;
      }
      case StmtKind::WrTmp:
        if (S->Data->Kind == ExprKind::Get)
          Pending.remove(rangeOfGet(S->Data));
        break;
      case StmtKind::Dirty:
        // See RedundantGet: a StateFxComplete helper is its Fx list.
        if (S->Fx.empty() &&
            !(Trace && S->CalleeFn && S->CalleeFn->StateFxComplete)) {
          Pending.clear();
        } else {
          for (const GuestFx &F : S->Fx)
            Pending.remove(Range{F.Offset, F.Offset + F.Size});
        }
        break;
      case StmtKind::Exit:
        if (Trace) {
          // A side exit is a jump with known downstream liveness, not a
          // barrier: a Put is dead only if overwritten on the taken path
          // (exit-target liveness) AND on the fall-through path (current
          // Pending), so intersect the two sets.
          Range Taken[3];
          unsigned N = takenPendingRanges(S, Taken);
          Pending.intersect(Taken, N);
        } else {
          Pending.clear();
        }
        break;
      default:
        break;
      }
      if (Keep)
        Stmts[--Out] = S;
    }
    Stmts.erase(Stmts.begin(), Stmts.begin() + Out);
  }

private:
  /// Guest-state ranges guaranteed to be overwritten, before any read,
  /// once this exit is taken (\p S null = the fall-off-the-end next).
  /// The PC slot is unconditional: every executor exit path rewrites it.
  /// The CC thunk (and its shadow mirror) joins when the proven-Boring
  /// target overwrites the whole thunk before reading it. Fills \p T and
  /// returns how many ranges it holds.
  unsigned takenPendingRanges(const Stmt *S, Range (&T)[3]) const {
    unsigned N = 0;
    if (Trace->PCHi > Trace->PCLo)
      T[N++] = Range{Trace->PCLo, Trace->PCHi};
    bool CCDead = S ? (S->JK == JumpKind::Boring &&
                       Trace->flagsDeadAtTarget(S->DstPC))
                    : Trace->FlagsDeadAtEnd;
    if (CCDead && Trace->CCHi > Trace->CCLo) {
      T[N++] = Range{Trace->CCLo, Trace->CCHi};
      if (Trace->ShadowOffset)
        T[N++] = Range{Trace->CCLo + Trace->ShadowOffset,
                       Trace->CCHi + Trace->ShadowOffset};
    }
    return N;
  }

  bool overlapsCC(Range R) const {
    if (Trace->CCHi == Trace->CCLo)
      return false;
    Range CC{Trace->CCLo, Trace->CCHi};
    Range SCC{Trace->CCLo + Trace->ShadowOffset,
              Trace->CCHi + Trace->ShadowOffset};
    return CC.overlaps(R) || (Trace->ShadowOffset && SCC.overlaps(R));
  }

  IRSB &SB;
  const PreservedPuts &Preserve;
  const TraceOptConfig *Trace;
  PendingSet &Pending;
};

/// The identity of a pure flat-IR right-hand side, or of a shadow probe's
/// address, as plain data: built on the stack without allocating.
struct ExprKey {
  /// Kind value of a ShadowProbe key (past every ExprKind).
  static constexpr uint8_t ProbeKind = 0xff;

  uint64_t Head = 0;     ///< opcode, callee address, or probe access size
  uint64_t Atom[4] = {}; ///< constant values or tmp numbers
  uint8_t Kind = 0;      ///< ExprKind, or ProbeKind
  uint8_t NAtoms = 0;
  uint8_t ConstMask = 0; ///< bit I set: Atom[I] is a constant
  Ty T = Ty::I1;         ///< result type

  /// Appends one flat-IR atom; false if the key is already full.
  bool add(const Expr *E) {
    if (NAtoms == 4)
      return false;
    if (E->isConst())
      ConstMask |= 1u << NAtoms;
    Atom[NAtoms++] = E->isConst() ? E->ConstVal : E->Tmp;
    return true;
  }

  bool operator==(const ExprKey &O) const {
    return Head == O.Head && Kind == O.Kind && NAtoms == O.NAtoms &&
           ConstMask == O.ConstMask && T == O.T &&
           std::equal(Atom, Atom + NAtoms, O.Atom);
  }

  uint64_t hash() const {
    uint64_t H = Head * 0x9e3779b97f4a7c15ULL ^
                 (uint64_t(Kind) << 24 | uint64_t(NAtoms) << 16 |
                  uint64_t(ConstMask) << 8 | uint64_t(T));
    for (unsigned I = 0; I != NAtoms; ++I)
      H = (H ^ Atom[I]) * 0x100000001b3ULL;
    return H ^ H >> 29;
  }
};

/// Open-addressing map ExprKey -> TmpId for one pass over one block.
/// reset() sizes it for the block's statements, growing only when a block
/// needs more than any before it, and clears it in O(1): entries from an
/// older generation read as empty.
class KeyTable {
public:
  void reset(size_t MaxEntries) {
    size_t Cap = 16;
    while (Cap < 2 * MaxEntries)
      Cap *= 2;
    if (Cap > Index.size()) {
      Index.assign(Cap, Bucket{});
      Gen = 1;
    } else {
      ++Gen;
    }
    Entries.clear();
    Entries.reserve(MaxEntries);
  }

  /// The tmp recorded for \p K, after recording \p V for it if it had
  /// none (then returns \p V).
  TmpId findOrInsert(const ExprKey &K, TmpId V) {
    size_t Mask = Index.size() - 1;
    for (size_t I = K.hash() & Mask;; I = (I + 1) & Mask) {
      Bucket &B = Index[I];
      if (B.Gen != Gen) {
        B = Bucket{static_cast<uint32_t>(Entries.size()), Gen};
        Entries.push_back({K, V});
        return V;
      }
      if (Entries[B.Entry].first == K)
        return Entries[B.Entry].second;
    }
  }

  void clear() {
    ++Gen;
    Entries.clear();
  }

private:
  struct Bucket {
    uint32_t Entry = 0;
    uint32_t Gen = 0;
  };
  std::vector<Bucket> Index;
  std::vector<std::pair<ExprKey, TmpId>> Entries;
  uint32_t Gen = 1;
};

/// Local common-subexpression elimination over pure flat-IR right-hand
/// sides (Unop/Binop/ITE/CCall). Loads are not CSEd (stores would have to
/// invalidate them); Gets are handled by RedundantGet instead.
class CSE {
public:
  CSE(IRSB &SB, KeyTable &Table) : SB(SB), Table(Table) {}

  /// Returns true if some right-hand side was replaced by an earlier tmp.
  bool run() {
    Table.reset(SB.stmts().size());
    bool Replaced = false;
    for (Stmt *S : SB.stmts()) {
      if (S->Kind != StmtKind::WrTmp)
        continue;
      ExprKey K;
      if (!keyOf(S->Data, K))
        continue;
      TmpId Prev = Table.findOrInsert(K, S->Tmp);
      if (Prev != S->Tmp) {
        S->Data = SB.rdTmp(Prev); // PropFold folds the copy away
        Replaced = true;
      }
    }
    return Replaced;
  }

private:
  /// False for right-hand sides CSE leaves alone.
  static bool keyOf(const Expr *D, ExprKey &K) {
    K.Kind = static_cast<uint8_t>(D->Kind);
    K.T = D->T;
    switch (D->Kind) {
    case ExprKind::Unop:
    case ExprKind::Binop:
      K.Head = static_cast<uint64_t>(D->Opc);
      for (unsigned I = 0; I != opArity(D->Opc); ++I)
        K.add(D->Arg[I]);
      return true;
    case ExprKind::ITE:
      for (int I = 0; I != 3; ++I)
        K.add(D->Arg[I]);
      return true;
    case ExprKind::CCall:
      K.Head = reinterpret_cast<uintptr_t>(D->CalleeFn);
      for (const Expr *A : D->CallArgs)
        if (!K.add(A))
          return false;
      return true;
    default:
      return false;
    }
  }

  IRSB &SB;
  KeyTable &Table;
};

/// Dead code elimination: removes WrTmps whose temporaries are never used
/// (backwards liveness in one pass, since flat IR defs precede uses).
class DeadCode {
public:
  DeadCode(IRSB &SB, std::vector<bool> &Live) : SB(SB), Live(Live) {}

  void run() {
    Live.assign(SB.numTmps(), false);
    markExpr(SB.next());
    auto &Stmts = SB.stmts();
    // Kept statements are packed in place towards the end of the list.
    size_t Out = Stmts.size();
    for (size_t I = Stmts.size(); I-- > 0;) {
      Stmt *S = Stmts[I];
      if (S->Kind == StmtKind::NoOp)
        continue;
      if (S->Kind == StmtKind::WrTmp && !Live[S->Tmp])
        continue; // dead def of a pure value
      markStmt(S);
      Stmts[--Out] = S;
    }
    Stmts.erase(Stmts.begin(), Stmts.begin() + Out);
  }

private:
  void markExpr(const Expr *E) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::RdTmp:
      Live[E->Tmp] = true;
      break;
    case ExprKind::Unop:
      markExpr(E->Arg[0]);
      break;
    case ExprKind::Binop:
      markExpr(E->Arg[0]);
      markExpr(E->Arg[1]);
      break;
    case ExprKind::Load:
      markExpr(E->Arg[0]);
      break;
    case ExprKind::ITE:
      markExpr(E->Arg[0]);
      markExpr(E->Arg[1]);
      markExpr(E->Arg[2]);
      break;
    case ExprKind::CCall:
      for (const Expr *A : E->CallArgs)
        markExpr(A);
      break;
    default:
      break;
    }
  }

  void markStmt(const Stmt *S) {
    switch (S->Kind) {
    case StmtKind::Put:
    case StmtKind::WrTmp:
      markExpr(S->Data);
      break;
    case StmtKind::Store:
      markExpr(S->Addr);
      markExpr(S->Data);
      break;
    case StmtKind::Dirty:
      for (const Expr *A : S->CallArgs)
        markExpr(A);
      markExpr(S->Guard);
      break;
    case StmtKind::Exit:
      markExpr(S->Guard);
      break;
    case StmtKind::ShadowProbe:
      markExpr(S->Addr);
      markExpr(S->Data);
      break;
    default:
      break;
    }
  }

  IRSB &SB;
  std::vector<bool> Live;
};

/// Trace tier only: CSE of ShadowProbe *load* probes across former block
/// seams. When a trace re-checks an address its earlier constituent
/// already probed, the probe result (V-word or punt marker) is unchanged
/// provided nothing in between can write tool shadow state, so the second
/// probe collapses to a tmp copy (guard hoisting: the check runs once at
/// the first access). Store-form probes and Dirty calls without
/// Callee::PreservesShadow clobber the table; guest Put/Store/Load/Exit
/// never touch the shadow map (on a taken side exit the rewritten copy is
/// simply not reached). A punting address stays a punt both times, so the
/// slow-path helper still runs per access and error counts are unchanged.
class ShadowProbeCSE {
public:
  ShadowProbeCSE(IRSB &SB, KeyTable &Table, TraceOptStats *Stats)
      : SB(SB), Stats(Stats), Table(Table) {}

  void run() {
    Table.reset(SB.stmts().size());
    for (Stmt *S : SB.stmts()) {
      switch (S->Kind) {
      case StmtKind::ShadowProbe: {
        if (S->Data) { // store form: writes V-bits
          Table.clear();
          break;
        }
        ExprKey K;
        K.Kind = ExprKey::ProbeKind;
        K.Head = S->AccSize;
        K.add(S->Addr);
        TmpId Prev = Table.findOrInsert(K, S->Tmp);
        if (Prev != S->Tmp) {
          S->Kind = StmtKind::WrTmp;
          S->Data = SB.rdTmp(Prev);
          S->Addr = nullptr;
          if (Stats)
            ++Stats->ProbesCSEd;
        }
        break;
      }
      case StmtKind::Dirty:
        if (!S->CalleeFn || !S->CalleeFn->PreservesShadow)
          Table.clear();
        break;
      default:
        break;
      }
    }
  }

private:
  IRSB &SB;
  TraceOptStats *Stats;
  KeyTable &Table;
};

} // namespace

struct ir::OptStorage::Tables {
  std::vector<Expr *> Env;       ///< PropFold: tmp -> the atom it copies
  std::vector<Stmt *> NewStmts;  ///< PropFold: the rewritten statement list
  RangeOwners Slots;             ///< RedundantGet: known slot contents
  PendingSet Pending;            ///< DeadPut: ranges overwritten later
  KeyTable Keys;                 ///< CSE and ShadowProbeCSE
  std::vector<bool> Live;        ///< DeadCode: tmp liveness

  /// Grows the tables for \p SB up front, so that no pass regrows them
  /// statement by statement; once they fit, this costs nothing.
  void fit(const IRSB &SB) {
    Env.reserve(SB.numTmps());
    NewStmts.reserve(SB.stmts().size());
    Live.reserve(SB.numTmps());
  }
};

ir::OptStorage::OptStorage() : T(std::make_unique<Tables>()) {}
ir::OptStorage::~OptStorage() = default;

namespace {

/// One round of the seven Phase-2 passes. Returns true if its CSE replaced
/// an expression.
bool optRound(IRSB &SB, const SpecFn &Spec, const PreservedPuts &Preserve,
              const TraceOptConfig *Trace, OptStorage::Tables &T) {
  PropFold(SB, Spec, T.Env, T.NewStmts).run();
  RedundantGet(SB, T.Slots, Trace).run();
  PropFold(SB, Spec, T.Env, T.NewStmts).run();
  bool CSEHit = CSE(SB, T.Keys).run();
  PropFold(SB, Spec, T.Env, T.NewStmts).run();
  DeadPut(SB, T.Pending, Preserve, Trace).run();
  DeadCode(SB, T.Live).run();
  return CSEHit;
}

} // namespace

bool ir::optimise1(IRSB &SB, const SpecFn &Spec,
                   const PreservedPuts &Preserve,
                   const TraceOptConfig *Trace, OptStorage *Storage) {
  std::optional<OptStorage> Local;
  OptStorage::Tables &T = (Storage ? *Storage : Local.emplace()).tables();
  T.fit(SB);
  // The second round runs only after a CSE hit (see IROpt.h). Two rounds
  // are a cap, not a fixpoint: a third would still change some blocks.
  if (!optRound(SB, Spec, Preserve, Trace, T))
    return false;
  optRound(SB, Spec, Preserve, Trace, T);
  return true;
}

void ir::optimise2(IRSB &SB, const SpecFn &Spec,
                   const PreservedPuts &Preserve,
                   const TraceOptConfig *Trace, OptStorage *Storage) {
  std::optional<OptStorage> Local;
  OptStorage::Tables &T = (Storage ? *Storage : Local.emplace()).tables();
  T.fit(SB);
  // Analysis code benefits from Get/Put forwarding just like client code
  // (Section 4 R1: "shadow operations benefit fully from Valgrind's
  // post-instrumentation IR optimiser") — e.g. per-instruction inline
  // counters collapse to one load, N adds, and one store per block.
  optRound(SB, Spec, Preserve, Trace, T);
  if (Trace) {
    // Cross-seam probe dedup exposes fresh copies and common guard
    // expressions; one more round folds and sweeps them.
    ShadowProbeCSE(SB, T.Keys, Trace->Stats).run();
    optRound(SB, Spec, Preserve, Trace, T);
  }
}

//===----------------------------------------------------------------------===//
// Tree building: flat IR -> tree IR (Phase 5)
//===----------------------------------------------------------------------===//

namespace {

/// Rebuilds expression trees by substituting single-use temporaries into
/// their use points. Loads are never moved past stores; Gets never past
/// conflicting Puts; nothing is carried across a Dirty call; load-bearing
/// trees are not carried across guarded exits (fault-timing preservation).
class TreeBuilder {
public:
  explicit TreeBuilder(IRSB &SB) : SB(SB) {}

  void run() {
    countUses();
    HeldAt.assign(UseCount.size(), -1);
    std::vector<Stmt *> NewStmts;
    NewStmts.reserve(SB.stmts().size());
    Emit = &NewStmts;

    for (Stmt *S : SB.stmts()) {
      switch (S->Kind) {
      case StmtKind::NoOp:
        continue;
      case StmtKind::IMark:
        NewStmts.push_back(S);
        continue;
      case StmtKind::WrTmp: {
        S->Data = substitute(S->Data);
        if (UseCount[S->Tmp] == 1) {
          hold(S);
          continue;
        }
        NewStmts.push_back(S);
        continue;
      }
      case StmtKind::Put:
        S->Data = substitute(S->Data);
        flushConflicting(/*OnStore=*/false, /*OnPut=*/true,
                         rangeOfPut(S), /*All=*/false, /*OnExit=*/false);
        NewStmts.push_back(S);
        continue;
      case StmtKind::Store:
        S->Addr = substitute(S->Addr);
        S->Data = substitute(S->Data);
        flushConflicting(/*OnStore=*/true, false, {}, false, false);
        NewStmts.push_back(S);
        continue;
      case StmtKind::Dirty:
        for (Expr *&A : S->CallArgs)
          A = substitute(A);
        if (S->Guard)
          S->Guard = substitute(S->Guard);
        flushConflicting(false, false, {}, /*All=*/true, false);
        NewStmts.push_back(S);
        continue;
      case StmtKind::Exit:
        S->Guard = substitute(S->Guard);
        flushConflicting(false, false, {}, false, /*OnExit=*/true);
        NewStmts.push_back(S);
        continue;
      case StmtKind::ShadowProbe:
        // Touches only shadow state, so held guest loads/gets may cross it.
        S->Addr = substitute(S->Addr);
        if (S->Data)
          S->Data = substitute(S->Data);
        NewStmts.push_back(S);
        continue;
      }
    }

    SB.setNext(substitute(SB.next()), SB.endJumpKind());
    // Emit any still-held defs whose value is (somehow) still needed.
    for (Pending &P : Held)
      if (!P.Consumed && UseCount[P.Def->Tmp] > 0)
        NewStmts.push_back(P.Def);
    SB.setStmts(std::move(NewStmts));
  }

private:
  struct Pending {
    Stmt *Def;
    bool HasLoad = false;
    bool HasGet = false;
    std::vector<Range> GetRanges;
    bool Consumed = false;
  };

  void countExpr(const Expr *E) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::RdTmp:
      if (E->Tmp >= UseCount.size())
        UseCount.resize(E->Tmp + 1, 0);
      ++UseCount[E->Tmp];
      break;
    case ExprKind::Unop:
      countExpr(E->Arg[0]);
      break;
    case ExprKind::Binop:
      countExpr(E->Arg[0]);
      countExpr(E->Arg[1]);
      break;
    case ExprKind::Load:
      countExpr(E->Arg[0]);
      break;
    case ExprKind::ITE:
      countExpr(E->Arg[0]);
      countExpr(E->Arg[1]);
      countExpr(E->Arg[2]);
      break;
    case ExprKind::CCall:
      for (const Expr *A : E->CallArgs)
        countExpr(A);
      break;
    default:
      break;
    }
  }

  void countUses() {
    UseCount.assign(SB.numTmps(), 0);
    for (const Stmt *S : SB.stmts()) {
      switch (S->Kind) {
      case StmtKind::Put:
      case StmtKind::WrTmp:
        countExpr(S->Data);
        break;
      case StmtKind::Store:
        countExpr(S->Addr);
        countExpr(S->Data);
        break;
      case StmtKind::Dirty:
        for (const Expr *A : S->CallArgs)
          countExpr(A);
        countExpr(S->Guard);
        break;
      case StmtKind::Exit:
        countExpr(S->Guard);
        break;
      case StmtKind::ShadowProbe:
        countExpr(S->Addr);
        countExpr(S->Data);
        break;
      default:
        break;
      }
    }
    countExpr(SB.next());
  }

  static void scanExpr(const Expr *E, Pending &P) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::Load:
      P.HasLoad = true;
      scanExpr(E->Arg[0], P);
      break;
    case ExprKind::Get:
      P.HasGet = true;
      P.GetRanges.push_back(rangeOfGet(E));
      break;
    case ExprKind::Unop:
      scanExpr(E->Arg[0], P);
      break;
    case ExprKind::Binop:
      scanExpr(E->Arg[0], P);
      scanExpr(E->Arg[1], P);
      break;
    case ExprKind::ITE:
      scanExpr(E->Arg[0], P);
      scanExpr(E->Arg[1], P);
      scanExpr(E->Arg[2], P);
      break;
    case ExprKind::CCall:
      for (const Expr *A : E->CallArgs)
        scanExpr(A, P);
      break;
    default:
      break;
    }
  }

  void hold(Stmt *Def) {
    Pending P;
    P.Def = Def;
    scanExpr(Def->Data, P);
    HeldAt[Def->Tmp] = static_cast<int32_t>(Held.size());
    Held.push_back(std::move(P));
  }

  /// Splices held single-use defs into \p E where their tmp is read.
  Expr *substitute(Expr *E) {
    if (!E)
      return E;
    if (E->Kind == ExprKind::RdTmp) {
      int32_t Idx = HeldAt[E->Tmp];
      if (Idx < 0)
        return E;
      HeldAt[E->Tmp] = -1;
      Held[Idx].Consumed = true;
      return Held[Idx].Def->Data; // already tree-substituted when held
    }
    switch (E->Kind) {
    case ExprKind::Unop:
      E->Arg[0] = substitute(E->Arg[0]);
      break;
    case ExprKind::Binop:
      E->Arg[0] = substitute(E->Arg[0]);
      E->Arg[1] = substitute(E->Arg[1]);
      break;
    case ExprKind::Load:
      E->Arg[0] = substitute(E->Arg[0]);
      break;
    case ExprKind::ITE:
      E->Arg[0] = substitute(E->Arg[0]);
      E->Arg[1] = substitute(E->Arg[1]);
      E->Arg[2] = substitute(E->Arg[2]);
      break;
    case ExprKind::CCall:
      for (Expr *&A : E->CallArgs)
        A = substitute(A);
      break;
    default:
      break;
    }
    return E;
  }

  /// Emits (in order) all held defs that cannot legally cross the current
  /// barrier statement.
  void flushConflicting(bool OnStore, bool OnPut, Range PutRange, bool All,
                        bool OnExit) {
    size_t Keep = 0; // survivors are compacted in place, order kept
    for (size_t I = 0; I != Held.size(); ++I) {
      Pending &P = Held[I];
      if (P.Consumed)
        continue;
      int32_t &At = HeldAt[P.Def->Tmp];
      bool Conflicts = All;
      if (OnStore && P.HasLoad)
        Conflicts = true;
      if (OnExit && P.HasLoad)
        Conflicts = true;
      if (OnPut && P.HasGet)
        for (Range R : P.GetRanges)
          if (R.overlaps(PutRange))
            Conflicts = true;
      if (Conflicts) {
        Emit->push_back(P.Def);
        At = -1;
      } else {
        At = static_cast<int32_t>(Keep);
        if (Keep != I)
          Held[Keep] = std::move(P);
        ++Keep;
      }
    }
    Held.erase(Held.begin() + Keep, Held.end());
  }

  IRSB &SB;
  std::vector<uint32_t> UseCount;
  std::vector<Pending> Held;
  /// Tmp -> index in Held of its unconsumed def, or -1.
  std::vector<int32_t> HeldAt;
  std::vector<Stmt *> *Emit = nullptr;
};

} // namespace

void ir::buildTrees(IRSB &SB) { TreeBuilder(SB).run(); }
