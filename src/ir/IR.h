//===-- ir/IR.h - The architecture-neutral D&R IR ---------------*- C++ -*-==//
///
/// \file
/// Valgrind's single-static-assignment-flavoured intermediate representation
/// (Section 3.6), reproduced. The unit of translation is a superblock
/// (IRSB): a single-entry, multiple-exit list of statements. Statements are
/// operations with side effects (register writes via Put, memory stores,
/// assignments to temporaries, dirty helper calls, guarded exits);
/// expressions are pure values (constants, temporary reads, register reads
/// via Get, loads, arithmetic, conditional ITE, clean helper calls).
///
/// Expressions may be arbitrary trees ("tree IR") or flattened so that all
/// operands are temporaries or constants ("flat IR"); tools always see flat
/// IR (Section 3.7, Phase 3). The IR is load/store and RISC-like: complex
/// guest instructions become multiple operations, exposing intermediate
/// values (such as scaled-index address arithmetic) to instrumentation.
///
/// All nodes are arena-allocated inside their owning IRSB, so tools freely
/// share subexpressions when instrumenting without ownership bookkeeping —
/// mirroring Valgrind's single-IRSB allocation discipline.
///
//===----------------------------------------------------------------------===//
#ifndef VG_IR_IR_H
#define VG_IR_IR_H

#include "support/Errors.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace vg {
namespace ir {

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

/// Value types. I1 is the type of guards and comparison results.
enum class Ty : uint8_t { I1, I8, I16, I32, I64, F64 };

const char *tyName(Ty T);
unsigned tySizeBits(Ty T);

//===----------------------------------------------------------------------===//
// Primitive operations
//
// The X-macro keeps the op list, the printer, the typechecker and the
// evaluator in sync. Grouped as in VEX: integer ALU per size, widening
// multiplies, comparisons, conversions, FP, and packed-SIMD lanes.
//===----------------------------------------------------------------------===//

// VG_IROP(name, result-type, nargs, arg1-type, arg2-type)
#define VG_IROP_LIST(X)                                                        \
  /* --- integer ALU, I8 --- */                                                \
  X(Add8, I8, 2, I8, I8)                                                       \
  X(Sub8, I8, 2, I8, I8)                                                       \
  X(Mul8, I8, 2, I8, I8)                                                       \
  X(And8, I8, 2, I8, I8)                                                       \
  X(Or8, I8, 2, I8, I8)                                                        \
  X(Xor8, I8, 2, I8, I8)                                                       \
  X(Shl8, I8, 2, I8, I8)                                                       \
  X(Shr8, I8, 2, I8, I8)                                                       \
  X(Sar8, I8, 2, I8, I8)                                                       \
  X(Not8, I8, 1, I8, I8)                                                       \
  X(Neg8, I8, 1, I8, I8)                                                       \
  /* --- integer ALU, I16 --- */                                               \
  X(Add16, I16, 2, I16, I16)                                                   \
  X(Sub16, I16, 2, I16, I16)                                                   \
  X(Mul16, I16, 2, I16, I16)                                                   \
  X(And16, I16, 2, I16, I16)                                                   \
  X(Or16, I16, 2, I16, I16)                                                    \
  X(Xor16, I16, 2, I16, I16)                                                   \
  X(Shl16, I16, 2, I16, I16)                                                   \
  X(Shr16, I16, 2, I16, I16)                                                   \
  X(Sar16, I16, 2, I16, I16)                                                   \
  X(Not16, I16, 1, I16, I16)                                                   \
  X(Neg16, I16, 1, I16, I16)                                                   \
  /* --- integer ALU, I32 --- */                                               \
  X(Add32, I32, 2, I32, I32)                                                   \
  X(Sub32, I32, 2, I32, I32)                                                   \
  X(Mul32, I32, 2, I32, I32)                                                   \
  X(And32, I32, 2, I32, I32)                                                   \
  X(Or32, I32, 2, I32, I32)                                                    \
  X(Xor32, I32, 2, I32, I32)                                                   \
  X(Shl32, I32, 2, I32, I8)                                                    \
  X(Shr32, I32, 2, I32, I8)                                                    \
  X(Sar32, I32, 2, I32, I8)                                                    \
  X(DivU32, I32, 2, I32, I32)                                                  \
  X(DivS32, I32, 2, I32, I32)                                                  \
  X(Not32, I32, 1, I32, I32)                                                   \
  X(Neg32, I32, 1, I32, I32)                                                   \
  /* --- integer ALU, I64 --- */                                               \
  X(Add64, I64, 2, I64, I64)                                                   \
  X(Sub64, I64, 2, I64, I64)                                                   \
  X(Mul64, I64, 2, I64, I64)                                                   \
  X(And64, I64, 2, I64, I64)                                                   \
  X(Or64, I64, 2, I64, I64)                                                    \
  X(Xor64, I64, 2, I64, I64)                                                   \
  X(Shl64, I64, 2, I64, I8)                                                    \
  X(Shr64, I64, 2, I64, I8)                                                    \
  X(Sar64, I64, 2, I64, I8)                                                    \
  X(Not64, I64, 1, I64, I64)                                                   \
  X(Neg64, I64, 1, I64, I64)                                                   \
  /* --- widening multiplies --- */                                            \
  X(MullU32, I64, 2, I32, I32)                                                 \
  X(MullS32, I64, 2, I32, I32)                                                 \
  /* --- comparisons (result I1) --- */                                        \
  X(CmpEQ8, I1, 2, I8, I8)                                                     \
  X(CmpNE8, I1, 2, I8, I8)                                                     \
  X(CmpEQ16, I1, 2, I16, I16)                                                  \
  X(CmpNE16, I1, 2, I16, I16)                                                  \
  X(CmpEQ32, I1, 2, I32, I32)                                                  \
  X(CmpNE32, I1, 2, I32, I32)                                                  \
  X(CmpEQ64, I1, 2, I64, I64)                                                  \
  X(CmpNE64, I1, 2, I64, I64)                                                  \
  X(CmpLT32S, I1, 2, I32, I32)                                                 \
  X(CmpLE32S, I1, 2, I32, I32)                                                 \
  X(CmpLT32U, I1, 2, I32, I32)                                                 \
  X(CmpLE32U, I1, 2, I32, I32)                                                 \
  X(CmpLT64S, I1, 2, I64, I64)                                                 \
  X(CmpLE64S, I1, 2, I64, I64)                                                 \
  X(CmpLT64U, I1, 2, I64, I64)                                                 \
  X(CmpLE64U, I1, 2, I64, I64)                                                 \
  X(CmpNEZ8, I1, 1, I8, I8)                                                    \
  X(CmpNEZ16, I1, 1, I16, I16)                                                 \
  X(CmpNEZ32, I1, 1, I32, I32)                                                 \
  X(CmpNEZ64, I1, 1, I64, I64)                                                 \
  /* --- widening conversions --- */                                           \
  X(U1to8, I8, 1, I1, I1)                                                      \
  X(U1to32, I32, 1, I1, I1)                                                    \
  X(U1to64, I64, 1, I1, I1)                                                    \
  X(U8to16, I16, 1, I8, I8)                                                    \
  X(U8to32, I32, 1, I8, I8)                                                    \
  X(S8to32, I32, 1, I8, I8)                                                    \
  X(U8to64, I64, 1, I8, I8)                                                    \
  X(U16to32, I32, 1, I16, I16)                                                 \
  X(S16to32, I32, 1, I16, I16)                                                 \
  X(U16to64, I64, 1, I16, I16)                                                 \
  X(U32to64, I64, 1, I32, I32)                                                 \
  X(S32to64, I64, 1, I32, I32)                                                 \
  /* --- narrowing conversions --- */                                          \
  X(T16to8, I8, 1, I16, I16)                                                   \
  X(T32to8, I8, 1, I32, I32)                                                   \
  X(T32to16, I16, 1, I32, I32)                                                 \
  X(T64to32, I32, 1, I64, I64)                                                 \
  X(T64HIto32, I32, 1, I64, I64)                                               \
  X(T32to1, I1, 1, I32, I32)                                                   \
  X(T64to1, I1, 1, I64, I64)                                                   \
  X(Concat32HLto64, I64, 2, I32, I32)                                          \
  /* --- floating point (F64) --- */                                           \
  X(AddF64, F64, 2, F64, F64)                                                  \
  X(SubF64, F64, 2, F64, F64)                                                  \
  X(MulF64, F64, 2, F64, F64)                                                  \
  X(DivF64, F64, 2, F64, F64)                                                  \
  X(NegF64, F64, 1, F64, F64)                                                  \
  X(AbsF64, F64, 1, F64, F64)                                                  \
  X(SqrtF64, F64, 1, F64, F64)                                                 \
  X(I32StoF64, F64, 1, I32, I32)                                               \
  X(F64toI32S, I32, 1, F64, F64)                                               \
  X(CmpF64, I32, 2, F64, F64)                                                  \
  X(ReinterpF64asI64, I64, 1, F64, F64)                                        \
  X(ReinterpI64asF64, F64, 1, I64, I64)                                        \
  /* --- packed SIMD: 4 x I8 lanes in an I32 --- */                            \
  X(Add8x4, I32, 2, I32, I32)                                                  \
  X(Sub8x4, I32, 2, I32, I32)                                                  \
  X(CmpGT8Sx4, I32, 2, I32, I32)

/// Primitive operation opcodes (~100 distinct operations).
enum class Op : uint16_t {
#define X(name, rt, n, a1, a2) name,
  VG_IROP_LIST(X)
#undef X
};

const char *opName(Op O);
Ty opResultTy(Op O);
unsigned opArity(Op O);
Ty opArgTy(Op O, unsigned Idx);

/// Evaluates a primitive op on constant bits (used by the constant folder,
/// the HVM executor, and differential tests, so all three agree). Operand
/// and result values are zero-extended into 64 bits; F64 travels as raw
/// IEEE754 bits.
uint64_t evalOp(Op O, uint64_t A, uint64_t B);

/// Truncates \p V to the bit width of \p T (canonical constant form).
uint64_t truncToTy(uint64_t V, Ty T);

//===----------------------------------------------------------------------===//
// Helper callees
//===----------------------------------------------------------------------===//

/// C helper function callable from IR. Clean calls (CCall expressions) must
/// be pure; dirty calls may read/write guest state and memory, described by
/// their effect annotations on the Dirty statement.
///
/// All helpers share one host ABI: up to four u64 arguments plus an opaque
/// environment pointer (the executing core), returning u64.
using HelperFn = uint64_t (*)(void *Env, uint64_t, uint64_t, uint64_t,
                              uint64_t);

struct Callee {
  const char *Name;
  HelperFn Fn;
  /// Identifier used by the optimiser's platform-specific partial
  /// evaluation hook (Section 3.7 Phase 2's %eflags specialisation).
  uint32_t SpecKey = 0;
  /// The helper never writes tool shadow state (shadow memory or shadow
  /// registers), so a cached ShadowProbe result stays valid across the
  /// call. Pure readers like Memcheck's LOADV qualify; anything that can
  /// mark memory defined/undefined (STOREV, stack events) must not.
  bool PreservesShadow = false;
  /// The helper's guest-register-state effects are fully described by the
  /// Dirty statement's Fx list (an empty list meaning "touches none").
  /// Lets the trace-tier optimiser keep Get/Put facts live across the
  /// call instead of treating it as a full barrier.
  bool StateFxComplete = false;
};

/// Process-wide registry of helper-callee descriptors, keyed by name.
/// Encoded host code embeds raw Callee pointers (HOp::CALL), which makes a
/// blob meaningless outside the process that emitted it; the persistent
/// translation cache serializes CALL targets as registered names and
/// resolves them back through this table at load time. Every Callee that
/// can appear in cacheable code must therefore be registered (via a
/// CalleeRegistrar static next to its definition). Thread-safe.
void registerCallee(const Callee *C);
/// Null when no callee of that name was registered.
const Callee *findCalleeByName(const std::string &Name);
/// The registered name for \p C, or null when \p C was never registered
/// (a translation calling it can then not be serialized).
const char *registeredCalleeName(const Callee *C);

/// Registers a set of Callee descriptors at static-initialisation time.
/// Place one of these in an anonymous namespace next to the descriptors:
///
///   const ir::CalleeRegistrar Reg{&LoadVCallee, &StoreVCallee};
struct CalleeRegistrar {
  CalleeRegistrar(std::initializer_list<const Callee *> Cs) {
    for (const Callee *C : Cs)
      registerCallee(C);
  }
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

using TmpId = uint32_t;
constexpr TmpId NoTmp = ~0u;

enum class ExprKind : uint8_t { Const, RdTmp, Get, Unop, Binop, Load, ITE,
                                CCall };

/// A pure value. Tagged union; fields are valid according to Kind.
struct Expr {
  ExprKind Kind;
  Ty T;                     ///< result type
  Op Opc{};                 ///< Unop/Binop
  TmpId Tmp = NoTmp;        ///< RdTmp
  uint64_t ConstVal = 0;    ///< Const (truncated to T's width)
  uint32_t Offset = 0;      ///< Get: guest-state byte offset
  Expr *Arg[3] = {};        ///< Unop: [0]; Binop: [0],[1]; Load: addr [0];
                            ///< ITE: cond,[1]=iftrue,[2]=iffalse
  const Callee *CalleeFn = nullptr; ///< CCall
  std::vector<Expr *> CallArgs;     ///< CCall

  bool isConst() const { return Kind == ExprKind::Const; }
  bool isConst(uint64_t V) const { return isConst() && ConstVal == V; }
  bool isRdTmp() const { return Kind == ExprKind::RdTmp; }
  /// Flat-IR "atom": RdTmp or Const.
  bool isAtom() const { return isConst() || isRdTmp(); }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Why control leaves a superblock. Mirrors VEX's IRJumpKind: the dispatcher
/// uses this to route to the scheduler for non-Boring events (Section 3.9).
enum class JumpKind : uint8_t {
  Boring,    ///< ordinary jump
  Call,      ///< guest call (informational)
  Ret,       ///< guest return (informational)
  Syscall,   ///< SYS: hand to the syscall machinery
  ClientReq, ///< CLREQ trap-door (Section 3.11)
  Yield,     ///< voluntary yield hint
  NoDecode,  ///< undecodable instruction at the target
  SigSEGV,   ///< deliberate fault (used by core-generated blocks)
  Exit,      ///< HLT: terminate the program
  SmcFail,   ///< self-modifying-code hash check failed: retranslate
};

const char *jumpKindName(JumpKind K);

enum class StmtKind : uint8_t {
  NoOp,
  IMark,
  Put,
  WrTmp,
  Store,
  Dirty,
  Exit,
  /// Non-faulting shadow-memory probe (the JIT-inlined Memcheck fast
  /// path). Load form (Data == null): Tmp:I64 receives the V-word
  /// zero-extended on success, or a value with bit 32 set when the access
  /// must take the helper slow path. Store form (Data != null): attempts
  /// to store the V-word Data; Tmp:I64 receives 0 on success, 1 to punt.
  /// Touches only tool shadow state — never guest registers or memory.
  ShadowProbe,
};

/// Effect annotation on a Dirty call: a guest-state region the helper reads
/// (RdFX) or writes (WrFX), so tools see through the call (Section 3.6's
/// cpuid discussion).
struct GuestFx {
  uint32_t Offset;
  uint32_t Size;
  bool IsWrite;
};

/// An operation with side effects.
struct Stmt {
  StmtKind Kind;
  // IMark
  uint32_t IAddr = 0; ///< guest address of the original instruction
  uint8_t ILen = 0;   ///< its encoded length in bytes
  // Put / WrTmp / Store / Dirty (fields shared where sensible)
  uint32_t Offset = 0;     ///< Put: guest-state byte offset
  TmpId Tmp = NoTmp;       ///< WrTmp dst; Dirty optional dst
  Expr *Data = nullptr;    ///< Put/WrTmp data; Store data
  Expr *Addr = nullptr;    ///< Store address
  // Dirty
  const Callee *CalleeFn = nullptr;
  std::vector<Expr *> CallArgs;
  Expr *Guard = nullptr; ///< Dirty: only run if guard (I1) is 1; Exit: cond
  std::vector<GuestFx> Fx;
  // Exit
  uint32_t DstPC = 0;
  JumpKind JK = JumpKind::Boring;
  // ShadowProbe
  uint8_t AccSize = 0; ///< access size in bytes (currently always 4)
};

//===----------------------------------------------------------------------===//
// Superblocks
//===----------------------------------------------------------------------===//

/// Append-only node arena with stable addresses. Nodes live in chunks of
/// doubling capacity (32 up to 512 nodes) that never reallocate, so a block
/// of N nodes costs O(log N) allocations (a std::deque's 512-byte buffers
/// hold only a few IR nodes each). Capacity is reserved, not constructed:
/// only allocated nodes are initialised.
template <typename T> class NodePool {
public:
  /// A value-initialised node.
  T *alloc() {
    if (Chunks.empty() || Chunks.back().size() == Chunks.back().capacity()) {
      Chunks.emplace_back();
      Chunks.back().reserve(NextChunk);
      NextChunk = std::min<size_t>(NextChunk * 2, 512);
    }
    return &Chunks.back().emplace_back();
  }

private:
  /// Moving a chunk (when this vector grows) keeps its buffer, so node
  /// addresses survive.
  std::vector<std::vector<T>> Chunks;
  size_t NextChunk = 32;
};

/// A single-entry, multiple-exit code block plus its type environment.
/// Owns all Expr/Stmt nodes reachable from it.
class IRSB {
public:
  IRSB() = default;
  IRSB(const IRSB &) = delete;
  IRSB &operator=(const IRSB &) = delete;

  // --- type environment -------------------------------------------------
  TmpId newTmp(Ty T) {
    TmpTypes.push_back(T);
    return static_cast<TmpId>(TmpTypes.size() - 1);
  }
  Ty typeOfTmp(TmpId T) const {
    assert(T < TmpTypes.size() && "temporary out of range");
    return TmpTypes[T];
  }
  size_t numTmps() const { return TmpTypes.size(); }

  /// Type of any expression in this block's environment.
  Ty typeOf(const Expr *E) const;

  // --- expression factories ---------------------------------------------
  Expr *constI1(bool V) { return mkConst(Ty::I1, V ? 1 : 0); }
  Expr *constI8(uint8_t V) { return mkConst(Ty::I8, V); }
  Expr *constI16(uint16_t V) { return mkConst(Ty::I16, V); }
  Expr *constI32(uint32_t V) { return mkConst(Ty::I32, V); }
  Expr *constI64(uint64_t V) { return mkConst(Ty::I64, V); }
  Expr *constF64(double V);
  Expr *mkConst(Ty T, uint64_t Bits);
  Expr *rdTmp(TmpId T);
  Expr *get(uint32_t Offset, Ty T);
  Expr *unop(Op O, Expr *A);
  Expr *binop(Op O, Expr *A, Expr *B);
  Expr *load(Ty T, Expr *Addr);
  Expr *ite(Expr *Cond, Expr *IfTrue, Expr *IfFalse);
  Expr *ccall(const Callee *C, Ty RetTy, std::vector<Expr *> Args);

  // --- statement factories (appended to the block) ----------------------
  void noop();
  void imark(uint32_t Addr, uint8_t Len);
  void put(uint32_t Offset, Expr *Data);
  /// Allocates a fresh tmp of the expression's type and assigns it.
  TmpId wrTmp(Expr *Data);
  void wrTmpTo(TmpId T, Expr *Data);
  void store(Expr *Addr, Expr *Data);
  /// Dirty helper call. \p Dst may be NoTmp; \p Guard may be null (always
  /// run).
  void dirty(const Callee *C, std::vector<Expr *> Args, TmpId Dst = NoTmp,
             Expr *Guard = nullptr, std::vector<GuestFx> Fx = {});
  void exit(Expr *Guard, uint32_t DstPC, JumpKind K = JumpKind::Boring);
  /// Shadow probe (see StmtKind::ShadowProbe). \p Data is null for the
  /// load form; \p Dst must be an I64 temporary.
  void shadowProbe(Expr *Addr, Expr *Data, TmpId Dst, uint8_t Size);

  /// Appends an externally built statement (used by instrumenters that
  /// rebuild statement lists).
  void append(Stmt *S) { Statements.push_back(S); }
  /// Allocates a value-initialised statement in this block's arena.
  Stmt *allocStmt() { return StmtArena.alloc(); }

  // --- block structure ---------------------------------------------------
  std::vector<Stmt *> &stmts() { return Statements; }
  const std::vector<Stmt *> &stmts() const { return Statements; }
  /// Replaces the statement list (instrumentation passes build new lists
  /// reusing this block's arena-owned expressions).
  void setStmts(std::vector<Stmt *> S) { Statements = std::move(S); }

  Expr *next() const { return Next; }
  void setNext(Expr *E, JumpKind K) {
    Next = E;
    EndJK = K;
  }
  JumpKind endJumpKind() const { return EndJK; }

  /// Verifies flatness/typing invariants; returns an empty string when OK,
  /// otherwise a diagnostic. \p RequireFlat additionally enforces that all
  /// statement operands are atoms.
  std::string typecheck(bool RequireFlat) const;

private:
  Expr *alloc() { return ExprArena.alloc(); }

  NodePool<Expr> ExprArena;
  NodePool<Stmt> StmtArena;
  std::vector<Stmt *> Statements;
  std::vector<Ty> TmpTypes;
  Expr *Next = nullptr;
  JumpKind EndJK = JumpKind::Boring;
};

} // namespace ir
} // namespace vg

#endif // VG_IR_IR_H
