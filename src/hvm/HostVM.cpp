//===-- hvm/HostVM.cpp - Encoding (Phase 8) and printing ------------------==//

#include "hvm/HostVM.h"

#include <cstdio>
#include <cstring>

using namespace vg;
using namespace vg::hvm;

namespace {

unsigned encodedSizeFor(HOp Op) {
  switch (Op) {
  case HOp::LI:
    return 10;
  case HOp::MOV:
    return 3;
  case HOp::ALU:
    return 6;
  case HOp::ALU1:
    return 5;
  case HOp::ALUI:
    return 13;
  case HOp::LDG:
  case HOp::STG:
    return 7;
  case HOp::LDM:
  case HOp::STM:
    return 8;
  case HOp::SEL:
    return 5;
  case HOp::CALL:
    return 15;
  case HOp::JZ:
    return 6;
  case HOp::EXITI:
    return 10;
  case HOp::EXITR:
    return 3;
  case HOp::IMARK:
    return 5;
  case HOp::SPILL:
  case HOp::RELOAD:
    return 6;
  case HOp::ALUIS:
    return 6;
  case HOp::SHPROBE:
    return 6;
  }
  return 0;
}

/// Immediate-form selection: ALUI with a byte-sized immediate uses the
/// compact ALUIS encoding (6 bytes instead of 13).
HOp encodedOp(const HInstr &I) {
  return I.Op == HOp::ALUI && I.Imm <= 0xFF ? HOp::ALUIS : I.Op;
}

/// Writes little-endian fields into a buffer encode() has already sized.
struct ByteWriter {
  uint8_t *P;
  void u8(uint8_t V) { *P++ = V; }
  void u16(uint16_t V) {
    u8(static_cast<uint8_t>(V));
    u8(static_cast<uint8_t>(V >> 8));
  }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      u8(static_cast<uint8_t>(V >> (8 * I)));
  }
};

uint8_t r8(RegId R) {
  assert(!isVirtual(R) && R < NumHostRegs && "unallocated register reaches encoder");
  return static_cast<uint8_t>(R);
}

} // namespace

std::vector<uint8_t> hvm::encode(const HostCode &Code) {
  // First pass: byte offset of every instruction (for JZ targets).
  std::vector<uint32_t> Offset(Code.Instrs.size() + 1, 0);
  uint32_t Pos = 0;
  for (size_t I = 0; I != Code.Instrs.size(); ++I) {
    Offset[I] = Pos;
    Pos += encodedSizeFor(encodedOp(Code.Instrs[I]));
  }
  Offset[Code.Instrs.size()] = Pos;

  std::vector<uint8_t> Bytes(Pos);
  ByteWriter B{Bytes.data()};
  for (const HInstr &I : Code.Instrs) {
    const HOp Op = encodedOp(I);
    B.u8(static_cast<uint8_t>(Op));
    switch (Op) {
    case HOp::LI:
      B.u8(r8(I.Dst));
      B.u64(I.Imm);
      break;
    case HOp::MOV:
      B.u8(r8(I.Dst));
      B.u8(r8(I.A));
      break;
    case HOp::ALU:
      B.u16(static_cast<uint16_t>(I.IrOp));
      B.u8(r8(I.Dst));
      B.u8(r8(I.A));
      B.u8(r8(I.B));
      break;
    case HOp::ALU1:
      B.u16(static_cast<uint16_t>(I.IrOp));
      B.u8(r8(I.Dst));
      B.u8(r8(I.A));
      break;
    case HOp::ALUI:
      B.u16(static_cast<uint16_t>(I.IrOp));
      B.u8(r8(I.Dst));
      B.u8(r8(I.A));
      B.u64(I.Imm);
      break;
    case HOp::LDG:
      B.u8(r8(I.Dst));
      B.u32(I.Off);
      B.u8(I.Size);
      break;
    case HOp::STG:
      B.u8(r8(I.A));
      B.u32(I.Off);
      B.u8(I.Size);
      break;
    case HOp::LDM:
      B.u8(r8(I.Dst));
      B.u8(r8(I.A));
      B.u32(static_cast<uint32_t>(I.Disp));
      B.u8(I.Size);
      break;
    case HOp::STM:
      B.u8(r8(I.A));
      B.u8(r8(I.B));
      B.u32(static_cast<uint32_t>(I.Disp));
      B.u8(I.Size);
      break;
    case HOp::SEL:
      B.u8(r8(I.Dst));
      B.u8(r8(I.A));
      B.u8(r8(I.B));
      B.u8(r8(I.C));
      break;
    case HOp::CALL:
      B.u64(reinterpret_cast<uint64_t>(I.CalleeFn));
      B.u8(I.Dst == NoReg ? 0xFF : r8(I.Dst));
      B.u8(I.NArgs);
      for (int J = 0; J != 4; ++J)
        B.u8(I.Args[J] == NoReg ? 0 : r8(I.Args[J]));
      break;
    case HOp::JZ:
      B.u8(r8(I.A));
      assert(I.Label >= 0 &&
             static_cast<size_t>(I.Label) < Offset.size() &&
             "JZ with unresolved label");
      B.u32(Offset[I.Label]);
      break;
    case HOp::EXITI:
      B.u32(static_cast<uint32_t>(I.Imm));
      B.u8(I.JKind);
      B.u32(I.ChainSlot);
      break;
    case HOp::EXITR:
      B.u8(r8(I.A));
      B.u8(I.JKind);
      break;
    case HOp::IMARK:
      B.u32(static_cast<uint32_t>(I.Imm));
      break;
    case HOp::SPILL:
      B.u8(r8(I.A));
      B.u32(I.Off);
      break;
    case HOp::RELOAD:
      B.u8(r8(I.Dst));
      B.u32(I.Off);
      break;
    case HOp::ALUIS:
      B.u16(static_cast<uint16_t>(I.IrOp));
      B.u8(r8(I.Dst));
      B.u8(r8(I.A));
      B.u8(static_cast<uint8_t>(I.Imm));
      break;
    case HOp::SHPROBE:
      B.u8(r8(I.Dst));
      B.u8(r8(I.A));
      B.u8(I.B == NoReg ? 0xFF : r8(I.B));
      B.u8(static_cast<uint8_t>(I.Imm)); // bit 0: store form
      B.u8(I.Size);
      break;
    }
  }
  assert(B.P == Bytes.data() + Bytes.size() && "encoded size mismatch");
  return Bytes;
}

bool hvm::findCalleeSlots(const std::vector<uint8_t> &Bytes,
                          std::vector<uint32_t> &Slots) {
  Slots.clear();
  size_t Off = 0;
  while (Off < Bytes.size()) {
    uint8_t Op = Bytes[Off];
    if (Op > static_cast<uint8_t>(HOp::SHPROBE))
      return false;
    unsigned Sz = encodedSizeFor(static_cast<HOp>(Op));
    if (Sz == 0 || Off + Sz > Bytes.size())
      return false;
    if (static_cast<HOp>(Op) == HOp::CALL)
      Slots.push_back(static_cast<uint32_t>(Off + 1)); // field follows opcode
    Off += Sz;
  }
  return true;
}

std::string hvm::toString(const HInstr &I) {
  char Buf[160];
  auto RN = [](RegId R) {
    static thread_local char N[4][16];
    static thread_local int Slot = 0;
    char *P = N[Slot];
    Slot = (Slot + 1) & 3;
    if (R == NoReg)
      std::snprintf(P, 16, "-");
    else if (isVirtual(R))
      std::snprintf(P, 16, "%%%%vr%u", R - VirtBase);
    else
      std::snprintf(P, 16, "h%u", R);
    return P;
  };
  switch (I.Op) {
  case HOp::LI:
    std::snprintf(Buf, sizeof(Buf), "li    %s, 0x%llx", RN(I.Dst),
                  static_cast<unsigned long long>(I.Imm));
    break;
  case HOp::MOV:
    std::snprintf(Buf, sizeof(Buf), "mov   %s, %s", RN(I.Dst), RN(I.A));
    break;
  case HOp::ALU:
    std::snprintf(Buf, sizeof(Buf), "%-5s %s, %s, %s", ir::opName(I.IrOp),
                  RN(I.Dst), RN(I.A), RN(I.B));
    break;
  case HOp::ALU1:
    std::snprintf(Buf, sizeof(Buf), "%-5s %s, %s", ir::opName(I.IrOp),
                  RN(I.Dst), RN(I.A));
    break;
  case HOp::ALUI:
  case HOp::ALUIS:
    std::snprintf(Buf, sizeof(Buf), "%-5s %s, %s, 0x%llx", ir::opName(I.IrOp),
                  RN(I.Dst), RN(I.A),
                  static_cast<unsigned long long>(I.Imm));
    break;
  case HOp::LDG:
    std::snprintf(Buf, sizeof(Buf), "ldg   %s, gst[%u], %u", RN(I.Dst), I.Off,
                  I.Size);
    break;
  case HOp::STG:
    std::snprintf(Buf, sizeof(Buf), "stg   gst[%u], %s, %u", I.Off, RN(I.A),
                  I.Size);
    break;
  case HOp::LDM:
    std::snprintf(Buf, sizeof(Buf), "ldm   %s, [%s%+d], %u", RN(I.Dst),
                  RN(I.A), I.Disp, I.Size);
    break;
  case HOp::STM:
    std::snprintf(Buf, sizeof(Buf), "stm   [%s%+d], %s, %u", RN(I.A), I.Disp,
                  RN(I.B), I.Size);
    break;
  case HOp::SEL:
    std::snprintf(Buf, sizeof(Buf), "sel   %s, %s, %s, %s", RN(I.Dst),
                  RN(I.A), RN(I.B), RN(I.C));
    break;
  case HOp::CALL:
    std::snprintf(Buf, sizeof(Buf), "call  %s = %s/%u", RN(I.Dst),
                  I.CalleeFn ? I.CalleeFn->Name : "?", I.NArgs);
    break;
  case HOp::JZ:
    std::snprintf(Buf, sizeof(Buf), "jz    %s, @%d", RN(I.A), I.Label);
    break;
  case HOp::EXITI:
    std::snprintf(Buf, sizeof(Buf), "exiti 0x%llx, %s",
                  static_cast<unsigned long long>(I.Imm),
                  ir::jumpKindName(static_cast<ir::JumpKind>(I.JKind)));
    break;
  case HOp::EXITR:
    std::snprintf(Buf, sizeof(Buf), "exitr %s, %s", RN(I.A),
                  ir::jumpKindName(static_cast<ir::JumpKind>(I.JKind)));
    break;
  case HOp::IMARK:
    std::snprintf(Buf, sizeof(Buf), "imark 0x%llx",
                  static_cast<unsigned long long>(I.Imm));
    break;
  case HOp::SPILL:
    std::snprintf(Buf, sizeof(Buf), "spill frame[%u], %s", I.Off, RN(I.A));
    break;
  case HOp::RELOAD:
    std::snprintf(Buf, sizeof(Buf), "reload %s, frame[%u]", RN(I.Dst), I.Off);
    break;
  case HOp::SHPROBE:
    if (I.Imm & 1)
      std::snprintf(Buf, sizeof(Buf), "shprobe.st%u %s, [%s], %s", I.Size,
                    RN(I.Dst), RN(I.A), RN(I.B));
    else
      std::snprintf(Buf, sizeof(Buf), "shprobe.ld%u %s, [%s]", I.Size,
                    RN(I.Dst), RN(I.A));
    break;
  }
  return Buf;
}
