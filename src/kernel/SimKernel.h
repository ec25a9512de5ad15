//===-- kernel/SimKernel.h - The simulated kernel ---------------*- C++ -*-==//
///
/// \file
/// The substrate standing in for the Linux kernel: ~20 system calls over an
/// in-memory virtual filesystem, guest memory (brk/mmap/munmap/mremap), a
/// virtual clock, and hooks into the core for threads and signals.
///
/// Every system call has a *wrapper* that knows exactly which registers and
/// memory ranges the call reads and writes, and fires the corresponding
/// Table 1 events (pre_reg_read, pre_mem_read{,_asciiz}, pre_mem_write,
/// post_mem_write, post_reg_write, new_mem_mmap, die_mem_munmap,
/// new_mem_brk, die_mem_brk, copy_mem_mremap) — the reproduction of
/// Valgrind's 15k lines of syscall wrappers (Section 3.12), scaled to this
/// kernel's surface.
///
/// The kernel serves both execution engines: under the DBI core (events
/// live, threads/signals via KernelHost) and under the reference
/// interpreter (null events/host — "native" runs).
///
//===----------------------------------------------------------------------===//
#ifndef VG_KERNEL_SIMKERNEL_H
#define VG_KERNEL_SIMKERNEL_H

#include "core/Events.h"
#include "guest/RefInterp.h"
#include "kernel/AddressSpace.h"
#include "support/FaultInject.h"

#include <map>
#include <string>
#include <vector>

namespace vg {

/// Syscall numbers (the guest ABI: number in r0, args in r1..r5, result to
/// r0; errors return 0xFFFFFFFF).
enum Syscalls : uint32_t {
  SysExit = 1,
  SysWrite = 2,
  SysRead = 3,
  SysOpen = 4,
  SysClose = 5,
  SysBrk = 6,
  SysMmap = 7,
  SysMunmap = 8,
  SysMremap = 9,
  SysGettimeofday = 10,
  SysSettimeofday = 11,
  SysGetpid = 12,
  SysKill = 13,
  SysSigaction = 14,
  SysSigreturn = 15,
  SysClone = 16,
  SysExitThread = 17,
  SysYield = 18,
  SysNanosleep = 19,
  SysTime = 20,
  SysFsize = 21,
  SysMprotect = 22,
};

constexpr uint32_t SysErr = 0xFFFFFFFFu;

/// Services only the DBI core can provide (threads, signals, scheduling).
/// Null for "native" runs: the affected syscalls then fail cleanly.
class KernelHost {
public:
  virtual ~KernelHost() = default;
  virtual int spawnThread(uint32_t Entry, uint32_t SP, uint32_t Arg) = 0;
  virtual void exitThread(int Tid, int Code) = 0;
  virtual void setSignalHandler(int Sig, uint32_t Handler) = 0;
  virtual uint32_t signalHandler(int Sig) const = 0;
  virtual bool raiseSignal(int Tid, int Sig) = 0;
  virtual void sigreturn(int Tid) = 0;
  virtual void requestYield(int Tid) = 0;
};

/// The simulated kernel.
class SimKernel : public vg1::SyscallSink {
public:
  SimKernel(AddressSpace &AS, EventHub *Events = nullptr,
            KernelHost *Host = nullptr)
      : AS(AS), Events(Events), Host(Host) {
    Fds.resize(3); // 0 stdin, 1 stdout, 2 stderr
    Fds[0] = OpenFd{FdKind::Stdin, "", 0, true};
    Fds[1] = OpenFd{FdKind::Stdout, "", 0, true};
    Fds[2] = OpenFd{FdKind::Stderr, "", 0, true};
  }

  /// Handles one SYS instruction. Returns Exit for SysExit.
  Action onSyscall(CpuView &Cpu) override;

  /// Installs (or clears) the --fault-inject plan. The kernel consults it
  /// at its decision points: fallible-syscall entry (error return without
  /// running the wrapper), read/write lengths (short transfers),
  /// brk/mmap/mremap (exhaustion), and nanosleep/yield (spurious wakeups).
  void setFaultPlan(FaultPlan *P) { Faults = P; }

  // --- host-visible state (tests, harnesses) -----------------------------
  std::string stdoutText() const { return StdoutBuf; }
  std::string stderrText() const { return StderrBuf; }
  void provideStdin(const std::string &S) {
    StdinBuf.assign(S.begin(), S.end());
  }
  const std::vector<uint8_t> *file(const std::string &Name) const {
    auto It = Files.find(Name);
    return It == Files.end() ? nullptr : &It->second;
  }
  int exitCode() const { return TheExitCode; }
  uint64_t virtualTimeUsec() const { return ClockUsec; }
  uint64_t syscallCount() const { return NumSyscalls; }

private:
  enum class FdKind { Closed, Stdin, Stdout, Stderr, File };
  struct OpenFd {
    FdKind Kind = FdKind::Closed;
    std::string Name;
    uint32_t Pos = 0;
    bool Open = false;
    bool Writable = false;
  };

  // Individual syscall implementations (the "wrappers").
  uint32_t doWrite(CpuView &Cpu);
  uint32_t doRead(CpuView &Cpu);
  uint32_t doOpen(CpuView &Cpu);
  uint32_t doClose(CpuView &Cpu);
  uint32_t doBrk(CpuView &Cpu);
  uint32_t doMmap(CpuView &Cpu);
  uint32_t doMunmap(CpuView &Cpu);
  uint32_t doMremap(CpuView &Cpu);
  uint32_t doMprotect(CpuView &Cpu);
  uint32_t doGettimeofday(CpuView &Cpu);
  uint32_t doSettimeofday(CpuView &Cpu);
  uint32_t doKill(CpuView &Cpu);
  uint32_t doSigaction(CpuView &Cpu);
  uint32_t doClone(CpuView &Cpu);
  uint32_t doFsize(CpuView &Cpu);

  // Event-firing helpers (no-ops when Events is null).
  void preRegRead(int Tid, unsigned Reg, const char *Name);
  void postRegWrite(int Tid, unsigned Reg);
  void preMemRead(int Tid, uint32_t Addr, uint32_t Len, const char *Name);
  void preMemReadAsciiz(int Tid, uint32_t Addr, const char *Name);
  void preMemWrite(int Tid, uint32_t Addr, uint32_t Len, const char *Name);
  void postMemWrite(int Tid, uint32_t Addr, uint32_t Len);
  void faultInjected(int Tid, FaultKind K, uint32_t Arg);

  std::string readGuestString(CpuView &Cpu, uint32_t Addr);

  AddressSpace &AS;
  EventHub *Events;
  KernelHost *Host;
  FaultPlan *Faults = nullptr;

  std::map<std::string, std::vector<uint8_t>> Files;
  std::vector<OpenFd> Fds;
  std::vector<uint8_t> StdinBuf;
  uint32_t StdinPos = 0;
  std::string StdoutBuf, StderrBuf;

  uint64_t ClockUsec = 1'200'000'000ull * 1'000'000; // an arbitrary epoch
  int TheExitCode = 0;
  uint64_t NumSyscalls = 0;
  int NextPid = 1000;
};

} // namespace vg

#endif // VG_KERNEL_SIMKERNEL_H
