//===-- support/EventTrace.cpp - Scheduler/signal/event tracing -----------==//

#include "support/EventTrace.h"

#include "support/Output.h"

#include <cstdio>

using namespace vg;

const char *vg::traceEventName(TraceEvent E) {
  switch (E) {
  case TraceEvent::PreRegRead:
    return "pre-reg-read";
  case TraceEvent::PostRegWrite:
    return "post-reg-write";
  case TraceEvent::PreMemRead:
    return "pre-mem-read";
  case TraceEvent::PreMemReadAsciiz:
    return "pre-mem-read-asciiz";
  case TraceEvent::PreMemWrite:
    return "pre-mem-write";
  case TraceEvent::PostMemWrite:
    return "post-mem-write";
  case TraceEvent::NewMemStartup:
    return "new-mem-startup";
  case TraceEvent::NewMemMmap:
    return "new-mem-mmap";
  case TraceEvent::DieMemMunmap:
    return "die-mem-munmap";
  case TraceEvent::NewMemBrk:
    return "new-mem-brk";
  case TraceEvent::DieMemBrk:
    return "die-mem-brk";
  case TraceEvent::CopyMemMremap:
    return "copy-mem-mremap";
  case TraceEvent::NewMemStack:
    return "new-mem-stack";
  case TraceEvent::DieMemStack:
    return "die-mem-stack";
  case TraceEvent::PostFileRead:
    return "post-file-read";
  case TraceEvent::SyscallEnter:
    return "syscall-enter";
  case TraceEvent::SyscallExit:
    return "syscall-exit";
  case TraceEvent::SigQueue:
    return "sig-queue";
  case TraceEvent::SigDrop:
    return "sig-drop";
  case TraceEvent::SigDeliver:
    return "sig-deliver";
  case TraceEvent::SigReturn:
    return "sig-return";
  case TraceEvent::SigFatal:
    return "sig-fatal";
  case TraceEvent::ThreadSwitch:
    return "thread-switch";
  case TraceEvent::ThreadExit:
    return "thread-exit";
  case TraceEvent::FaultInjected:
    return "fault-injected";
  case TraceEvent::NumEvents:
    break;
  }
  return "?";
}

EventTracer::EventTracer(size_t Capacity) {
  Ring.resize(Capacity ? Capacity : 1);
}

void EventTracer::record(int Tid, TraceEvent E, uint32_t A, uint32_t B,
                         uint32_t C) {
  std::lock_guard<std::mutex> L(Mu);
  Record &R = Ring[Recorded % Ring.size()];
  R.Block = Clock ? Clock->load(std::memory_order_relaxed) : 0;
  R.Tid = Tid;
  R.E = E;
  R.A = A;
  R.B = B;
  R.C = C;
  ++Recorded;
  ++Counts[static_cast<unsigned>(E)];
}

std::string EventTracer::serialize() const {
  std::string S;
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "=== event trace (records=%llu dropped=%llu) ===\n",
                static_cast<unsigned long long>(Recorded),
                static_cast<unsigned long long>(dropped()));
  S += Line;

  uint64_t Kept = Recorded < Ring.size() ? Recorded : Ring.size();
  uint64_t First = Recorded - Kept;
  for (uint64_t I = 0; I != Kept; ++I) {
    const Record &R = Ring[(First + I) % Ring.size()];
    std::snprintf(Line, sizeof(Line),
                  "@%010llu t%d %s a=0x%x b=0x%x c=0x%x\n",
                  static_cast<unsigned long long>(R.Block), R.Tid,
                  traceEventName(R.E), R.A, R.B, R.C);
    S += Line;
  }

  S += "--- event counts ---\n";
  for (unsigned I = 0; I != NumTraceEvents; ++I) {
    if (Counts[I] == 0)
      continue;
    std::snprintf(Line, sizeof(Line), "%-20s %llu\n",
                  traceEventName(static_cast<TraceEvent>(I)),
                  static_cast<unsigned long long>(Counts[I]));
    S += Line;
  }
  S += "=== end event trace ===\n";
  return S;
}

void EventTracer::dump(OutputSink &Out) const { Out.write(serialize()); }
