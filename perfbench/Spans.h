//===-- perfbench/Spans.h - In-memory span recorder -------------*- C++ -*-==//
///
/// \file
/// The traced run's span log. A span is (id, parent, name, start, end):
/// the benchmark opens one around each call it makes into a module's
/// public functions, the log keeps them in memory, and they are written
/// out once the run ends. A layer's self time is its spans' durations
/// minus the part their child spans cover.
///
/// The log is single-threaded: every span comes from the thread that
/// drives the benchmark (translation and tool instrumentation run on that
/// thread under the serial scheduler the traced configurations use).
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

class SpanLog {
public:
  struct Span {
    uint32_t Id = 0;
    uint32_t Parent = 0; ///< 0 = a root span
    const char *Name = "";
    double Start = 0, End = 0;
  };

  uint32_t open(const char *Name) {
    Span S;
    S.Id = static_cast<uint32_t>(Spans.size()) + 1;
    S.Parent = Open.empty() ? 0 : Open.back();
    S.Name = Name;
    S.Start = now();
    Spans.push_back(S);
    Open.push_back(S.Id);
    return S.Id;
  }

  void close(uint32_t Id) {
    Spans[Id - 1].End = now();
    Open.pop_back();
  }

  size_t size() const { return Spans.size(); }

  /// Self time per span name: each span's duration minus its children's.
  std::map<std::string, double> selfTimes() const {
    std::vector<double> Self(Spans.size());
    for (const Span &S : Spans)
      Self[S.Id - 1] += S.End - S.Start;
    for (const Span &S : Spans)
      if (S.Parent)
        Self[S.Parent - 1] -= S.End - S.Start;
    std::map<std::string, double> Out;
    for (const Span &S : Spans)
      Out[S.Name] += Self[S.Id - 1];
    return Out;
  }

  /// Writes one JSON object per line; times are seconds from the first
  /// span's start. Returns false if the file cannot be written.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    double T0 = Spans.empty() ? 0 : Spans.front().Start;
    for (const Span &S : Spans)
      std::fprintf(F,
                   "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                   "\"start\": %.9f, \"end\": %.9f}\n",
                   S.Id, S.Parent, S.Name, S.Start - T0, S.End - T0);
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name)
      : Log(Log), Id(Log ? Log->open(Name) : 0) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
  uint32_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
