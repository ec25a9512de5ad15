//===-- support/Options.h - Command-line option handling --------*- C++ -*-==//
///
/// \file
/// A small option registry mirroring Valgrind's two-level command line:
/// the core owns options such as --tool=, --smc-check=, --chaining= and
/// --stack-switch-threshold=, and each tool plug-in may register its own
/// (e.g. Memcheck's --leak-check=). Options are "--name=value" strings;
/// bool options also accept bare "--name" as true.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_OPTIONS_H
#define VG_SUPPORT_OPTIONS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vg {

/// Option table: registration, parsing, and typed lookup.
class OptionRegistry {
public:
  /// Registers an option with a default value and a help string.
  void addOption(const std::string &Name, const std::string &Default,
                 const std::string &Help);

  /// Parses "--name=value" / "--name" strings. Unknown options are collected
  /// into the returned list rather than being fatal, so the caller (core)
  /// can report them all at once.
  std::vector<std::string> parse(const std::vector<std::string> &Args);

  bool has(const std::string &Name) const;
  std::string getString(const std::string &Name) const;
  int64_t getInt(const std::string &Name) const;
  /// getInt with hard validation: the value must parse completely as an
  /// integer and lie in [Lo, Hi]; anything else (--sched-threads=abc,
  /// --hot-threshold=-1) is a usage error naming the option, the
  /// offending value, and the accepted range. The predecessor of this API
  /// silently clamped, which turned typos into surprising-but-running
  /// configurations.
  int64_t getIntChecked(const std::string &Name, int64_t Lo, int64_t Hi) const;
  bool getBool(const std::string &Name) const;

  /// Every registered option as (name, value) pairs, in name order. The
  /// persistent translation cache fingerprints these.
  std::vector<std::pair<std::string, std::string>> items() const;

  /// Renders the registered options and help strings (for --help output).
  std::string helpText() const;

private:
  struct Entry {
    std::string Value;
    std::string Default;
    std::string Help;
  };
  std::map<std::string, Entry> Entries;
};

} // namespace vg

#endif // VG_SUPPORT_OPTIONS_H
