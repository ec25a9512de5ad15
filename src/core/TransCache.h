//===-- core/TransCache.h - Persistent translation cache --------*- C++ -*-==//
///
/// \file
/// The on-disk translation cache behind --tt-cache=<dir>: finished
/// translations are serialized one file per entry, keyed by (guest
/// code-byte hash, tool id, option fingerprint, format version), so a
/// later run of the same binary under the same configuration can install
/// host code without paying the eight-phase pipeline again.
///
/// Safety is by construction, not by trust in the directory contents:
///
///  - The cache key includes a hash of the live guest bytes at the entry
///    PC, and a loaded entry is only ever installed after a
///    hashLive(Extents) == CodeHash check — different code at the same
///    address can never be served.
///  - Encoded blobs embed raw host Callee pointers (HOp::CALL), which are
///    meaningless across processes. store() rewrites every callee field
///    into an index into a serialized name table; load() resolves the
///    names back through the ir callee registry. A file therefore never
///    contains a host pointer, and an unresolvable name rejects the entry.
///  - Translations whose blob is position-dependent (the SMC-check
///    prelude embeds the owning Translation's address) are never stored;
///    see Translation::Cacheable.
///  - Every entry carries a whole-payload FNV-1a checksum. Truncated,
///    bit-flipped, or otherwise malformed files are reported as Malformed
///    (counted as CacheRejects by the service) and fall through to the
///    normal pipeline — never a crash, never garbage host code.
///  - Writes go to a temporary file and are renamed into place, so a
///    crashed writer leaves no half-written entry under the real name.
///
/// Same-run invalidation (redirects, munmap, ttflush — meaning changes
/// even when bytes do not) is handled by an in-memory poison-range set:
/// the service routes every invalidateRange through poison(), and a hit
/// whose extents intersect a poisoned range is rejected for the rest of
/// the run. On-disk entries are content-keyed, so they need no versioning
/// across runs: a future run installs its own redirects and re-poisons.
///
/// All methods run at dispatch boundaries under the big lock, like the
/// rest of the translation service.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_TRANSCACHE_H
#define VG_CORE_TRANSCACHE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vg {

/// Bump on any change to the entry layout or to anything that alters
/// generated code without being captured by the option fingerprint.
constexpr uint32_t TransCacheFormatVersion = 2;

/// One translation in its process-independent form. Bytes hold callee
/// *name indexes* on disk; load() returns them patched back to live
/// pointers, ready for CodeBlob::Bytes.
struct TransCacheEntry {
  uint32_t Addr = 0;
  uint32_t NumInsns = 0;
  uint64_t CodeHash = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Extents;
  uint32_t NumSpillSlots = 0;
  uint32_t NumChainSlots = 0;
  std::vector<uint32_t> ChainTargets;
  std::vector<uint8_t> Bytes;
};

class TransCache {
public:
  enum class LoadResult {
    NotFound,  ///< no entry under that key (a plain miss)
    Malformed, ///< entry exists but failed validation (a reject)
    Found,     ///< decoded and callee-resolved; caller still live-hash checks
  };

  /// \p Dir is created if missing. \p MaxBytes bounds the directory's
  /// total entry size (0 = unbounded); the oldest entries are evicted to
  /// make room. \p ConfigHash folds tool id, option fingerprint, and
  /// format version — entries from other configurations are invisible.
  TransCache(std::string Dir, uint64_t MaxBytes, uint64_t ConfigHash);

  /// The lookup key for the baseline block at \p PC whose guest code
  /// starts with bytes hashing to \p PrefixHash. The prefix hash only
  /// affects the hit rate, never correctness: a colliding entry either
  /// covers identical guest bytes (and is the correct, deterministic
  /// pipeline output for them) or fails the caller's live-hash check.
  static uint64_t entryKey(uint32_t PC, uint64_t PrefixHash);

  /// Fingerprint for the run configuration. \p Options are (name, value)
  /// pairs of every option that can influence generated code.
  static uint64_t configHash(
      const std::string &ToolId,
      const std::vector<std::pair<std::string, std::string>> &Options);

  LoadResult load(uint64_t Key, TransCacheEntry &Out);

  /// Serializes \p E under \p Key. Returns false when the entry cannot be
  /// made position-independent (undecodable bytes, a callee with no
  /// registered name) or the write failed; the run simply continues
  /// without persisting that translation.
  bool store(uint64_t Key, const TransCacheEntry &E);

  /// Marks [Addr, Addr+Len) semantically invalid for the rest of this
  /// run: redirects and unmaps change what an address *means* without
  /// changing its bytes, so the content checks cannot catch them.
  void poison(uint32_t Addr, uint32_t Len);
  /// Marks the entire guest space invalid for the rest of this run (a full
  /// TT flush). A dedicated whole-space flag rather than poison(0, ~0u):
  /// a 32-bit length cannot express the full 4GB, so a range-based
  /// encoding would always exclude the final guest byte 0xFFFFFFFF.
  void poisonAll();
  bool poisoned(
      const std::vector<std::pair<uint32_t, uint32_t>> &Extents) const;

  /// The file an entry under \p Key lives in (tests inject corruption
  /// through this).
  std::string entryPath(uint64_t Key) const;

  const std::string &dir() const { return Dir; }
  uint64_t totalBytes() const { return TotalBytes; }
  uint64_t evictedFiles() const { return EvictedFiles; }
  uint64_t writeFailures() const { return WriteFailures; }

private:
  /// Atomically publishes an encoded file image under \p Key, honouring
  /// the size budget.
  bool publish(uint64_t Key, const std::vector<uint8_t> &File);
  void evictToFit(uint64_t NeedBytes);

  std::string Dir;
  uint64_t MaxBytes = 0;
  uint64_t ConfigHash = 0;
  uint64_t TotalBytes = 0; ///< current on-disk usage of this config's entries
  uint64_t EvictedFiles = 0;
  uint64_t WriteFailures = 0;
  /// Same-run semantic invalidation: [lo, hi) ranges, hi 64-bit so a
  /// range reaching the top of the guest space covers byte 0xFFFFFFFF
  /// (hi == 2^32) instead of being clipped one byte short.
  std::vector<std::pair<uint32_t, uint64_t>> PoisonRanges;
  bool PoisonedAll = false; ///< whole-space poison (full TT flush)
};

} // namespace vg

#endif // VG_CORE_TRANSCACHE_H
