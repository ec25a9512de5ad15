//===-- tests/TransCacheTests.cpp - Persistent translation cache ----------==//
///
/// \file
/// Tests for the --tt-cache subsystem: key/fingerprint derivation, the
/// serialize -> deserialize -> install round trip at the service level,
/// rejection of stale/poisoned/corrupt entries (truncations and bit flips
/// must be misses, never crashes, never garbage installs), size-budget
/// eviction, the hard option-validation errors, and end-to-end cold/warm
/// equivalence under a full Core. Concurrent writers racing on one key are
/// the ThreadSanitizer target of the `concurrency` ctest label.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "core/TransCache.h"
#include "core/TranslationService.h"
#include "guestlib/GuestLib.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

using namespace vg;
using namespace vg::vg1;

namespace {

namespace fs = std::filesystem;

/// Fresh per-test cache directory, removed on scope exit.
struct ScratchDir {
  fs::path Path;
  ScratchDir() {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("vgttc-test-" + std::to_string(getpid()) + "-" +
            std::to_string(Counter++));
    fs::remove_all(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

//===----------------------------------------------------------------------===//
// Keys and fingerprints
//===----------------------------------------------------------------------===//

TEST(TransCache, EntryKeyIsContentSensitive) {
  uint64_t K = TransCache::entryKey(0x1000, 0xABCD);
  EXPECT_EQ(K, TransCache::entryKey(0x1000, 0xABCD));
  EXPECT_NE(K, TransCache::entryKey(0x1004, 0xABCD));
  EXPECT_NE(K, TransCache::entryKey(0x1000, 0xABCE));
}

TEST(TransCache, ConfigHashCoversToolAndOptions) {
  std::vector<std::pair<std::string, std::string>> A = {{"chaining", "yes"}};
  std::vector<std::pair<std::string, std::string>> B = {{"chaining", "no"}};
  uint64_t HA = TransCache::configHash("nulgrind", A);
  EXPECT_EQ(HA, TransCache::configHash("nulgrind", A));
  EXPECT_NE(HA, TransCache::configHash("memcheck", A));
  EXPECT_NE(HA, TransCache::configHash("nulgrind", B));
}

//===----------------------------------------------------------------------===//
// Service-level round trip (no full Core)
//===----------------------------------------------------------------------===//

constexpr uint32_t CodeBase = 0x1000;

/// Stub host that marks every translation cacheable (the real Core does
/// this for all blocks without an SMC prelude).
struct CacheStubHost : TranslationHost {
  unsigned Notes = 0;
  void setupTranslation(TranslationOptions &, uint32_t,
                        Translation *Raw) override {
    Raw->Cacheable = true;
  }
  void noteTranslation(uint32_t, const Translation &, double) override {
    ++Notes;
  }
};

/// A bank of tiny blocks plus a service with a cache attached to \p Dir.
struct CacheFixture {
  GuestMemory Mem;
  CacheStubHost Host;
  TranslationService XS;
  std::vector<uint32_t> Blocks;

  explicit CacheFixture(const std::string &Dir, uint64_t MaxBytes = 0,
                        unsigned NBlocks = 4)
      : XS(Host, Mem) {
    Assembler Code(CodeBase);
    for (unsigned I = 0; I != NBlocks; ++I) {
      Blocks.push_back(Code.here());
      Code.movi(Reg::R0, I);
      Code.ret();
    }
    GuestImage Img = GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(), static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
    XS.attachCache(std::make_unique<TransCache>(Dir, MaxBytes, /*CH=*/1));
  }
};

TEST(TransCache, StoreThenLoadRoundTripInstalls) {
  ScratchDir Dir;
  uint64_t CodeHash, NumInsns;
  {
    CacheFixture Cold(Dir.str());
    Translation *T = Cold.XS.translateSync(Cold.Blocks[0]);
    ASSERT_NE(T, nullptr);
    CodeHash = T->CodeHash;
    NumInsns = T->NumInsns;
    EXPECT_EQ(Cold.XS.jitStats().CacheMisses, 1u);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 1u);
    EXPECT_EQ(Cold.XS.jitStats().CacheHits, 0u);
  }
  CacheFixture Warm(Dir.str());
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0]);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 1u);
  EXPECT_EQ(Warm.XS.jitStats().CacheMisses, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheWrites, 0u); // hits are not re-written
  // The deserialized translation is the real thing, installed and
  // accounted like a pipeline product.
  EXPECT_EQ(T->CodeHash, CodeHash);
  EXPECT_EQ(T->NumInsns, NumInsns);
  EXPECT_EQ(Warm.XS.transTab().find(Warm.Blocks[0]), T);
  EXPECT_EQ(Warm.Host.Notes, 1u);
}

TEST(TransCache, ChangedGuestBytesRejectEntry) {
  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0]);
  }
  CacheFixture Warm(Dir.str());
  // Same addresses, different code: patch the first block's immediate.
  // The key's prefix hash changes with the bytes, so this is a plain miss;
  // the stale entry must never be installed.
  uint32_t Clobber = 0x00FFu;
  Warm.Mem.write(Warm.Blocks[0] + 1, &Clobber, 2, /*IgnorePerms=*/true);
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0]);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheMisses +
                Warm.XS.jitStats().CacheRejects,
            1u);
}

TEST(TransCache, PoisonedRangeBlocksLoadAndStore) {
  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0]);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 1u);
  }
  CacheFixture Warm(Dir.str());
  // A redirect-style invalidation changes what the address *means* without
  // changing its bytes: the on-disk entry must be refused for the rest of
  // this run, and the retranslation must not be written back over it.
  Warm.XS.invalidate(Warm.Blocks[0], 4);
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0]);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheRejects, 1u);
  EXPECT_EQ(Warm.XS.jitStats().CacheWrites, 0u);
  // A non-overlapping block is unaffected.
  Warm.XS.translateSync(Warm.Blocks[1]);
  EXPECT_EQ(Warm.XS.jitStats().CacheWrites, 1u);
}

//===----------------------------------------------------------------------===//
// Corruption: truncations and bit flips are misses, never crashes
//===----------------------------------------------------------------------===//

TEST(TransCache, TruncatedEntryIsRejectedNotCrash) {
  ScratchDir Dir;
  uint64_t Key;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0]);
    Key = TransCache::entryKey(
        Cold.Blocks[0],
        [&] {
          // Recompute the prefix hash the way the service does: FNV-1a over
          // the live bytes (both blocks fit comfortably in the window).
          uint64_t H = 0xcbf29ce484222325ull;
          for (uint32_t I = 0; I != 64; ++I) {
            uint8_t B = 0;
            if (Cold.Mem.read(Cold.Blocks[0] + I, &B, 1,
                              /*IgnorePerms=*/true)
                    .Faulted)
              break;
            H = (H ^ B) * 0x100000001b3ull;
          }
          return H;
        }());
    std::string Path = Cold.XS.cache()->entryPath(Key);
    ASSERT_TRUE(fs::exists(Path));
    // Chop the file mid-payload.
    fs::resize_file(Path, fs::file_size(Path) / 2);
  }
  CacheFixture Warm(Dir.str());
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0]);
  ASSERT_NE(T, nullptr); // pipeline fallback, correct translation
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheRejects, 1u);
}

TEST(TransCache, BitFlippedEntriesAreRejectedNotCrash) {
  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str(), 0, /*NBlocks=*/4);
    for (uint32_t PC : Cold.Blocks)
      Cold.XS.translateSync(PC);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 4u);
  }
  // Flip one byte at a different offset in every cached file: header,
  // payload, and checksum corruption are all covered across the set.
  unsigned N = 0;
  for (const auto &DE : fs::directory_iterator(Dir.Path)) {
    std::fstream F(DE.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    uint64_t Size = fs::file_size(DE.path());
    uint64_t Off = (N * 13 + 3) % Size;
    F.seekg(static_cast<std::streamoff>(Off));
    char C = 0;
    F.get(C);
    F.seekp(static_cast<std::streamoff>(Off));
    F.put(static_cast<char>(C ^ 0x40));
    ++N;
  }
  ASSERT_EQ(N, 4u);
  CacheFixture Warm(Dir.str());
  for (uint32_t PC : Warm.Blocks)
    ASSERT_NE(Warm.XS.translateSync(PC), nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  // Every corrupted entry was detected (reject) or its key no longer
  // matched its filename (miss); either way nothing installed from disk.
  EXPECT_EQ(Warm.XS.jitStats().CacheMisses +
                Warm.XS.jitStats().CacheRejects,
            4u);
  EXPECT_GT(Warm.XS.jitStats().CacheRejects, 0u);
}

TEST(TransCache, GarbageFilesInDirAreIgnored) {
  ScratchDir Dir;
  fs::create_directories(Dir.Path);
  std::ofstream(Dir.Path / "junk.vgtc") << "not a cache entry";
  std::ofstream(Dir.Path / "README.txt") << "hello";
  CacheFixture F(Dir.str());
  Translation *T = F.XS.translateSync(F.Blocks[0]);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(F.XS.jitStats().CacheHits, 0u);
}

// A zero-length entry file — what a writer killed between open and first
// write leaves behind — must be Malformed (a reject), never a hit
// candidate and never a crash. Pinned both at the load layer and through
// the full service path.
TEST(TransCache, ZeroLengthEntryIsMalformed) {
  {
    ScratchDir Dir;
    TransCache C(Dir.str(), 0, /*ConfigHash=*/1);
    std::ofstream(C.entryPath(/*Key=*/2), std::ios::binary).flush();
    TransCacheEntry E;
    EXPECT_EQ(C.load(/*Key=*/2, E), TransCache::LoadResult::Malformed);
  }

  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0]);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 1u);
  }
  unsigned N = 0;
  for (const auto &DE : fs::directory_iterator(Dir.Path)) {
    fs::resize_file(DE.path(), 0);
    ++N;
  }
  ASSERT_EQ(N, 1u);
  CacheFixture Warm(Dir.str());
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0]);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheRejects, 1u);
}

// An entry written by an older build — format version 1, whose payload
// still carried a tier byte — must be a reject: counted in CacheRejects,
// never installed, and the pipeline translates the block afresh. The file
// sits under the current key and config hash, so only the version field
// tells it apart.
TEST(TransCache, OldFormatVersionEntryIsRejected) {
  ScratchDir Dir;
  {
    CacheFixture Cold(Dir.str());
    Cold.XS.translateSync(Cold.Blocks[0]);
    EXPECT_EQ(Cold.XS.jitStats().CacheWrites, 1u);
  }
  // Header: magic[4] version:u32 config:u64 key:u64 len:u32 fnv:u64.
  constexpr size_t VersionOff = 4, LenOff = 24, SumOff = 28, PayloadOff = 36;
  auto PutLE = [](std::vector<uint8_t> &B, size_t Off, uint64_t V,
                  unsigned N) {
    for (unsigned I = 0; I != N; ++I)
      B[Off + I] = static_cast<uint8_t>(V >> (8 * I));
  };
  unsigned N = 0;
  for (const auto &DE : fs::directory_iterator(Dir.Path)) {
    std::ifstream In(DE.path(), std::ios::binary);
    std::vector<uint8_t> File((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
    In.close();
    ASSERT_GT(File.size(), PayloadOff + 4);
    ASSERT_EQ(File[VersionOff], TransCacheFormatVersion);
    // Re-insert the version-1 tier byte after the payload's address and
    // reseal the payload length and checksum, so the file is a well-formed
    // version-1 entry rather than a corrupt version-2 one.
    File.insert(File.begin() + PayloadOff + 4, uint8_t{0});
    uint64_t Sum = 0xcbf29ce484222325ull;
    for (size_t I = PayloadOff; I != File.size(); ++I)
      Sum = (Sum ^ File[I]) * 0x100000001b3ull;
    PutLE(File, VersionOff, 1, 4);
    PutLE(File, LenOff, File.size() - PayloadOff, 4);
    PutLE(File, SumOff, Sum, 8);
    std::ofstream(DE.path(), std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char *>(File.data()),
               static_cast<std::streamsize>(File.size()));
    ++N;
  }
  ASSERT_EQ(N, 1u);
  CacheFixture Warm(Dir.str());
  Translation *T = Warm.XS.translateSync(Warm.Blocks[0]);
  ASSERT_NE(T, nullptr); // the pipeline's translation
  EXPECT_EQ(Warm.XS.transTab().find(Warm.Blocks[0]), T);
  EXPECT_EQ(Warm.XS.jitStats().CacheHits, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheMisses, 0u);
  EXPECT_EQ(Warm.XS.jitStats().CacheRejects, 1u);
  EXPECT_EQ(Warm.Host.Notes, 1u);
}

//===----------------------------------------------------------------------===//
// Two writers, one key: temp-file+rename must never publish a torn entry
//===----------------------------------------------------------------------===//

// Two cache instances (standing in for two processes racing on a shared
// --tt-cache directory) hammer the SAME key with entries of different
// sizes while a reader polls it. Every observation must be one complete
// entry — a shared temp-file name would let the writers interleave and
// rename a torn mix into place, which the whole-payload checksum then
// exposes as Malformed.
TEST(TransCacheConcurrency, TwoWritersSameKeyNeverTearAnEntry) {
  // Two valid entries of different lengths, made by translating blocks of
  // different instruction counts through a cold service run and loading
  // them back.
  ScratchDir SrcDir;
  std::vector<TransCacheEntry> Entries;
  {
    GuestMemory Mem;
    CacheStubHost Host;
    TranslationService XS(Host, Mem);
    Assembler Code(CodeBase);
    std::vector<uint32_t> Blocks;
    for (unsigned I = 0; I != 2; ++I) {
      Blocks.push_back(Code.here());
      for (unsigned K = 0; K != 1 + 8 * I; ++K)
        Code.movi(Reg::R0, K);
      Code.ret();
    }
    GuestImage Img = GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(), static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
    XS.attachCache(std::make_unique<TransCache>(SrcDir.str(), 0, /*CH=*/1));
    for (uint32_t PC : Blocks)
      XS.translateSync(PC);
    TransCache Src(SrcDir.str(), 0, /*ConfigHash=*/1);
    for (const auto &DE : fs::directory_iterator(SrcDir.Path)) {
      std::string Stem = DE.path().stem().string();
      ASSERT_EQ(Stem.size(), 33u);
      uint64_t Key = std::strtoull(Stem.substr(17).c_str(), nullptr, 16);
      TransCacheEntry E;
      ASSERT_EQ(Src.load(Key, E), TransCache::LoadResult::Found);
      Entries.push_back(std::move(E));
    }
  }
  ASSERT_EQ(Entries.size(), 2u);
  ASSERT_NE(Entries[0].Bytes.size(), Entries[1].Bytes.size());

  ScratchDir Dir;
  constexpr uint64_t SharedKey = 0x5EED;
  constexpr int Rounds = 300;
  std::atomic<bool> WritersDone{false};
  std::atomic<int> Torn{0};
  auto writer = [&](const TransCacheEntry &E) {
    TransCache C(Dir.str(), 0, /*ConfigHash=*/1);
    for (int R = 0; R != Rounds; ++R)
      ASSERT_TRUE(C.store(SharedKey, E));
  };
  TransCache ReaderCache(Dir.str(), 0, /*ConfigHash=*/1);
  std::thread W1(writer, std::cref(Entries[0]));
  std::thread W2(writer, std::cref(Entries[1]));
  std::thread Reader([&] {
    while (!WritersDone.load(std::memory_order_acquire)) {
      // Whichever writer's rename won, the file must be one of the two
      // complete entries (NotFound: nothing published yet).
      TransCacheEntry E;
      TransCache::LoadResult R = ReaderCache.load(SharedKey, E);
      if (R == TransCache::LoadResult::NotFound)
        continue;
      if (R != TransCache::LoadResult::Found ||
          (E.Bytes != Entries[0].Bytes && E.Bytes != Entries[1].Bytes))
        Torn.fetch_add(1);
    }
  });
  W1.join();
  W2.join();
  WritersDone.store(true, std::memory_order_release);
  Reader.join();
  EXPECT_EQ(Torn.load(), 0) << "a reader observed a torn/mixed entry";
  // Every unique temp file was consumed by its rename.
  for (const auto &DE : fs::directory_iterator(Dir.Path))
    EXPECT_EQ(DE.path().extension(), ".vgtc")
        << "leftover temp file: " << DE.path();
}

//===----------------------------------------------------------------------===//
// Size budget
//===----------------------------------------------------------------------===//

// Eviction is oldest-mtime-first, not insertion- or directory-order:
// stamp the files with a fake clock (explicit last_write_time values in
// reverse creation order) and check the stamped-oldest files are the ones
// that go when a new store pushes the directory over budget.
TEST(TransCache, StaleMtimeEvictionUnderFakeClock) {
  ScratchDir Dir;
  uint64_t OneEntry;
  {
    CacheFixture Warm(Dir.str(), 0, /*NBlocks=*/4);
    for (uint32_t PC : Warm.Blocks)
      Warm.XS.translateSync(PC);
    ASSERT_EQ(Warm.XS.jitStats().CacheWrites, 4u);
    OneEntry = Warm.XS.cache()->totalBytes() / 4;
  }
  // Fake clock: sort by name, stamp [0] stalest, [3] freshest — an order
  // deliberately unrelated to when the files were actually written.
  std::vector<fs::path> Files;
  for (const auto &DE : fs::directory_iterator(Dir.Path))
    Files.push_back(DE.path());
  ASSERT_EQ(Files.size(), 4u);
  std::sort(Files.begin(), Files.end());
  fs::file_time_type Now = fs::file_time_type::clock::now();
  for (size_t I = 0; I != Files.size(); ++I)
    fs::last_write_time(Files[I],
                        Now - std::chrono::hours(24 * (4 - I)));
  // Reopen with room for ~3 entries and store a fifth block: the budget
  // forces eviction, which must pick the stamped-stalest files first.
  {
    GuestMemory Mem;
    CacheStubHost Host;
    TranslationService XS(Host, Mem);
    std::vector<uint32_t> Blocks;
    Assembler Code(CodeBase);
    for (unsigned I = 0; I != 5; ++I) {
      Blocks.push_back(Code.here());
      Code.movi(Reg::R0, I);
      Code.ret();
    }
    uint32_t FifthPC = Blocks[4];
    GuestImage Img =
        GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(),
                static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
    XS.attachCache(std::make_unique<TransCache>(
        Dir.str(), 3 * OneEntry + OneEntry / 2, /*CH=*/1));
    XS.translateSync(FifthPC);
    EXPECT_EQ(XS.jitStats().CacheWrites, 1u);
    EXPECT_GT(XS.cache()->evictedFiles(), 0u);
  }
  // The stalest-stamped file went first; the freshest survived.
  EXPECT_FALSE(fs::exists(Files[0]));
  EXPECT_TRUE(fs::exists(Files[3]));
}

TEST(TransCache, EvictionHonoursByteBudget) {
  ScratchDir Dir;
  uint64_t OneEntry;
  {
    CacheFixture Probe(Dir.str());
    Probe.XS.translateSync(Probe.Blocks[0]);
    OneEntry = Probe.XS.cache()->totalBytes();
    ASSERT_GT(OneEntry, 0u);
  }
  fs::remove_all(Dir.Path);
  // Budget for two entries; store four. The oldest files must go.
  CacheFixture F(Dir.str(), /*MaxBytes=*/2 * OneEntry + OneEntry / 2);
  for (uint32_t PC : F.Blocks)
    F.XS.translateSync(PC);
  EXPECT_EQ(F.XS.jitStats().CacheWrites, 4u);
  EXPECT_GT(F.XS.cache()->evictedFiles(), 0u);
  EXPECT_LE(F.XS.cache()->totalBytes(), 2 * OneEntry + OneEntry / 2);
}

//===----------------------------------------------------------------------===//
// Hard option validation (the getIntClamped bugfix)
//===----------------------------------------------------------------------===//

GuestImage trivialProgram() {
  Assembler Code(CodeBase);
  Code.movi(Reg::R0, 0);
  Code.ret();
  return GuestImageBuilder().addCode(Code).entry(CodeBase).build();
}

using OptionDeathTest = ::testing::Test;

TEST(OptionDeathTest, NonNumericSchedThreadsIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--sched-threads=abc"}),
              ::testing::ExitedWithCode(1),
              "--sched-threads=abc: expected an integer in \\[1, 16\\]");
}

TEST(OptionDeathTest, NegativeSchedThreadsIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--sched-threads=-1"}),
              ::testing::ExitedWithCode(1),
              "--sched-threads=-1: expected an integer in \\[1, 16\\]");
}

TEST(OptionDeathTest, NonNumericCacheBudgetIsFatal) {
  ScratchDir Dir;
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T,
                           {"--tt-cache=" + Dir.str(),
                            "--tt-cache-max-mb=xyz"}),
              ::testing::ExitedWithCode(1),
              "--tt-cache-max-mb=xyz: expected an integer");
}

TEST(OptionDeathTest, TrailingJunkAndRangeViolationsAreFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--sched-threads=2x"}),
              ::testing::ExitedWithCode(1), "expected an integer");
  EXPECT_EXIT(runUnderCore(Img, &T, {"--sched-threads=17"}),
              ::testing::ExitedWithCode(1), "expected an integer");
}

// The removed translation-supply options are gone, not silently ignored:
// each is an unknown-option usage error.
TEST(OptionDeathTest, RemovedJitAndServerOptionsAreUnknown) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--jit-threads=2"}),
              ::testing::ExitedWithCode(1), "unknown option: --jit-threads");
  EXPECT_EXIT(runUnderCore(Img, &T, {"--tt-server=x"}),
              ::testing::ExitedWithCode(1), "unknown option: --tt-server");
  // The trace tier's own knobs went with the hot-superblock tier: traces
  // form at 4x --hot-threshold over at most 8 blocks.
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-threshold=8"}),
              ::testing::ExitedWithCode(1),
              "unknown option: --trace-threshold");
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-max-blocks=4"}),
              ::testing::ExitedWithCode(1),
              "unknown option: --trace-max-blocks");
}

TEST(OptionDeathTest, NonNumericHotThresholdIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--hot-threshold=5x"}),
              ::testing::ExitedWithCode(1),
              "--hot-threshold=5x: expected an integer");
  EXPECT_EXIT(runUnderCore(Img, &T, {"--hot-threshold=-3"}),
              ::testing::ExitedWithCode(1),
              "--hot-threshold=-3: expected an integer");
}

TEST(OptionDeathTest, ZeroTraceEventsIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--trace-events=0"}),
              ::testing::ExitedWithCode(1),
              "--trace-events=0: expected an integer in \\[1,");
}

TEST(OptionDeathTest, MalformedFaultInjectSpecIsFatal) {
  GuestImage Img = trivialProgram();
  Nulgrind T;
  EXPECT_EXIT(runUnderCore(Img, &T, {"--fault-inject=seed=abc"}),
              ::testing::ExitedWithCode(1),
              "bad fault-inject seed in 'seed=abc'");
  EXPECT_EXIT(runUnderCore(Img, &T, {"--fault-inject=preempt:0"}),
              ::testing::ExitedWithCode(1),
              "bad fault-inject rate in 'preempt:0'");
}

//===----------------------------------------------------------------------===//
// End-to-end: cold/warm equivalence under a full Core
//===----------------------------------------------------------------------===//

constexpr uint32_t ProgCodeBase = 0x1000;
constexpr uint32_t ProgDataBase = 0x100000;

GuestImage loopProgram() {
  Assembler Code(ProgCodeBase);
  Assembler Data(ProgDataBase);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Code.symbol("main");
  Label Str = Data.boundLabel();
  Data.emitString("done\n");
  Code.movi(Reg::R1, 0);
  Label Outer = Code.boundLabel();
  Code.movi(Reg::R2, 0);
  Label Inner = Code.boundLabel();
  Code.addi(Reg::R2, Reg::R2, 1);
  Code.cmpi(Reg::R2, 50);
  Code.blt(Inner);
  Code.addi(Reg::R1, Reg::R1, 1);
  Code.cmpi(Reg::R1, 200);
  Code.blt(Outer);
  Code.movi(Reg::R1, Data.labelAddr(Str));
  Code.call(Lib.Print);
  Code.movi(Reg::R0, 5);
  Code.ret();
  return GuestImageBuilder()
      .addCode(Code)
      .addData(Data)
      .entry(Entry)
      .build();
}

// Valid values still work (the check is not over-eager): hex syntax
// parses, and the runs behave like --sched-threads=2 / --hot-threshold=16.
TEST(TransCacheEndToEnd, ValidOptionValuesStillParse) {
  GuestImage Img = loopProgram();
  Nulgrind T1, T2;
  RunReport R = runUnderCore(Img, &T1, {"--sched-threads=0x2"});
  EXPECT_TRUE(R.Completed);
  RunReport H = runUnderCore(
      Img, &T2, {"--chaining=yes", "--trace-tier=yes", "--hot-threshold=0x10"});
  EXPECT_TRUE(H.Completed);
  EXPECT_GT(H.Stats.HotPromotions, 0u);
}

TEST(TransCacheEndToEnd, WarmRunSkipsPipelineAndMatchesCold) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--chaining=yes",
                                   "--tt-cache=" + Dir.str()};
  Nulgrind T1, T2;
  RunReport Cold = runUnderCore(Img, &T1, Opts);
  ASSERT_TRUE(Cold.Completed);
  EXPECT_GT(Cold.Jit.CacheWrites, 0u);
  EXPECT_EQ(Cold.Jit.CacheHits, 0u);

  RunReport Warm = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
  EXPECT_EQ(Warm.ExitCode, Cold.ExitCode);
  EXPECT_EQ(Warm.Jit.CacheMisses, 0u);
  EXPECT_EQ(Warm.Jit.CacheRejects, 0u);
  EXPECT_GT(Warm.Jit.CacheHits, 0u);
  EXPECT_EQ(Warm.Jit.CacheHits, Cold.Jit.CacheWrites);
  // Nothing new to persist on a fully warm run.
  EXPECT_EQ(Warm.Jit.CacheWrites, 0u);
}

TEST(TransCacheEndToEnd, MemcheckWarmRunIsEquivalent) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--chaining=yes",
                                   "--tt-cache=" + Dir.str()};
  Memcheck T1, T2;
  RunReport Cold = runUnderCore(Img, &T1, Opts);
  RunReport Warm = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(Cold.Completed);
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
  EXPECT_EQ(Warm.ExitCode, Cold.ExitCode);
  EXPECT_GT(Warm.Jit.CacheHits, 0u);
  EXPECT_EQ(T1.uniqueErrors(), T2.uniqueErrors());
}

// Different tools must not share entries: the config fingerprint keys the
// filenames, so a Memcheck run against a Nulgrind-written directory sees
// only misses (not rejects, not garbage installs).
TEST(TransCacheEndToEnd, ToolsDoNotShareEntries) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--tt-cache=" + Dir.str()};
  Nulgrind TN;
  Memcheck TM;
  RunReport A = runUnderCore(Img, &TN, Opts);
  RunReport B = runUnderCore(Img, &TM, Opts);
  ASSERT_TRUE(A.Completed);
  ASSERT_TRUE(B.Completed);
  EXPECT_EQ(B.Jit.CacheHits, 0u);
  EXPECT_EQ(B.Jit.CacheRejects, 0u);
  EXPECT_GT(B.Jit.CacheWrites, 0u);
}

// SMC: with --smc-check=all every block carries a position-dependent
// prelude and must bypass the cache entirely — and self-modified code must
// still retranslate correctly on a warm run.
TEST(TransCacheEndToEnd, SmcCheckedBlocksBypassCache) {
  ScratchDir Dir;
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--smc-check=all",
                                   "--tt-cache=" + Dir.str()};
  Nulgrind T1, T2;
  RunReport Cold = runUnderCore(Img, &T1, Opts);
  RunReport Warm = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(Cold.Completed);
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Cold.Jit.CacheWrites, 0u);
  EXPECT_EQ(Warm.Jit.CacheHits + Warm.Jit.CacheMisses +
                Warm.Jit.CacheRejects,
            0u);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
}

// Trace-tier translations are excluded from the persistent cache in both
// directions: a trace inlines guest bytes from every constituent and its
// formation depends on run-specific edge profiles, so it is neither
// written back on the cold run nor served from disk on the warm run — the
// warm run re-forms its traces from its own profile.
TEST(TransCacheEndToEnd, TraceTierTranslationsBypassCache) {
  ScratchDir Dir;
  GuestImage Img = buildWorkload("bzip2", 1);
  std::vector<std::string> Opts = {"--chaining=yes", "--hot-threshold=4",
                                   "--trace-tier=yes",
                                   "--tt-cache=" + Dir.str()};
  Nulgrind T1, T2;
  RunReport Cold = runUnderCore(Img, &T1, Opts);
  ASSERT_TRUE(Cold.Completed);
  ASSERT_GT(Cold.Stats.TracesFormed, 0u) << "test needs traces to form";
  ASSERT_GT(Cold.Jit.CacheWrites, 0u);

  RunReport Warm = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(Warm.Completed);
  EXPECT_EQ(Warm.Stdout, Cold.Stdout);
  // Not stored: every cold write validates and installs on the warm run,
  // and each is a baseline block the warm run asked for.
  EXPECT_EQ(Warm.Jit.CacheRejects, 0u);
  EXPECT_EQ(Warm.Jit.CacheHits, Cold.Jit.CacheWrites);
  // Not loaded: the warm run still had to form its traces itself.
  EXPECT_GT(Warm.Stats.TracesFormed, 0u);
  // And nothing about the warm run's traces was newly persisted either.
  EXPECT_EQ(Warm.Jit.CacheWrites, 0u);
}

} // namespace
