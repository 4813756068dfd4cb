// Snapshot tier (persist/snapshot.h): property round-trip across ALL TEN
// trace keyspace generators (testing/keyspace.h), each one written, mapped
// back, recovered through persist/recovery.h, bulk-built into a ROWEX HOT
// trie, deep-audited (testing/audit.h), and scan-diffed against the source
// map — so the on-disk image provably reconstructs byte-identical ordered
// contents for every key shape the fuzzer knows.  Plus writer-order
// enforcement, atomicity of the tmp->rename install, and corruption
// detection (header, block, truncation).

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "hot/rowex.h"
#include "net/record_store.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "testing/audit.h"
#include "testing/keyspace.h"

namespace hot {
namespace persist {
namespace {

using testing::BuildKeySpace;
using testing::KeySpace;
using testing::KeySpaceKind;
using testing::KeySpaceKindName;
using testing::kNumKeySpaceKinds;

KeyRef K(const std::string& s) {
  return KeyRef(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hot_snap_test_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    ::unlink(SnapshotPath(path).c_str());
    ::unlink(SnapshotTmpPath(path).c_str());
    ::rmdir(path.c_str());
  }
};

std::string KeyBytesOf(const KeySpace& ks, size_t idx) {
  if (ks.is_string) return ks.strings[idx];
  uint64_t v = ks.ints[idx];
  std::string k(8, '\0');
  for (int b = 0; b < 8; ++b) {
    k[b] = static_cast<char>(v >> (8 * (7 - b)));
  }
  return k;
}

// Ordered source-of-truth image of one keyspace.
std::map<std::string, uint64_t> ImageOf(const KeySpace& ks) {
  std::map<std::string, uint64_t> m;
  for (size_t i = 0; i < ks.size(); ++i) m[KeyBytesOf(ks, i)] = ks.ValueOf(i);
  return m;
}

TEST(Snapshot, RoundTripAuditAndScanParityAcrossAllKeyspaces) {
  for (unsigned k = 0; k < kNumKeySpaceKinds; ++k) {
    KeySpaceKind kind = static_cast<KeySpaceKind>(k);
    SCOPED_TRACE(KeySpaceKindName(kind));
    TempDir dir;
    KeySpace ks = BuildKeySpace(kind, 600, 77 + k);
    std::map<std::string, uint64_t> image = ImageOf(ks);

    // Write in ascending key order with a known LSN anchor.
    SnapshotWriter w;
    std::string err;
    ASSERT_TRUE(w.Open(SnapshotPath(dir.path), &err)) << err;
    for (const auto& [key, value] : image) {
      ASSERT_TRUE(w.Add(K(key), value));
    }
    ASSERT_TRUE(w.Finish(4242, &err)) << err;

    // Direct reader round-trip.
    SnapshotReader r;
    ASSERT_TRUE(r.Open(SnapshotPath(dir.path), &err)) << err;
    EXPECT_EQ(r.count(), image.size());
    EXPECT_EQ(r.last_lsn(), 4242u);
    auto it = image.begin();
    ASSERT_TRUE(r.ForEach(
        [&](KeyRef key, uint64_t value) {
          ASSERT_NE(it, image.end());
          EXPECT_EQ(std::string(reinterpret_cast<const char*>(key.data()),
                                key.size()),
                    it->first);
          EXPECT_EQ(value, it->second);
          ++it;
        },
        &err))
        << err;
    EXPECT_EQ(it, image.end());
    r.Close();

    // Recovery (snapshot-only directory) must reproduce the same image...
    RecoveryResult rec;
    ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;
    EXPECT_TRUE(rec.snapshot_loaded);
    EXPECT_EQ(rec.last_lsn, 4242u);
    ASSERT_EQ(rec.records.size(), image.size());

    // ...and bulk-build into a served trie that passes the deep audit and
    // scans back in byte-identical order.
    net::RecordStore store;
    for (const RecoveredRecord& rr : rec.records) {
      ASSERT_TRUE(net::KeyFitsIndex(rr.key_ref()));
    }
    std::optional<uint64_t> base = store.TryAppendBulk(
        rec.records.size(), 2, [&](size_t i) {
          return std::pair<KeyRef, uint64_t>(rec.records[i].key_ref(),
                                             rec.records[i].value);
        });
    ASSERT_TRUE(base.has_value());
    std::vector<uint64_t> ids(rec.records.size());
    std::iota(ids.begin(), ids.end(), *base);
    RowexHotTrie<net::RecordKeyExtractor> trie{
        net::RecordKeyExtractor(&store)};
    trie.BulkLoad(ids.data(), ids.size(), 2);
    ASSERT_EQ(trie.size(), image.size());

    testing::AuditStats audit;
    ASSERT_TRUE(testing::AuditHotTree(trie.root_entry(),
                                      net::RecordKeyExtractor(&store),
                                      ids.size(), &audit, &err))
        << err;

    it = image.begin();
    size_t scanned = trie.ScanFrom(KeyRef(), image.size() + 1, [&](uint64_t id) {
      const net::RecordStore::Record& recd = store.At(id);
      ASSERT_NE(it, image.end());
      EXPECT_EQ(std::string(reinterpret_cast<const char*>(
                                recd.raw_key().data()),
                            recd.raw_key().size()),
                it->first);
      EXPECT_EQ(recd.value, it->second);
      ++it;
    });
    EXPECT_EQ(scanned, image.size());
    EXPECT_EQ(it, image.end());
  }
}

TEST(Snapshot, WriterRejectsOutOfOrderKeys) {
  TempDir dir;
  SnapshotWriter w;
  std::string err;
  ASSERT_TRUE(w.Open(SnapshotPath(dir.path), &err)) << err;
  EXPECT_TRUE(w.Add(K("bbb"), 1));
  EXPECT_FALSE(w.Add(K("aaa"), 2));  // descending: poisoned
  EXPECT_FALSE(w.Add(K("bbb"), 3));  // equal is also illegal
  EXPECT_FALSE(w.Finish(1, &err));
  // The poisoned writer must not have installed anything.
  struct stat st;
  EXPECT_NE(::stat(SnapshotPath(dir.path).c_str(), &st), 0);
}

TEST(Snapshot, AbortLeavesNoInstalledImage) {
  TempDir dir;
  {
    SnapshotWriter w;
    std::string err;
    ASSERT_TRUE(w.Open(SnapshotPath(dir.path), &err)) << err;
    ASSERT_TRUE(w.Add(K("k"), 7));
    // destructor aborts: simulates a crash mid-scan
  }
  struct stat st;
  EXPECT_NE(::stat(SnapshotPath(dir.path).c_str(), &st), 0);
  // Recovery treats the directory as empty and clears the tmp file.
  RecoveryResult rec;
  std::string err;
  ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.records.size(), 0u);
  EXPECT_NE(::stat(SnapshotTmpPath(dir.path).c_str(), &st), 0);
}

TEST(Snapshot, EmptyImageRoundTrips) {
  TempDir dir;
  SnapshotWriter w;
  std::string err;
  ASSERT_TRUE(w.Open(SnapshotPath(dir.path), &err)) << err;
  ASSERT_TRUE(w.Finish(9, &err)) << err;
  SnapshotReader r;
  ASSERT_TRUE(r.Open(SnapshotPath(dir.path), &err)) << err;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.last_lsn(), 9u);
  size_t seen = 0;
  ASSERT_TRUE(r.ForEach([&](KeyRef, uint64_t) { ++seen; }, &err)) << err;
  EXPECT_EQ(seen, 0u);
}

TEST(Snapshot, CorruptionIsAnErrorNeverASilentSkip) {
  TempDir dir;
  SnapshotWriter w;
  std::string err;
  ASSERT_TRUE(w.Open(SnapshotPath(dir.path), &err)) << err;
  for (int i = 0; i < 500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key-%05d", i);
    ASSERT_TRUE(w.Add(K(key), i));
  }
  ASSERT_TRUE(w.Finish(1, &err)) << err;

  std::string path = SnapshotPath(dir.path);
  auto flip = [&](long at) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, at, SEEK_SET);
    int b = std::fgetc(f);
    std::fseek(f, at, SEEK_SET);
    std::fputc(b ^ 0x01, f);
    std::fclose(f);
  };

  // Header corruption: Open fails.
  flip(20);
  SnapshotReader r1;
  EXPECT_FALSE(r1.Open(path, &err));
  flip(20);  // restore

  // Data corruption: Open succeeds (header fine), ForEach fails.
  flip(static_cast<long>(kSnapshotHeaderBytes) + 100);
  SnapshotReader r2;
  ASSERT_TRUE(r2.Open(path, &err)) << err;
  EXPECT_FALSE(r2.ForEach([](KeyRef, uint64_t) {}, &err));
  EXPECT_NE(err.find("CRC"), std::string::npos) << err;
  r2.Close();
  flip(static_cast<long>(kSnapshotHeaderBytes) + 100);  // restore

  // Truncation: size disagrees with the header.
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 1), 0);
  SnapshotReader r3;
  EXPECT_FALSE(r3.Open(path, &err));

  // And recovery refuses the directory rather than serving a partial base
  // image.
  RecoveryResult rec;
  EXPECT_FALSE(RecoverImage(dir.path, &rec, &err));
}

}  // namespace
}  // namespace persist
}  // namespace hot
