// Recovery tier (persist/recovery.h): RecoverImage over every directory
// shape the crash protocol can leave behind — empty dir, WAL-only, snapshot
// plus tail (with stale pre-prune records), deletes in the tail,
// last-writer-wins collapses, tail keys that tie on the sort's 8-byte
// prefix, torn tails (legal only in the newest segment), and the
// WalResume handoff that lets the writer continue exactly where the
// recovered image ends.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace hot {
namespace persist {
namespace {

KeyRef K(const std::string& s) {
  return KeyRef(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hot_recovery_test_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    for (const auto& [seq, p] : ListWalSegments(path)) ::unlink(p.c_str());
    ::unlink(SnapshotPath(path).c_str());
    ::unlink(SnapshotTmpPath(path).c_str());
    ::rmdir(path.c_str());
  }
};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%03d", i);
  return buf;
}

// Applies the recovered image into a plain map for oracle comparison.
std::map<std::string, uint64_t> AsMap(const RecoveryResult& rec) {
  std::map<std::string, uint64_t> m;
  for (const RecoveredRecord& r : rec.records) {
    // Recovered images are unique and ascending by contract; insert must
    // therefore never collide.
    std::string key(r.key_ref().ToStringView());
    auto [it, inserted] = m.emplace(key, r.value);
    EXPECT_TRUE(inserted) << "duplicate key in recovered image: " << key;
  }
  return m;
}

void ExpectAscending(const RecoveryResult& rec) {
  for (size_t i = 1; i < rec.records.size(); ++i) {
    EXPECT_LT(rec.records[i - 1].key_ref().Compare(rec.records[i].key_ref()),
              0)
        << "out of order at " << i;
  }
}

TEST(Recovery, EmptyDirectoryIsAValidEmptyImage) {
  TempDir dir;
  RecoveryResult rec;
  std::string err;
  ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;
  EXPECT_EQ(rec.records.size(), 0u);
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_FALSE(rec.torn_tail);
  EXPECT_EQ(rec.last_lsn, 0u);
  EXPECT_EQ(rec.resume.seq, 1u);
  EXPECT_EQ(rec.resume.next_lsn, 1u);
  EXPECT_FALSE(rec.resume.segment_exists);
}

TEST(Recovery, WalOnlyLastWriterWinsAndDeletesDrop) {
  TempDir dir;
  {
    Wal wal;
    std::string err;
    Wal::Options o;
    o.durability = Durability::kNone;
    ASSERT_TRUE(wal.Open(dir.path, WalResume{}, o, &err)) << err;
    for (int i = 0; i < 20; ++i) wal.Append(kWalPut, K(Key(i)), 100 + i);
    wal.Append(kWalPut, K(Key(3)), 999);    // overwrite
    wal.Append(kWalDelete, K(Key(7)), 0);   // drop
    wal.Append(kWalPut, K(Key(7)), 777);    // resurrect
    wal.Append(kWalDelete, K(Key(11)), 0);  // drop for good
    wal.Append(kWalPut, K("zzz"), 1);
    wal.Append(kWalDelete, K("zzz"), 0);    // insert+delete -> absent
    ASSERT_TRUE(wal.Flush(true, &err)) << err;
    wal.Close();
  }
  RecoveryResult rec;
  std::string err;
  ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;
  ExpectAscending(rec);
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.wal_segments, 1u);
  EXPECT_EQ(rec.wal_records_applied, 26u);
  EXPECT_EQ(rec.wal_records_stale, 0u);
  EXPECT_EQ(rec.last_lsn, 26u);
  EXPECT_EQ(rec.resume.next_lsn, 27u);

  std::map<std::string, uint64_t> want;
  for (int i = 0; i < 20; ++i) want[Key(i)] = 100 + i;
  want[Key(3)] = 999;
  want[Key(7)] = 777;
  want.erase(Key(11));
  EXPECT_EQ(AsMap(rec), want);
}

TEST(Recovery, SnapshotPlusTailMergesAndSkipsStaleRecords) {
  TempDir dir;
  // Base image: k000..k049 = i, cut at LSN 100.
  {
    SnapshotWriter w;
    std::string err;
    ASSERT_TRUE(w.Open(SnapshotPath(dir.path), &err)) << err;
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(w.Add(K(Key(i)), i));
    ASSERT_TRUE(w.Finish(100, &err)) << err;
  }
  // One segment holding both stale (lsn <= 100, as after a crash between
  // snapshot rename and prune) and fresh records.
  {
    Wal wal;
    std::string err;
    Wal::Options o;
    o.durability = Durability::kNone;
    WalResume resume;
    resume.next_lsn = 95;
    ASSERT_TRUE(wal.Open(dir.path, resume, o, &err)) << err;
    for (int i = 0; i < 6; ++i) {
      wal.Append(kWalPut, K(Key(40 + i)), 5000 + i);  // lsn 95..100: stale
    }
    wal.Append(kWalPut, K(Key(10)), 999);   // lsn 101: overrides snapshot
    wal.Append(kWalDelete, K(Key(20)), 0);  // lsn 102: drops snapshot rec
    wal.Append(kWalPut, K("a-below"), 1);   // lsn 103: before the whole base
    wal.Append(kWalPut, K("zzz"), 2);       // lsn 104: after the whole base
    wal.Append(kWalPut, K(Key(10)), 1000);  // lsn 105: beats lsn 101
    ASSERT_TRUE(wal.Flush(true, &err)) << err;
    wal.Close();
  }
  RecoveryResult rec;
  std::string err;
  ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;
  ExpectAscending(rec);
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.snapshot_records, 50u);
  EXPECT_EQ(rec.wal_records_stale, 6u);
  EXPECT_EQ(rec.wal_records_applied, 5u);
  EXPECT_EQ(rec.last_lsn, 105u);
  EXPECT_EQ(rec.resume.next_lsn, 106u);

  std::map<std::string, uint64_t> want;
  for (int i = 0; i < 50; ++i) want[Key(i)] = i;
  want[Key(10)] = 1000;
  want.erase(Key(20));
  want["a-below"] = 1;
  want["zzz"] = 2;
  EXPECT_EQ(AsMap(rec), want);
  EXPECT_EQ(rec.records.size(), want.size());
}

TEST(Recovery, TornTailIsLegalOnlyInTheNewestSegment) {
  TempDir dir;
  {
    Wal wal;
    std::string err;
    Wal::Options o;
    o.durability = Durability::kNone;
    ASSERT_TRUE(wal.Open(dir.path, WalResume{}, o, &err)) << err;
    for (int i = 0; i < 5; ++i) wal.Append(kWalPut, K(Key(i)), i);
    err.clear();
    wal.Rotate(&err);
    ASSERT_TRUE(err.empty()) << err;
    for (int i = 5; i < 8; ++i) wal.Append(kWalPut, K(Key(i)), i);
    ASSERT_TRUE(wal.Flush(true, &err)) << err;
    wal.Close();
  }
  auto segments = ListWalSegments(dir.path);
  ASSERT_EQ(segments.size(), 2u);
  // Each put frame here: 8B header + (8 lsn + 1 op + 4 klen + 4 key + 8
  // value) = 33 bytes.
  constexpr uint64_t kFrame = 33;

  // Torn tail in the NEWEST segment: recovery succeeds, frame dropped.
  struct stat st;
  ASSERT_EQ(::stat(segments[1].second.c_str(), &st), 0);
  off_t full = st.st_size;
  ASSERT_EQ(full, static_cast<off_t>(kWalFileHeaderBytes + 3 * kFrame));
  ASSERT_EQ(::truncate(segments[1].second.c_str(), full - 10), 0);
  RecoveryResult rec;
  std::string err;
  ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_EQ(rec.last_lsn, 7u);  // lsn 8 was torn away
  EXPECT_EQ(rec.records.size(), 7u);
  EXPECT_EQ(rec.resume.valid_end, kWalFileHeaderBytes + 2 * kFrame);

  // The same damage in a NON-tail segment is corruption.
  ASSERT_EQ(::stat(segments[0].second.c_str(), &st), 0);
  ASSERT_EQ(::truncate(segments[0].second.c_str(), st.st_size - 10), 0);
  EXPECT_FALSE(RecoverImage(dir.path, &rec, &err));
  EXPECT_NE(err.find("non-tail"), std::string::npos) << err;
}

TEST(Recovery, ResumeHandoffContinuesTheLog) {
  TempDir dir;
  {
    Wal wal;
    std::string err;
    Wal::Options o;
    o.durability = Durability::kNone;
    ASSERT_TRUE(wal.Open(dir.path, WalResume{}, o, &err)) << err;
    for (int i = 0; i < 10; ++i) wal.Append(kWalPut, K(Key(i)), i);
    ASSERT_TRUE(wal.Flush(true, &err)) << err;
    wal.Close();
  }
  // Tear the final frame, then recover + resume + append like a restarted
  // server would.
  auto segments = ListWalSegments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  struct stat st;
  ASSERT_EQ(::stat(segments[0].second.c_str(), &st), 0);
  ASSERT_EQ(::truncate(segments[0].second.c_str(), st.st_size - 1), 0);

  RecoveryResult rec;
  std::string err;
  ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_EQ(rec.last_lsn, 9u);
  EXPECT_EQ(rec.resume.next_lsn, 10u);
  EXPECT_TRUE(rec.resume.segment_exists);
  {
    Wal wal;
    Wal::Options o;
    o.durability = Durability::kNone;
    ASSERT_TRUE(wal.Open(dir.path, rec.resume, o, &err)) << err;
    EXPECT_EQ(wal.Append(kWalPut, K("resumed"), 42), 10u);
    ASSERT_TRUE(wal.Flush(true, &err)) << err;
    wal.Close();
  }
  RecoveryResult rec2;
  ASSERT_TRUE(RecoverImage(dir.path, &rec2, &err)) << err;
  EXPECT_FALSE(rec2.torn_tail);  // resume truncated the torn bytes
  EXPECT_EQ(rec2.last_lsn, 10u);
  std::map<std::string, uint64_t> want;
  for (int i = 0; i < 9; ++i) want[Key(i)] = i;  // Key(9) died in the tear
  want["resumed"] = 42;
  EXPECT_EQ(AsMap(rec2), want);
}

// Tail keys the 8-byte prefix sort cannot tell apart on the prefix alone:
// keys shorter than 8 bytes (zero-padded, so "ab" and "ab\0" share a
// prefix), keys equal in their first 8 bytes, embedded NULs, and one key
// put and deleted over and over.  The tail lands on a snapshot holding
// half of the pool, and the merged image must equal the oracle that
// applies every op in LSN order.
TEST(Recovery, TailSortBreaksPrefixTiesByFullKey) {
  const std::vector<std::string> pool = {
      std::string(),
      std::string("a"),
      std::string("ab"),
      std::string("ab\0", 3),
      std::string("ab\0\0", 4),
      std::string("ab\0\0\0\0\0\0", 8),
      std::string("ab\0\0\0\0\0\0\0", 9),
      std::string("\0", 1),
      std::string("\0\0\0\0\0\0\0\0x", 9),
      std::string("abcdefg"),
      std::string("abcdefgh"),
      std::string("abcdefgh\0", 9),
      std::string("abcdefgh\0z", 10),
      std::string("abcdefgha"),
      std::string("abcdefghab"),
      std::string("abcdefgi"),
      std::string("abcdefg\xff"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("zz"),
  };
  const std::string& churn = pool[10];  // put/deleted throughout

  TempDir dir;
  std::map<std::string, uint64_t> oracle;
  for (size_t i = 0; i < pool.size(); i += 2) oracle[pool[i]] = 1000 + i;
  {
    SnapshotWriter w;
    std::string err;
    ASSERT_TRUE(w.Open(SnapshotPath(dir.path), &err)) << err;
    for (const auto& [key, value] : oracle) ASSERT_TRUE(w.Add(K(key), value));
    ASSERT_TRUE(w.Finish(10, &err)) << err;
  }
  {
    Wal wal;
    std::string err;
    Wal::Options o;
    o.durability = Durability::kNone;
    WalResume resume;
    resume.next_lsn = 11;
    ASSERT_TRUE(wal.Open(dir.path, resume, o, &err)) << err;
    uint64_t rng = 12345;
    for (int i = 0; i < 3000; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const std::string& key =
          i % 4 == 0 ? churn : pool[(rng >> 33) % pool.size()];
      if ((rng >> 20) % 3 == 0) {
        wal.Append(kWalDelete, K(key), 0);
        oracle.erase(key);
      } else {
        wal.Append(kWalPut, K(key), i);
        oracle[key] = i;
      }
      if (i == 1500) {  // a second segment: tails span buffers
        err.clear();
        wal.Rotate(&err);
        ASSERT_TRUE(err.empty()) << err;
      }
    }
    ASSERT_TRUE(wal.Flush(true, &err)) << err;
    wal.Close();
  }
  RecoveryResult rec;
  std::string err;
  ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;
  ExpectAscending(rec);
  EXPECT_EQ(rec.wal_records_applied, 3000u);
  EXPECT_EQ(rec.last_lsn, 3010u);
  EXPECT_EQ(AsMap(rec), oracle);

  // The views outlive a move of the result that owns their bytes.
  RecoveryResult moved = std::move(rec);
  EXPECT_EQ(AsMap(moved), oracle);
}

TEST(Recovery, ChecksumMatchesIndependentlyBuiltImage) {
  TempDir dir;
  {
    Wal wal;
    std::string err;
    Wal::Options o;
    o.durability = Durability::kNone;
    ASSERT_TRUE(wal.Open(dir.path, WalResume{}, o, &err)) << err;
    for (int i = 0; i < 100; ++i) wal.Append(kWalPut, K(Key(i)), i * 3);
    ASSERT_TRUE(wal.Flush(true, &err)) << err;
    wal.Close();
  }
  RecoveryResult rec;
  std::string err;
  ASSERT_TRUE(RecoverImage(dir.path, &rec, &err)) << err;

  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) keys.push_back(Key(i));
  std::vector<RecoveredRecord> oracle;
  for (int i = 0; i < 100; ++i) {
    oracle.push_back({reinterpret_cast<const uint8_t*>(keys[i].data()),
                      static_cast<uint32_t>(keys[i].size()),
                      uint64_t(i) * 3});
  }
  EXPECT_EQ(ImageChecksum(rec.records), ImageChecksum(oracle));

  // The checksum is order- and content-sensitive.
  std::swap(oracle[0], oracle[1]);
  EXPECT_NE(ImageChecksum(rec.records), ImageChecksum(oracle));
}

}  // namespace
}  // namespace persist
}  // namespace hot
