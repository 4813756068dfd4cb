// Durable-server tier: KvServer with a data directory, exercised over real
// loopback sockets (net/client.h).  Pins the restart contract — every
// acked write before a clean Stop() is served after the next Start() — in
// all three durability modes, in-place overwrites across a mid-stream
// snapshot, the snapshot trigger + recovery path, the manual
// TriggerSnapshot() hook, that the parallel refill restores the same
// image at every recovery thread count, and that a bad data dir fails
// Start() loudly instead of serving an empty non-durable index.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace hot {
namespace net {
namespace {

KeyRef K(const std::string& s) { return KeyRef(s); }

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hot_persist_server_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    for (const auto& [seq, p] : persist::ListWalSegments(path)) {
      ::unlink(p.c_str());
    }
    ::unlink(persist::SnapshotPath(path).c_str());
    ::unlink(persist::SnapshotTmpPath(path).c_str());
    ::rmdir(path.c_str());
  }
};

ServerOptions DurableServer(const std::string& dir,
                            persist::Durability durability) {
  ServerOptions opt;
  opt.workers = 1;
  opt.shards = 4;
  opt.data_dir = dir;
  opt.durability = durability;
  opt.wal_flush_ms = 5;
  opt.recovery_threads = 2;
  return opt;
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key-%05d", i);
  return buf;
}

// Full ordered dump of the served index over the wire.
std::map<std::string, uint64_t> ScanAll(KvClient* c) {
  std::map<std::string, uint64_t> out;
  std::string err;
  Reply reply;
  EXPECT_TRUE(c->Scan(KeyRef(), 1u << 20, &reply, &err)) << err;
  EXPECT_TRUE(reply.ok());
  for (const auto& e : reply.scan) out[e.key] = e.value;
  EXPECT_EQ(out.size(), reply.scan.size()) << "scan returned duplicate keys";
  return out;
}

TEST(PersistServer, RestartRoundTripInEveryDurabilityMode) {
  for (persist::Durability mode :
       {persist::Durability::kNone, persist::Durability::kAsync,
        persist::Durability::kSync}) {
    SCOPED_TRACE(persist::DurabilityName(mode));
    TempDir dir;
    std::map<std::string, uint64_t> oracle;
    {
      KvServer server(DurableServer(dir.path, mode));
      std::string err;
      ASSERT_TRUE(server.Start(&err)) << err;
      ASSERT_TRUE(server.durable());
      EXPECT_EQ(server.recovery().records, 0u);
      KvClient c;
      ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
      Reply reply;
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(c.Put(K(Key(i)), 1000 + i, &reply, &err)) << err;
        ASSERT_TRUE(reply.ok());
        oracle[Key(i)] = 1000 + i;
      }
      for (int i = 0; i < 200; i += 5) {
        ASSERT_TRUE(c.Delete(K(Key(i)), &reply, &err)) << err;
        ASSERT_TRUE(reply.ok());
        oracle.erase(Key(i));
      }
      for (int i = 0; i < 50; ++i) {  // overwrites
        ASSERT_TRUE(c.Put(K(Key(i * 3 + 1)), 9000 + i, &reply, &err)) << err;
        oracle[Key(i * 3 + 1)] = 9000 + i;
      }
      server.Stop();  // clean shutdown flushes every mode
    }
    {
      KvServer server(DurableServer(dir.path, mode));
      std::string err;
      ASSERT_TRUE(server.Start(&err)) << err;
      EXPECT_EQ(server.recovery().records, oracle.size());
      EXPECT_EQ(server.live_keys(), oracle.size());
      KvClient c;
      ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
      EXPECT_EQ(ScanAll(&c), oracle);
      // And the recovered image keeps serving writes with WAL continuity.
      Reply reply;
      ASSERT_TRUE(c.Put(K("post-restart"), 7, &reply, &err)) << err;
      ASSERT_TRUE(reply.ok());
      server.Stop();
    }
    {
      KvServer server(DurableServer(dir.path, mode));
      std::string err;
      ASSERT_TRUE(server.Start(&err)) << err;
      EXPECT_EQ(server.live_keys(), oracle.size() + 1);
      server.Stop();
    }
  }
}

// Racing writers on ONE key across two workers: the server's write-stripe
// ordering holds {WAL append, index apply} together, so the value the live
// index ends up serving is the value with the highest LSN — exactly what
// recovery's last-LSN-wins replay reconstructs.  Without that ordering,
// worker A could win the live index while worker B holds the higher LSN,
// and a restart would silently revert to a value clients saw overwritten.
TEST(PersistServer, ConcurrentSameKeyWritesRecoverToLiveValue) {
  TempDir dir;
  bool live_found = false;
  uint64_t live_value = 0;
  {
    ServerOptions opt = DurableServer(dir.path, persist::Durability::kSync);
    opt.workers = 2;
    KvServer server(opt);
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    constexpr int kClients = 4;
    constexpr int kWrites = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        KvClient c;
        std::string cerr;
        ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &cerr)) << cerr;
        Reply reply;
        for (int i = 0; i < kWrites; ++i) {
          if (t == 0 && i % 3 == 2) {  // deletes race the puts too
            ASSERT_TRUE(c.Delete(K("contended"), &reply, &cerr)) << cerr;
            ASSERT_TRUE(reply.status == kOk || reply.status == kNotFound);
          } else {
            uint64_t v = static_cast<uint64_t>(t) * 1000000 + i;
            ASSERT_TRUE(c.Put(K("contended"), v, &reply, &cerr)) << cerr;
            ASSERT_TRUE(reply.ok());
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    ASSERT_TRUE(c.Get(K("contended"), &reply, &err)) << err;
    live_found = reply.status == kOk;
    live_value = reply.value;
    server.Stop();
  }
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kSync));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    ASSERT_TRUE(c.Get(K("contended"), &reply, &err)) << err;
    EXPECT_EQ(reply.status == kOk, live_found);
    if (live_found && reply.status == kOk) {
      EXPECT_EQ(reply.value, live_value);
    }
    server.Stop();
  }
}

// In-place overwrites across a fuzzy snapshot, in every durability mode.
// An overwrite changes a record's value without touching the index, so the
// snapshot scan can read a value newer than its cut; the WAL segment opened
// at the cut replays that write to the same value.  The restarted image
// must equal the last acked value of every key, and the live server must
// have appended exactly one record per key.
TEST(PersistServer, InPlaceOverwritesAcrossSnapshotRecover) {
  constexpr int kKeys = 100;
  constexpr int kRounds = 40;
  for (persist::Durability mode :
       {persist::Durability::kNone, persist::Durability::kAsync,
        persist::Durability::kSync}) {
    SCOPED_TRACE(persist::DurabilityName(mode));
    TempDir dir;
    std::map<std::string, uint64_t> oracle;
    {
      ServerOptions opt = DurableServer(dir.path, mode);
      opt.workers = 2;
      KvServer server(opt);
      std::string err;
      ASSERT_TRUE(server.Start(&err)) << err;
      std::atomic<int> rounds_done{0};
      std::string werr;
      std::thread writer([&] {
        KvClient c;
        if (!c.Connect("127.0.0.1", server.port(), &werr)) return;
        Reply reply;
        for (int r = 0; r < kRounds; ++r) {
          for (int i = 0; i < kKeys; ++i) {
            uint64_t v = static_cast<uint64_t>(r) * 1000 + i;
            if (!c.Put(K(Key(i)), v, &reply, &werr) || !reply.ok() ||
                reply.created != (r == 0) ||
                (r > 0 && reply.prev != v - 1000)) {
              werr += " bad PUT reply at round " + std::to_string(r);
              return;
            }
            oracle[Key(i)] = v;
          }
          rounds_done.store(r + 1);
        }
      });
      while (rounds_done.load() < kRounds / 2 && werr.empty()) {
        std::this_thread::yield();
      }
      ASSERT_TRUE(server.TriggerSnapshot(&err)) << err;  // mid-stream
      writer.join();
      ASSERT_TRUE(werr.empty()) << werr;
      EXPECT_EQ(server.store().appended(), static_cast<uint64_t>(kKeys));
      ServerStats stats = server.StatsSnapshot();
      EXPECT_EQ(stats.puts_in_place,
                static_cast<uint64_t>(kKeys) * (kRounds - 1));
      EXPECT_EQ(stats.snapshots_taken, 1u);
      server.Stop();
    }
    {
      KvServer server(DurableServer(dir.path, mode));
      std::string err;
      ASSERT_TRUE(server.Start(&err)) << err;
      EXPECT_TRUE(server.recovery().snapshot_loaded);
      EXPECT_EQ(server.recovery().records, oracle.size());
      EXPECT_EQ(server.store().appended(), oracle.size());
      KvClient c;
      ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
      EXPECT_EQ(ScanAll(&c), oracle);
      server.Stop();
    }
  }
}

TEST(PersistServer, SnapshotTriggerFiresAndRecoveryUsesIt) {
  TempDir dir;
  std::map<std::string, uint64_t> oracle;
  {
    ServerOptions opt = DurableServer(dir.path, persist::Durability::kNone);
    opt.snapshot_trigger_bytes = 4096;  // a few dozen puts
    KvServer server(opt);
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    for (int i = 0; i < 800; ++i) {
      ASSERT_TRUE(c.Put(K(Key(i)), i, &reply, &err)) << err;
      oracle[Key(i)] = i;
    }
    // The snapshot loop polls every ~100ms; give it a real deadline.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.StatsSnapshot().snapshots_taken == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ServerStats stats = server.StatsSnapshot();
    ASSERT_GE(stats.snapshots_taken, 1u);
    EXPECT_EQ(stats.snapshot_failures, 0u);
    EXPECT_GE(stats.wal_rotations, 1u);
    server.Stop();
  }
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kNone));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    EXPECT_TRUE(server.recovery().snapshot_loaded);
    EXPECT_EQ(server.recovery().records, oracle.size());
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    EXPECT_EQ(ScanAll(&c), oracle);
    server.Stop();
  }
}

TEST(PersistServer, ManualSnapshotCompactsTheWal) {
  TempDir dir;
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kSync));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(c.Put(K(Key(i)), i, &reply, &err)) << err;
    }
    ASSERT_TRUE(server.TriggerSnapshot(&err)) << err;
    ServerStats stats = server.StatsSnapshot();
    EXPECT_EQ(stats.snapshots_taken, 1u);
    EXPECT_EQ(stats.snapshot_last_records, 300u);
    EXPECT_GE(stats.wal_segments_pruned, 1u);
    server.Stop();
  }
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kSync));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    // Everything should come from the snapshot; the tail is empty.
    EXPECT_TRUE(server.recovery().snapshot_loaded);
    EXPECT_EQ(server.recovery().snapshot_records, 300u);
    EXPECT_EQ(server.recovery().wal_records_applied, 0u);
    EXPECT_EQ(server.live_keys(), 300u);
    server.Stop();
  }
}

// The parallel refill must not depend on its thread count: the same data
// dir (snapshot plus WAL tail, keys with and without NULs, several record
// chunks) restarted with recovery_threads 1 and 4 serves the same ordered
// image and holds the same key bytes.
TEST(PersistServer, RecoveryThreadCountsRestoreTheSameImage) {
  TempDir dir;
  auto key_of = [](int i) {
    std::string k = Key(i);
    if (i % 3 == 0) k[4] = '\0';
    return k;
  };
  std::map<std::string, uint64_t> oracle;
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kAsync));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    // Pipelined PUTs (and some DELETEs), one flush per batch.
    auto write = [&](int from, int to, bool del) {
      for (int b = from; b < to; b += 1000) {
        for (int i = b; i < std::min(to, b + 1000); ++i) {
          if (del) {
            c.SendDelete(K(key_of(i)));
            oracle.erase(key_of(i));
          } else {
            c.SendPut(K(key_of(i)), 7 * i + 1);
            oracle[key_of(i)] = 7 * i + 1;
          }
        }
        ASSERT_TRUE(c.Flush(&err)) << err;
        Reply reply;
        while (c.outstanding() > 0) {
          ASSERT_TRUE(c.ReadReply(&reply, &err)) << err;
          ASSERT_TRUE(reply.ok());
        }
      }
    };
    write(0, 40000, false);
    ASSERT_TRUE(server.TriggerSnapshot(&err)) << err;
    write(30000, 45000, false);  // overwrites and fresh keys in the tail
    write(10000, 12000, true);
    server.Stop();
  }
  std::map<std::string, uint64_t> images[2];
  uint64_t key_bytes[2] = {0, 0};
  const unsigned threads[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(threads[run]);
    ServerOptions opt = DurableServer(dir.path, persist::Durability::kAsync);
    opt.recovery_threads = threads[run];
    KvServer server(opt);
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    EXPECT_TRUE(server.recovery().snapshot_loaded);
    EXPECT_EQ(server.recovery().records, oracle.size());
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    images[run] = ScanAll(&c);
    key_bytes[run] = server.StatsSnapshot().record_key_bytes;
    server.Stop();
  }
  EXPECT_EQ(images[0], oracle);
  EXPECT_EQ(images[1], images[0]);
  EXPECT_EQ(key_bytes[1], key_bytes[0]);
  EXPECT_GT(key_bytes[0], 0u);
}

// A logged key longer than the index accepts can only come from a damaged
// data dir; the refill must refuse it instead of indexing it.
TEST(PersistServer, OverlongRecoveredKeyFailsStart) {
  TempDir dir;
  {
    persist::Wal wal;
    std::string err;
    persist::Wal::Options o;
    o.durability = persist::Durability::kNone;
    ASSERT_TRUE(wal.Open(dir.path, persist::WalResume{}, o, &err)) << err;
    wal.Append(persist::kWalPut, K(Key(1)), 1);
    wal.Append(persist::kWalPut, K(std::string(kMaxKeyBytes, 'x')), 2);
    ASSERT_TRUE(wal.Flush(true, &err)) << err;
    wal.Close();
  }
  KvServer server(DurableServer(dir.path, persist::Durability::kSync));
  std::string err;
  EXPECT_FALSE(server.Start(&err));
  EXPECT_NE(err.find("256 bytes"), std::string::npos) << err;
}

TEST(PersistServer, BadDataDirFailsStartLoudly) {
  ServerOptions opt =
      DurableServer("/nonexistent/hot-persist-dir", persist::Durability::kSync);
  KvServer server(opt);
  std::string err;
  EXPECT_FALSE(server.Start(&err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace net
}  // namespace hot
