// End-to-end differential tier for the KV server (net/server.h):
//
//   * sync-op sanity over a real socket (created flags, replaced values,
//     scan contents), and a long pipelined stream of large SCAN replies
//     whose reads straddle frames;
//   * out-of-order completion: pipelined GETs defer into the end-of-
//     iteration batch drain while writes reply inline, so arrival order is
//     NOT request order — clients must match by id, and this test pins both
//     that reordering happens and that every reply is correct;
//   * seeded mixed-op traces (testing/trace.h) replayed through loopback
//     sockets via net/net_differ.h, every reply diffed against the Patricia
//     oracle, across integer and string keyspace families — with the
//     scheduler both in batched and forced-scalar mode (same trace, same
//     answers, different drain counters);
//   * 4 client threads hammering ONE server concurrently over disjoint key
//     ranges, each diffing its own replies against its own oracle, scans
//     checked for global sortedness and key/value consistency, followed by
//     a quiesced full-content audit against the union oracle;
//   * 4 client threads overwriting shared keys: values swap in place (one
//     record per key) and every PUT's prev value fits one per-key chain.

#include <algorithm>
#include <atomic>
#include <memory>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/extractors.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/net_differ.h"
#include "net/server.h"
#include "patricia/patricia.h"
#include "testing/keyspace.h"
#include "testing/trace.h"

namespace hot {
namespace net {
namespace {

KeyRef K(const std::string& s) { return KeyRef(s); }

ServerOptions SmallServer(unsigned workers = 1) {
  ServerOptions opt;
  opt.workers = workers;
  opt.shards = 8;
  opt.batch_low_watermark = 4;
  return opt;
}

TEST(NetServer, SyncOpsBasics) {
  KvServer server(SmallServer());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;

  Reply reply;
  ASSERT_TRUE(c.Put(K("apple"), 1, &reply, &err));
  EXPECT_TRUE(reply.ok());
  EXPECT_TRUE(reply.created);
  ASSERT_TRUE(c.Put(K("apple"), 2, &reply, &err));
  EXPECT_TRUE(reply.ok());
  EXPECT_FALSE(reply.created);
  EXPECT_EQ(reply.prev, 1u);  // the value it replaced
  ASSERT_TRUE(c.Put(K("banana"), 3, &reply, &err));
  ASSERT_TRUE(c.Put(K("cherry"), 4, &reply, &err));

  ASSERT_TRUE(c.Get(K("apple"), &reply, &err));
  EXPECT_EQ(reply.status, kOk);
  EXPECT_EQ(reply.value, 2u);
  ASSERT_TRUE(c.Get(K("durian"), &reply, &err));
  EXPECT_EQ(reply.status, kNotFound);

  ASSERT_TRUE(c.Scan(K("b"), 10, &reply, &err));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.scan.size(), 2u);
  EXPECT_EQ(reply.scan[0].key, "banana");
  EXPECT_EQ(reply.scan[0].value, 3u);
  EXPECT_EQ(reply.scan[1].key, "cherry");
  EXPECT_EQ(reply.scan[1].value, 4u);

  ASSERT_TRUE(c.Delete(K("banana"), &reply, &err));
  EXPECT_EQ(reply.status, kOk);
  ASSERT_TRUE(c.Delete(K("banana"), &reply, &err));
  EXPECT_EQ(reply.status, kNotFound);
  EXPECT_EQ(server.live_keys(), 2u);
}

// Pipelined GETs around an inline-answered PUT: the PUT's reply overtakes
// the GETs queued before it.  Correctness is id-matched; the reordering
// itself is asserted to actually occur (across attempts — a single
// iteration window is all it takes with one flushed burst).
TEST(NetServer, OutOfOrderBatchedCompletions) {
  KvServer server(SmallServer());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  Reply reply;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        c.Put(K("ooo-" + std::to_string(i)), 1000 + i, &reply, &err));
  }

  bool observed_reorder = false;
  for (int attempt = 0; attempt < 50 && !observed_reorder; ++attempt) {
    // One burst: 8 GETs then a PUT, flushed as a single write.
    std::vector<uint64_t> get_ids;
    for (int i = 0; i < 8; ++i) {
      get_ids.push_back(c.SendGet(K("ooo-" + std::to_string(i))));
    }
    uint64_t put_id = c.SendPut(K("ooo-probe"), 7);
    ASSERT_TRUE(c.Flush(&err)) << err;
    std::map<uint64_t, Reply> replies;
    std::vector<uint64_t> arrival;
    while (replies.size() < 9) {
      Reply r;
      ASSERT_TRUE(c.ReadReply(&r, &err)) << err;
      arrival.push_back(r.id);
      replies[r.id] = std::move(r);
    }
    // Every GET answered correctly regardless of order.
    for (int i = 0; i < 8; ++i) {
      const Reply& r = replies[get_ids[i]];
      ASSERT_EQ(r.status, kOk);
      ASSERT_EQ(r.value, 1000u + static_cast<unsigned>(i));
    }
    ASSERT_TRUE(replies[put_id].ok());
    // Reordered iff the PUT (sent last) was answered before some GET.
    if (arrival.front() == put_id) observed_reorder = true;
  }
  EXPECT_TRUE(observed_reorder)
      << "batched GETs never completed out of request order";
  ServerStats s = server.StatsSnapshot();
  EXPECT_GT(s.batch_drains, 0u) << "wide GET bursts never took the batch path";
  EXPECT_GE(s.max_batch, 8u);
}

// A long pipelined stream of large SCAN replies: 64 KiB reads end inside
// frames almost every time, so the client keeps a partial frame across
// reads (and drops what it consumed) over and over.  Every reply must
// still parse to the exact scan.
TEST(NetServer, PipelinedScansStraddlingReadsAllParse) {
  KvServer server(SmallServer());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  constexpr int kKeys = 3000;
  auto key_of = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "straddle-%06d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kKeys; ++i) c.SendPut(K(key_of(i)), i);
  ASSERT_TRUE(c.Flush(&err)) << err;
  Reply reply;
  while (c.outstanding() > 0) {
    ASSERT_TRUE(c.ReadReply(&reply, &err)) << err;
    ASSERT_TRUE(reply.ok());
  }

  // 4 rounds of 64 scans of 700 entries (~20 KB per reply): 5 MB in all.
  constexpr uint32_t kLimit = 700;
  for (int round = 0; round < 4; ++round) {
    std::map<uint64_t, int> start_of;
    for (int s = 0; s < 64; ++s) {
      int start = (s * 37 + round * 11) % kKeys;
      start_of[c.SendScan(K(key_of(start)), kLimit)] = start;
    }
    ASSERT_TRUE(c.Flush(&err)) << err;
    for (int s = 0; s < 64; ++s) {
      ASSERT_TRUE(c.ReadReply(&reply, &err)) << err;
      ASSERT_TRUE(reply.ok());
      auto it = start_of.find(reply.id);
      ASSERT_NE(it, start_of.end());
      const int start = it->second;
      const size_t want = std::min<size_t>(kLimit, kKeys - start);
      ASSERT_EQ(reply.scan.size(), want);
      for (size_t j = 0; j < want; ++j) {
        ASSERT_EQ(reply.scan[j].key, key_of(start + static_cast<int>(j)));
        ASSERT_EQ(reply.scan[j].value, static_cast<uint64_t>(start + j));
      }
      start_of.erase(it);
    }
  }
  EXPECT_EQ(c.outstanding(), 0u);
}

// --- seeded trace differentials over loopback --------------------------------

class NetTraceDifferential
    : public ::testing::TestWithParam<hot::testing::KeySpaceKind> {};

TEST_P(NetTraceDifferential, BatchedModeMatchesOracle) {
  hot::testing::TraceGenConfig cfg;
  cfg.kind = GetParam();
  cfg.n = 1500;
  cfg.seed = 0x5eed0001;
  cfg.num_ops = 15000;
  cfg.audit_every = 3000;
  hot::testing::Trace trace = hot::testing::GenerateTrace(cfg);

  NetDiffOptions opts;
  opts.pipeline_width = 24;
  opts.server = SmallServer();
  NetDiffResult res = RunTraceOverNet(trace, opts);
  EXPECT_TRUE(res.ok) << res.Describe();
  // The pipelined lookups must actually have exercised the batch drain.
  EXPECT_GT(res.stats.batch_drains, 0u);
  EXPECT_EQ(res.stats.protocol_errors, 0u);
}

TEST_P(NetTraceDifferential, ScalarModeMatchesOracle) {
  hot::testing::TraceGenConfig cfg;
  cfg.kind = GetParam();
  cfg.n = 1000;
  cfg.seed = 0x5eed0002;
  cfg.num_ops = 8000;
  cfg.audit_every = 4000;
  hot::testing::Trace trace = hot::testing::GenerateTrace(cfg);

  NetDiffOptions opts;
  opts.pipeline_width = 24;
  opts.server = SmallServer();
  opts.server.force_scalar = true;
  NetDiffResult res = RunTraceOverNet(trace, opts);
  EXPECT_TRUE(res.ok) << res.Describe();
  EXPECT_EQ(res.stats.batch_drains, 0u);
  EXPECT_GT(res.stats.scalar_gets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Keyspaces, NetTraceDifferential,
    ::testing::Values(hot::testing::KeySpaceKind::kUniform,
                      hot::testing::KeySpaceKind::kDense,
                      hot::testing::KeySpaceKind::kPrefix,
                      hot::testing::KeySpaceKind::kUrl,
                      hot::testing::KeySpaceKind::kEmail),
    [](const auto& info) {
      return std::string(hot::testing::KeySpaceKindName(info.param));
    });

// --- 4 concurrent client threads against one server --------------------------

// Each thread owns a disjoint quarter of the keyspace indices, so its
// private Patricia oracle stays exact under concurrency.  SCANs cross
// ownership boundaries; they are checked for strict global key order and
// for key/value consistency (the value returned with a key must be the
// value whose extractor image IS that key — any torn read or misrouted
// bucket breaks one of the two).
TEST(NetServer, FourClientThreadsDifferential) {
  constexpr unsigned kThreads = 4;
  constexpr uint32_t kN = 4000;
  constexpr int kOpsPerThread = 8000;

  hot::testing::KeySpace ks = hot::testing::BuildKeySpace(
      hot::testing::KeySpaceKind::kEmail, kN, 0xc0ffee);
  ASSERT_EQ(ks.size(), kN);
  StringTableExtractor extractor(&ks.strings);

  KvServer server(SmallServer(/*workers=*/2));
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  std::atomic<bool> failed{false};
  std::vector<std::string> errors(kThreads);
  std::vector<std::unique_ptr<PatriciaTrie<StringTableExtractor>>> oracles;
  for (unsigned t = 0; t < kThreads; ++t) {
    oracles.push_back(
        std::make_unique<PatriciaTrie<StringTableExtractor>>(extractor));
  }

  auto worker = [&](unsigned t) {
    auto fail = [&](const std::string& what) {
      errors[t] = what;
      failed.store(true);
    };
    KvClient c;
    std::string cerr;
    if (!c.Connect("127.0.0.1", server.port(), &cerr)) {
      return fail("connect: " + cerr);
    }
    PatriciaTrie<StringTableExtractor>& oracle = *oracles[t];
    const uint32_t lo = t * (kN / kThreads);
    const uint32_t hi = (t + 1) * (kN / kThreads);
    std::mt19937_64 rng(1000 + t);
    // In-flight pipelined GETs: id -> (key idx, expected at send time).
    std::map<uint64_t, std::pair<uint32_t, std::optional<uint64_t>>> inflight;
    auto drain = [&]() -> bool {
      if (inflight.empty()) return true;
      if (!c.Flush(&cerr)) {
        fail("flush: " + cerr);
        return false;
      }
      size_t want = inflight.size();
      for (size_t i = 0; i < want; ++i) {
        Reply r;
        if (!c.ReadReply(&r, &cerr)) {
          fail("read: " + cerr);
          return false;
        }
        auto it = inflight.find(r.id);
        if (it == inflight.end()) {
          fail("unknown reply id");
          return false;
        }
        std::optional<uint64_t> want_v = it->second.second;
        if (want_v.has_value() != (r.status == kOk) ||
            (want_v && *want_v != r.value)) {
          fail("GET diverged on key idx " + std::to_string(it->second.first));
          return false;
        }
        inflight.erase(it);
      }
      return true;
    };
    for (int op = 0; op < kOpsPerThread && !failed.load(); ++op) {
      uint32_t idx = lo + static_cast<uint32_t>(rng() % (hi - lo));
      uint64_t v = ks.ValueOf(idx);
      KeyScratch scratch;
      KeyRef key = extractor(v, scratch);
      unsigned dice = rng() % 100;
      if (dice < 45) {  // pipelined lookup
        std::optional<uint64_t> expect = oracle.Lookup(key);
        inflight[c.SendGet(key)] = {idx, expect};
        if (inflight.size() >= 16 && !drain()) return;
      } else if (dice < 75) {  // put
        if (!drain()) return;
        bool inserted = oracle.Insert(v);
        Reply r;
        if (!c.Put(key, v, &r, &cerr)) return fail("put: " + cerr);
        if (!r.ok() || r.created != inserted) {
          return fail("PUT created flag diverged at idx " +
                      std::to_string(idx));
        }
        if (!r.created && r.prev != v) {
          return fail("PUT prev value diverged at idx " + std::to_string(idx));
        }
      } else if (dice < 90) {  // delete
        if (!drain()) return;
        bool want = oracle.Remove(key);
        Reply r;
        if (!c.Delete(key, &r, &cerr)) return fail("delete: " + cerr);
        if ((r.status == kOk) != want) {
          return fail("DELETE diverged at idx " + std::to_string(idx));
        }
      } else {  // cross-ownership scan: order + key/value consistency
        if (!drain()) return;
        Reply r;
        if (!c.Scan(key, 32, &r, &cerr)) return fail("scan: " + cerr);
        if (!r.ok()) return fail("scan status");
        for (size_t i = 0; i < r.scan.size(); ++i) {
          if (i > 0 &&
              KeyRef(r.scan[i - 1].key).Compare(KeyRef(r.scan[i].key)) >= 0) {
            return fail("scan results out of order");
          }
          KeyScratch s2;
          KeyRef image = extractor(r.scan[i].value, s2);
          if (image.Compare(KeyRef(r.scan[i].key)) != 0) {
            return fail("scan key/value inconsistency");
          }
        }
      }
    }
    drain();
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(failed.load() && !errors[t].empty())
        << "thread " << t << ": " << errors[t];
  }
  ASSERT_FALSE(failed.load());

  // Quiesced: full-content audit against the union of the 4 oracles
  // (disjoint idx ranges, so the union is well-defined).
  std::vector<uint64_t> want;
  for (auto& oracle : oracles) {
    oracle->ScanFrom(KeyRef(), [&](uint64_t v) {
      want.push_back(v);
      return true;
    });
  }
  std::sort(want.begin(), want.end(), [&](uint64_t a, uint64_t b) {
    KeyScratch sa, sb;
    return extractor(a, sa).Compare(extractor(b, sb)) < 0;
  });
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  std::vector<ScanEntry> got;
  std::string last;
  bool first = true;
  while (true) {
    Reply r;
    ASSERT_TRUE(c.Scan(first ? KeyRef() : KeyRef(last), 512, &r, &err)) << err;
    ASSERT_TRUE(r.ok());
    for (ScanEntry& e : r.scan) {
      if (!first && KeyRef(e.key).Compare(KeyRef(last)) <= 0) continue;
      got.push_back(std::move(e));
    }
    if (r.scan.size() < 512) break;
    ASSERT_FALSE(got.empty());
    last = got.back().key;
    first = false;
  }
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(server.live_keys(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].value, want[i]) << "audit diverged at position " << i;
    KeyScratch s2;
    ASSERT_EQ(KeyRef(got[i].key).Compare(extractor(want[i], s2)), 0)
        << "audit key bytes diverged at position " << i;
  }
  ServerStats s = server.StatsSnapshot();
  EXPECT_GT(s.batch_drains, 0u);
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.bad_requests, 0u);
}

// --- in-place overwrite under contention -----------------------------------

// 4 client threads over 2 workers overwrite K shared keys.  A PUT to a key
// the index holds must swap the value inside its record, so the store ends
// with exactly K records however many overwrites land.  Every value is
// unique, so the (prev -> value) edges of one key's PUTs must form a single
// chain from its creating PUT through every other PUT — a lost or doubled
// overwrite breaks the chain — with each thread's own PUTs in program order
// along it, and the chain's end is the value a final GET serves.
TEST(NetServer, OverwritesSwapValuesInPlace) {
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kKeys = 16;
  constexpr int kPutsPerThread = 2000;
  auto key_of = [](uint64_t k) { return "ow-" + std::to_string(k); };
  // Value layout: key index << 40 | thread << 32 | per-thread sequence.
  auto value_of = [](uint64_t k, unsigned t, int seq) {
    return k << 40 | uint64_t{t} << 32 | static_cast<uint64_t>(seq);
  };

  KvServer server(SmallServer(/*workers=*/2));
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  struct PutRecord {
    uint64_t key;
    uint64_t value;
    bool created;
    uint64_t prev;
  };
  std::vector<std::vector<PutRecord>> history(kThreads);
  std::vector<std::string> errors(kThreads);
  std::latch start(kThreads);
  auto worker = [&](unsigned t) {
    KvClient c;
    std::string cerr;
    bool connected = c.Connect("127.0.0.1", server.port(), &cerr);
    start.arrive_and_wait();
    if (!connected) {
      errors[t] = "connect: " + cerr;
      return;
    }
    std::mt19937_64 rng(77 + t);
    for (int i = 0; i < kPutsPerThread; ++i) {
      // Every thread creates the keys in the same order, so the creating
      // PUTs race each other; random keys after that.
      uint64_t k = i < static_cast<int>(kKeys) ? i : rng() % kKeys;
      uint64_t v = value_of(k, t, i);
      Reply r;
      if (!c.Put(K(key_of(k)), v, &r, &cerr) || !r.ok()) {
        errors[t] = "put " + std::to_string(i) + ": " + cerr;
        return;
      }
      history[t].push_back({k, v, r.created, r.prev});
      if (i % 4 == 3) {  // GETs race the overwrites; any value seen must
        uint64_t g = rng() % kKeys;  // have been written to that key
        if (!c.Get(K(key_of(g)), &r, &cerr)) {
          errors[t] = "get: " + cerr;
          return;
        }
        if (r.ok() && r.value >> 40 != g) {
          errors[t] = "GET returned another key's value";
          return;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }

  std::vector<std::vector<PutRecord>> per_key(kKeys);
  for (const auto& h : history) {
    for (const PutRecord& p : h) per_key[p.key].push_back(p);
  }
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  uint64_t keys_written = 0;
  uint64_t key_bytes_written = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    const std::vector<PutRecord>& puts = per_key[k];
    if (puts.empty()) continue;
    ++keys_written;
    key_bytes_written += key_of(k).size() + 2;  // NUL-free: one shared copy
    std::map<uint64_t, uint64_t> next;  // prev value -> value that replaced it
    std::optional<uint64_t> head;
    for (const PutRecord& p : puts) {
      if (p.created) {
        ASSERT_FALSE(head.has_value()) << "key " << k << " created twice";
        head = p.value;
      } else {
        ASSERT_EQ(p.prev >> 40, k) << "prev from another key";
        ASSERT_TRUE(next.emplace(p.prev, p.value).second)
            << "key " << k << ": value " << p.prev << " overwritten twice";
      }
    }
    ASSERT_TRUE(head.has_value()) << "key " << k << " never created";
    std::map<unsigned, uint64_t> last_seq;  // thread -> last sequence seen
    uint64_t cur = *head;
    size_t walked = 1;
    while (true) {
      unsigned t = static_cast<unsigned>(cur >> 32 & 0xff);
      uint64_t seq = cur & 0xffffffffu;
      auto seen = last_seq.find(t);
      ASSERT_TRUE(seen == last_seq.end() || seen->second < seq)
          << "key " << k << ": thread " << t << " PUTs out of program order";
      last_seq[t] = seq;
      auto it = next.find(cur);
      if (it == next.end()) break;
      cur = it->second;
      ++walked;
    }
    ASSERT_EQ(walked, puts.size()) << "key " << k << ": chain broken";
    Reply r;
    ASSERT_TRUE(c.Get(K(key_of(k)), &r, &err)) << err;
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, cur) << "key " << k << " serves a superseded value";
  }

  const uint64_t total = uint64_t{kThreads} * kPutsPerThread;
  EXPECT_EQ(server.store().appended(), keys_written);
  EXPECT_EQ(server.live_keys(), keys_written);
  ServerStats s = server.StatsSnapshot();
  EXPECT_EQ(s.puts, total);
  EXPECT_EQ(s.records_appended, keys_written);
  EXPECT_EQ(s.record_key_bytes, key_bytes_written);
  EXPECT_EQ(s.puts_in_place, total - keys_written);
  EXPECT_EQ(s.record_store_full, 0u);
}

}  // namespace
}  // namespace net
}  // namespace hot
