// Protocol tier for the network front-end (net/protocol.h, net/server.h):
//
//   * codec round-trips for every opcode and every reply shape;
//   * malformed-frame containment against a LIVE server: truncated length
//     prefixes, zero and huge declared lengths, unknown opcodes, oversized
//     keys — each must produce a clean error reply or a clean close, never
//     a crash or an out-of-bounds read (this binary runs under ASan in CI's
//     `net` job);
//   * partial-I/O torture: requests dribbled one byte at a time and replies
//     read one byte at a time must parse identically to bulk I/O;
//   * mid-request disconnects: connections abandoned with half a frame
//     buffered must be fully reaped (no fd/buffer leak, proven through
//     ServerStats::connections_open());
//   * key escape order/prefix properties, record-store exhaustion, and the
//     bulk append restart uses (every thread count writes the records a
//     TryAppend loop writes).

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/record_store.h"
#include "net/server.h"

namespace hot {
namespace net {
namespace {

using ::testing::Test;

// --- codec round-trips (no sockets) -----------------------------------------

KeyRef K(const char* s) {
  return KeyRef(reinterpret_cast<const uint8_t*>(s), strlen(s));
}

// Frames the encoder produced must come back through NextFrame+ParseRequest
// bit-exact.
TEST(NetProtocolCodec, RequestRoundTripEveryOpcode) {
  std::vector<uint8_t> buf;
  EncodeGet(&buf, 7, K("alpha"));
  EncodePut(&buf, 8, K("beta"), 0xdeadbeefcafe0123ull);
  EncodeDelete(&buf, 9, K("gamma"));
  EncodeScan(&buf, 10, K("delta"), 4096);

  size_t off = 0;
  auto next = [&](Request* req) {
    const uint8_t* body = nullptr;
    size_t body_len = 0, consumed = 0;
    FrameVerdict v = NextFrame(buf.data() + off, buf.size() - off,
                               kDefaultMaxFrameBody, &body, &body_len,
                               &consumed);
    ASSERT_EQ(v, FrameVerdict::kHaveFrame);
    std::string err;
    ASSERT_EQ(ParseRequest(body, body_len, req, &err), ParseVerdict::kParsedOk)
        << err;
    off += consumed;
  };

  Request r;
  next(&r);
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.op, kOpGet);
  EXPECT_EQ(r.key, K("alpha"));
  next(&r);
  EXPECT_EQ(r.id, 8u);
  EXPECT_EQ(r.op, kOpPut);
  EXPECT_EQ(r.key, K("beta"));
  EXPECT_EQ(r.value, 0xdeadbeefcafe0123ull);
  next(&r);
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.op, kOpDelete);
  EXPECT_EQ(r.key, K("gamma"));
  next(&r);
  EXPECT_EQ(r.id, 10u);
  EXPECT_EQ(r.op, kOpScan);
  EXPECT_EQ(r.key, K("delta"));
  EXPECT_EQ(r.scan_limit, 4096u);
  EXPECT_EQ(off, buf.size());
}

TEST(NetProtocolCodec, ReplyRoundTripEveryShape) {
  std::string err;
  Reply reply;
  {
    std::vector<uint8_t> buf;
    EncodeGetReply(&buf, 1, true, 42);
    ASSERT_TRUE(ParseReply(buf.data() + 4, buf.size() - 4, kOpGet, &reply,
                           &err))
        << err;
    EXPECT_EQ(reply.id, 1u);
    EXPECT_EQ(reply.status, kOk);
    EXPECT_EQ(reply.value, 42u);
  }
  {
    std::vector<uint8_t> buf;
    EncodeGetReply(&buf, 2, false, 0);
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpGet, &reply, &err));
    EXPECT_EQ(reply.status, kNotFound);
  }
  {
    std::vector<uint8_t> buf;
    EncodePutReply(&buf, 3, true, 0);
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpPut, &reply, &err));
    EXPECT_TRUE(reply.created);
  }
  {
    std::vector<uint8_t> buf;
    EncodePutReply(&buf, 4, false, 99);
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpPut, &reply, &err));
    EXPECT_FALSE(reply.created);
    EXPECT_EQ(reply.prev, 99u);
  }
  {
    std::vector<uint8_t> buf;
    EncodeDeleteReply(&buf, 5, true);
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpDelete, &reply, &err));
    EXPECT_EQ(reply.status, kOk);
  }
  {
    std::vector<uint8_t> buf;
    ScanReplyBuilder b(&buf, 6);
    b.Add(K("k1"), 11);
    b.Add(K("k2"), 22);
    b.Finish();
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpScan, &reply, &err))
        << err;
    ASSERT_EQ(reply.scan.size(), 2u);
    EXPECT_EQ(reply.scan[0].key, "k1");
    EXPECT_EQ(reply.scan[0].value, 11u);
    EXPECT_EQ(reply.scan[1].key, "k2");
    EXPECT_EQ(reply.scan[1].value, 22u);
  }
  {
    std::vector<uint8_t> buf;
    EncodeErrorReply(&buf, 7, kBadRequest, "nope");
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpGet, &reply, &err));
    EXPECT_EQ(reply.status, kBadRequest);
    EXPECT_EQ(reply.error, "nope");
  }
  {
    // Server-fault status (WAL commit failure): carries a message like the
    // other error statuses but is distinguishable from bad input.
    std::vector<uint8_t> buf;
    EncodeErrorReply(&buf, 8, kServerError, "wal commit: fsync");
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpPut, &reply, &err));
    EXPECT_EQ(reply.status, kServerError);
    EXPECT_EQ(reply.error, "wal commit: fsync");
  }
}

// NextFrame must report kNeedMore for every strict prefix of a frame and
// never touch bytes beyond `size` (ASan-checked via exact-size heap copies).
TEST(NetProtocolCodec, IncrementalFramingEveryPrefix) {
  std::vector<uint8_t> frame;
  EncodePut(&frame, 77, K("incremental"), 123);
  for (size_t len = 0; len < frame.size(); ++len) {
    // Exact-size allocation: one byte past `len` is redzone under ASan.
    std::vector<uint8_t> prefix(frame.begin(), frame.begin() + len);
    const uint8_t* body;
    size_t body_len, consumed;
    EXPECT_EQ(NextFrame(prefix.data(), prefix.size(), kDefaultMaxFrameBody,
                        &body, &body_len, &consumed),
              FrameVerdict::kNeedMore)
        << "prefix length " << len;
  }
  const uint8_t* body;
  size_t body_len, consumed;
  EXPECT_EQ(NextFrame(frame.data(), frame.size(), kDefaultMaxFrameBody, &body,
                      &body_len, &consumed),
            FrameVerdict::kHaveFrame);
  EXPECT_EQ(consumed, frame.size());
}

TEST(NetProtocolCodec, BadDeclaredLengths) {
  const uint8_t* body;
  size_t body_len, consumed;
  // Zero declared length (< kMinBody).
  uint8_t zero[8] = {0, 0, 0, 0, 1, 2, 3, 4};
  EXPECT_EQ(NextFrame(zero, sizeof(zero), kDefaultMaxFrameBody, &body,
                      &body_len, &consumed),
            FrameVerdict::kBadLength);
  // Sub-minimum declared length.
  uint8_t tiny[8] = {8, 0, 0, 0, 1, 2, 3, 4};
  EXPECT_EQ(NextFrame(tiny, sizeof(tiny), kDefaultMaxFrameBody, &body,
                      &body_len, &consumed),
            FrameVerdict::kBadLength);
  // Huge declared length: rejected from the 4 length bytes alone — the
  // server must NOT wait for (or try to buffer) 4 GiB.
  uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(NextFrame(huge, sizeof(huge), kDefaultMaxFrameBody, &body,
                      &body_len, &consumed),
            FrameVerdict::kBadLength);
}

TEST(NetProtocolCodec, ParseRequestRejectsMalformedBodies) {
  auto parse = [](std::vector<uint8_t> body) {
    // Exact-size heap buffer: any over-read trips ASan.
    Request req;
    return ParseRequest(body.data(), body.size(), &req, nullptr);
  };
  auto body = [](uint8_t op, std::vector<uint8_t> payload) {
    std::vector<uint8_t> b;
    PutU64(&b, 1234);
    b.push_back(op);
    b.insert(b.end(), payload.begin(), payload.end());
    return b;
  };
  // Unknown opcodes.
  EXPECT_EQ(parse(body(0, {})), ParseVerdict::kParseBadRequest);
  EXPECT_EQ(parse(body(99, {})), ParseVerdict::kParseBadRequest);
  // Truncated key length.
  EXPECT_EQ(parse(body(kOpGet, {})), ParseVerdict::kParseBadRequest);
  EXPECT_EQ(parse(body(kOpGet, {5})), ParseVerdict::kParseBadRequest);
  // Key length pointing past the declared body.
  EXPECT_EQ(parse(body(kOpGet, {100, 0, 'a', 'b'})),
            ParseVerdict::kParseBadRequest);
  // Key over the wire limit (frame itself is consistent).
  {
    std::vector<uint8_t> payload;
    PutU16(&payload, kMaxKeyLen + 1);
    payload.insert(payload.end(), kMaxKeyLen + 1, 'x');
    EXPECT_EQ(parse(body(kOpGet, payload)), ParseVerdict::kParseKeyTooLong);
  }
  // PUT without its value / with trailing junk.
  EXPECT_EQ(parse(body(kOpPut, {1, 0, 'k'})), ParseVerdict::kParseBadRequest);
  {
    std::vector<uint8_t> payload = {1, 0, 'k'};
    payload.insert(payload.end(), 9, 0);  // 8 value bytes + 1 extra
    EXPECT_EQ(parse(body(kOpPut, payload)), ParseVerdict::kParseBadRequest);
  }
  // SCAN with a zero limit.
  EXPECT_EQ(parse(body(kOpScan, {1, 0, 'k', 0, 0, 0, 0})),
            ParseVerdict::kParseBadRequest);
  // GET with trailing bytes after the key.
  EXPECT_EQ(parse(body(kOpGet, {1, 0, 'k', 0})),
            ParseVerdict::kParseBadRequest);
}

// Deterministic garbage must never crash or over-read either parser.
TEST(NetProtocolCodec, RandomGarbageNeverOverReads) {
  std::mt19937_64 rng(0xfeedface);
  for (int iter = 0; iter < 5000; ++iter) {
    size_t len = rng() % 64;
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng());
    if (len >= kMinBody) {
      Request req;
      ParseRequest(junk.data(), junk.size(), &req, nullptr);
    }
    Reply reply;
    std::string err;
    for (uint8_t op : {kOpGet, kOpPut, kOpDelete, kOpScan}) {
      ParseReply(junk.data(), junk.size(), op, &reply, &err);
    }
    const uint8_t* body;
    size_t body_len, consumed;
    NextFrame(junk.data(), junk.size(), kDefaultMaxFrameBody, &body, &body_len,
              &consumed);
  }
}

// --- key escape (net/record_store.h) ----------------------------------------

TEST(NetKeyEscape, OrderPreservingAndPrefixFree) {
  std::mt19937_64 rng(42);
  auto random_key = [&]() {
    size_t len = rng() % 12;
    std::vector<uint8_t> k(len);
    for (auto& b : k) b = static_cast<uint8_t>(rng() % 4);  // NUL-heavy
    return k;
  };
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<uint8_t> a = random_key(), b = random_key();
    std::vector<uint8_t> ea, eb;
    EscapeKey(KeyRef(a.data(), a.size()), &ea);
    EscapeKey(KeyRef(b.data(), b.size()), &eb);
    ASSERT_EQ(ea.size(), EscapedKeyLength(KeyRef(a.data(), a.size())));
    int raw = KeyRef(a.data(), a.size()).Compare(KeyRef(b.data(), b.size()));
    int esc = KeyRef(ea.data(), ea.size()).Compare(KeyRef(eb.data(), eb.size()));
    ASSERT_EQ(raw < 0, esc < 0) << iter;
    ASSERT_EQ(raw == 0, esc == 0) << iter;
    // Prefix-freeness: distinct keys never escape to a prefix of another.
    if (raw != 0) {
      size_t min = std::min(ea.size(), eb.size());
      ASSERT_NE(memcmp(ea.data(), eb.data(), min), 0)
          << "escaped form is a prefix of another";
    }
  }
}

// --- record store (net/record_store.h) -------------------------------------

// A one-chunk budget makes exhaustion reachable: TryAppend must refuse the
// record past capacity without touching the ones already stored, and
// Append must abort with a message rather than write out of bounds.
TEST(NetRecordStore, TryAppendReportsExhaustion) {
  RecordStore store(/*max_chunks=*/1);
  ASSERT_EQ(store.capacity(), RecordStore::kChunkRecords);
  auto key_of = [](uint64_t i) {
    std::string k = "rec-" + std::to_string(i);
    k.push_back('\0');  // exercises the escape's NUL expansion
    k += std::to_string(i % 7);
    return k;
  };
  for (uint64_t i = 0; i < store.capacity(); ++i) {
    std::string k = key_of(i);
    std::optional<uint64_t> id = store.TryAppend(KeyRef(k), i * 3);
    ASSERT_TRUE(id.has_value()) << i;
    ASSERT_EQ(*id, i);
  }
  EXPECT_FALSE(store.TryAppend(K("one-too-many"), 1).has_value());
  EXPECT_EQ(store.appended(), store.capacity());
  for (uint64_t i = 0; i < store.capacity(); i += 997) {
    std::string k = key_of(i);
    std::vector<uint8_t> esc;
    EscapeKey(KeyRef(k), &esc);
    const RecordStore::Record& rec = store.At(i);
    EXPECT_EQ(rec.raw_key().Compare(KeyRef(k)), 0) << i;
    EXPECT_EQ(rec.escaped_key().Compare(KeyRef(esc.data(), esc.size())), 0)
        << i;
    EXPECT_EQ(rec.value.load(), i * 3) << i;
  }
  // In-place overwrite hands back the old value and keeps the key.
  EXPECT_EQ(store.At(5).value.exchange(77), 15u);
  EXPECT_EQ(store.At(5).value.load(), 77u);
  EXPECT_EQ(store.At(5).raw_key().Compare(KeyRef(key_of(5))), 0);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(store.Append(K("one-too-many"), 1), "capacity");
}

// Appends `raw` and checks both key views against EscapeKey, plus the
// layout: a NUL-free key's two views share one `raw || 00 00` copy
// (escaped length bytes), a NUL-containing key keeps raw then escaped.
void AppendAndCheck(RecordStore* store, const std::string& raw) {
  KeyRef key(raw);
  std::vector<uint8_t> esc;
  EscapeKey(key, &esc);
  bool nul_free = raw.find('\0') == std::string::npos;
  uint64_t before = store->key_bytes();
  uint64_t id = store->Append(key, 9);
  const RecordStore::Record& rec = store->At(id);
  EXPECT_EQ(rec.raw_key().Compare(key), 0);
  EXPECT_EQ(rec.escaped_key().Compare(KeyRef(esc.data(), esc.size())), 0);
  EXPECT_EQ(rec.escaped_key().data() == rec.raw_key().data(), nul_free);
  EXPECT_EQ(store->key_bytes() - before,
            nul_free ? EscapedKeyLength(key) : raw.size() + esc.size());
}

TEST(NetRecordStore, NulFreeKeysAreStoredOnce) {
  RecordStore store;
  AppendAndCheck(&store, "");
  AppendAndCheck(&store, "user:alice@example.com");
  AppendAndCheck(&store, std::string("\0a\0\0b\0", 6));
  AppendAndCheck(&store, std::string(4, '\0'));
  // Escaped forms of exactly kMaxKeyBytes, without and with NULs.
  std::string longest(kMaxKeyBytes - 2, 'x');
  ASSERT_TRUE(KeyFitsIndex(KeyRef(longest)));
  AppendAndCheck(&store, longest);
  std::string longest_nul(kMaxKeyBytes - 4, 'y');
  longest_nul[7] = '\0';
  longest_nul[100] = '\0';
  ASSERT_EQ(EscapedKeyLength(KeyRef(longest_nul)), kMaxKeyBytes);
  AppendAndCheck(&store, longest_nul);
  EXPECT_EQ(store.appended(), 6u);
}

// Enough ~250 B keys to fill several key-byte blocks: every record must
// still resolve to its own bytes once later blocks have been allocated.
TEST(NetRecordStore, KeysSpanManyBlocks) {
  RecordStore store;
  auto key_of = [](uint64_t i) {
    std::string k = std::to_string(i) + ":";
    k.resize(240 + i % 14, static_cast<char>('a' + i % 26));
    if (i % 5 == 0) k[k.size() / 2] = '\0';  // every fifth key keeps 2 copies
    return k;
  };
  uint64_t expected_bytes = 0;
  uint64_t n = 0;
  while (expected_bytes <= 3 * RecordStore::kBlockBytes + 4096) {
    std::string k = key_of(n);
    size_t esc = EscapedKeyLength(KeyRef(k));
    bool nul_free = esc == k.size() + 2;
    expected_bytes += nul_free ? esc : k.size() + esc;
    ASSERT_EQ(store.Append(KeyRef(k), n), n);
    ASSERT_EQ(store.key_bytes(), expected_bytes) << n;
    ++n;
  }
  for (uint64_t i = 0; i < n; ++i) {
    std::string k = key_of(i);
    std::vector<uint8_t> esc;
    EscapeKey(KeyRef(k), &esc);
    const RecordStore::Record& rec = store.At(i);
    ASSERT_EQ(rec.raw_key().Compare(KeyRef(k)), 0) << i;
    ASSERT_EQ(rec.escaped_key().Compare(KeyRef(esc.data(), esc.size())), 0)
        << i;
    ASSERT_EQ(rec.value.load(), i);
  }
}

// Bulk-append keys: NUL-free, NUL-heavy and empty, in image order.
std::string BulkKey(uint64_t i) {
  if (i % 97 == 0) return "";
  std::string k = "bulk-" + std::to_string(i);
  if (i % 3 == 1) {
    k.insert(2, 1, '\0');
    k.push_back('\0');
  } else if (i % 3 == 2) {
    k.resize(k.size() + i % 5, '\0');  // NUL-heavy tail, sometimes none
  }
  return k;
}

// A store holding `prefill` records appended one at a time.
std::unique_ptr<RecordStore> PrefilledStore(uint64_t prefill) {
  auto store = std::make_unique<RecordStore>();
  for (uint64_t i = 0; i < prefill; ++i) {
    std::string k = "pre-" + std::to_string(i);
    EXPECT_EQ(store->Append(KeyRef(k), i), i);
  }
  return store;
}

// The bulk path on top of a non-chunk-aligned store: contiguous ids, both
// key views equal to EscapeKey, the same key_bytes() growth as a TryAppend
// loop, and byte-identical records whatever the thread count.
TEST(NetRecordStore, BulkAppendMatchesTryAppendAtEveryThreadCount) {
  const uint64_t prefill = RecordStore::kChunkRecords / 3 + 7;
  const size_t n = 8 * RecordStore::kChunkRecords + 321;  // 9 chunks
  std::vector<std::string> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = BulkKey(i);
  auto source = [&](size_t i) {
    return std::pair<KeyRef, uint64_t>(KeyRef(keys[i]), 5 * i + 1);
  };

  std::unique_ptr<RecordStore> ref = PrefilledStore(prefill);
  const uint64_t ref_before = ref->key_bytes();
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(ref->TryAppend(KeyRef(keys[i]), 5 * i + 1), prefill + i);
  }
  const uint64_t ref_growth = ref->key_bytes() - ref_before;

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    std::unique_ptr<RecordStore> store = PrefilledStore(prefill);
    const uint64_t before = store->key_bytes();
    std::optional<uint64_t> base = store->TryAppendBulk(n, threads, source);
    ASSERT_TRUE(base.has_value());
    EXPECT_EQ(*base, prefill);
    EXPECT_EQ(store->appended(), prefill + n);
    EXPECT_EQ(store->key_bytes() - before, ref_growth);
    for (uint64_t id = 0; id < prefill + n; ++id) {
      const RecordStore::Record& got = store->At(id);
      const RecordStore::Record& want = ref->At(id);
      ASSERT_EQ(got.raw_key().Compare(want.raw_key()), 0) << id;
      ASSERT_EQ(got.escaped_key().Compare(want.escaped_key()), 0) << id;
      ASSERT_EQ(got.shares_bytes(), want.shares_bytes()) << id;
      ASSERT_EQ(got.value.load(), want.value.load()) << id;
      if (id < prefill) continue;
      KeyRef raw(keys[id - prefill]);
      std::vector<uint8_t> esc;
      EscapeKey(raw, &esc);
      ASSERT_EQ(got.raw_key().Compare(raw), 0) << id;
      ASSERT_EQ(got.escaped_key().Compare(KeyRef(esc.data(), esc.size())), 0)
          << id;
    }
    // Single appends continue after the bulk range.
    EXPECT_EQ(store->Append(K("after"), 1), prefill + n);
  }
}

// A bulk append that cannot complete leaves the store as it was: no room
// for all n records, or one key longer than the index accepts (its length
// is reported so a restart can name it).
TEST(NetRecordStore, BulkAppendRefusalLeavesStoreUnchanged) {
  RecordStore store(/*max_chunks=*/2);
  for (uint64_t i = 0; i < 100; ++i) {
    std::string k = "pre-" + std::to_string(i);
    ASSERT_EQ(store.Append(KeyRef(k), i), i);
  }
  const uint64_t bytes = store.key_bytes();
  std::vector<std::string> keys(store.capacity());
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = BulkKey(i);
  auto source = [&](size_t i) {
    return std::pair<KeyRef, uint64_t>(KeyRef(keys[i]), i);
  };

  size_t overlong = 1;
  EXPECT_FALSE(store.TryAppendBulk(store.capacity() - 99, 4, source, &overlong)
                   .has_value());
  EXPECT_EQ(overlong, 0u);
  EXPECT_EQ(store.appended(), 100u);
  EXPECT_EQ(store.key_bytes(), bytes);

  keys[RecordStore::kChunkRecords + 5] = std::string(kMaxKeyBytes, 'x');
  EXPECT_FALSE(store.TryAppendBulk(store.capacity() - 100, 4, source,
                                   &overlong)
                   .has_value());
  EXPECT_EQ(overlong, kMaxKeyBytes);
  EXPECT_EQ(store.appended(), 100u);
  EXPECT_EQ(store.key_bytes(), bytes);
  EXPECT_EQ(store.At(99).raw_key().Compare(K("pre-99")), 0);

  // Still usable: an empty bulk is a no-op, then the store fills exactly.
  EXPECT_EQ(store.TryAppendBulk(0, 4, source), std::optional<uint64_t>(100));
  keys[RecordStore::kChunkRecords + 5] = "fits";
  EXPECT_EQ(store.TryAppendBulk(store.capacity() - 100, 4, source),
            std::optional<uint64_t>(100));
  EXPECT_EQ(store.appended(), store.capacity());
  EXPECT_EQ(store.At(100 + RecordStore::kChunkRecords + 5).raw_key().Compare(
                K("fits")),
            0);
  EXPECT_FALSE(store.TryAppend(K("one-too-many"), 1).has_value());
}

// --- live-server harness -----------------------------------------------------

// Raw socket with explicit control over write granularity — KvClient is
// deliberately not used where the point is malformed or fragmented bytes.
struct RawConn {
  int fd = -1;

  ~RawConn() { Close(); }

  bool Connect(uint16_t port) {
    fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    timeval tv{};
    tv.tv_sec = 20;  // blocking reads fail loudly instead of hanging CI
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  void Close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  bool WriteAll(const uint8_t* p, size_t n) {
    size_t off = 0;
    while (off < n) {
      ssize_t w = ::write(fd, p + off, n - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<size_t>(w);
    }
    return true;
  }
  bool WriteAll(const std::vector<uint8_t>& v) {
    return WriteAll(v.data(), v.size());
  }

  // One byte per write(2) call — the server must reassemble.
  bool WriteByteByByte(const std::vector<uint8_t>& v) {
    for (uint8_t b : v) {
      if (!WriteAll(&b, 1)) return false;
    }
    return true;
  }

  // Reads exactly n bytes, `chunk` bytes per read(2) call.
  bool ReadExact(uint8_t* p, size_t n, size_t chunk = SIZE_MAX) {
    size_t off = 0;
    while (off < n) {
      ssize_t r = ::read(fd, p + off, std::min(chunk, n - off));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      off += static_cast<size_t>(r);
    }
    return true;
  }

  // Reads one reply frame; false on EOF/timeout.
  bool ReadFrame(std::vector<uint8_t>* frame_body, size_t chunk = SIZE_MAX) {
    uint8_t len[4];
    if (!ReadExact(len, 4, chunk)) return false;
    uint32_t body_len = GetU32(len);
    if (body_len > (64u << 20)) return false;
    frame_body->resize(body_len);
    return ReadExact(frame_body->data(), body_len, chunk);
  }

  // True when the server closed its end.
  bool ExpectEof() {
    uint8_t b;
    while (true) {
      ssize_t r = ::read(fd, &b, 1);
      if (r < 0 && errno == EINTR) continue;
      return r == 0;
    }
  }
};

class NetServerFixture : public Test {
 protected:
  void SetUp() override {
    std::string err;
    ASSERT_TRUE(server_.Start(&err)) << err;
  }

  // Polls until every accepted connection has been reaped.
  bool AwaitAllClosed(uint64_t expected_accepted,
                      std::chrono::seconds deadline = std::chrono::seconds(10)) {
    auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      ServerStats s = server_.StatsSnapshot();
      if (s.connections_accepted >= expected_accepted &&
          s.connections_open() == 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  // A fresh connection can still PUT+GET — the liveness probe every
  // malformed-input test ends with.
  void AssertServerAlive(const char* key, uint64_t value) {
    KvClient c;
    std::string err;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_.port(), &err)) << err;
    Reply reply;
    ASSERT_TRUE(c.Put(K(key), value, &reply, &err)) << err;
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(c.Get(K(key), &reply, &err)) << err;
    ASSERT_EQ(reply.status, kOk);
    ASSERT_EQ(reply.value, value);
  }

  KvServer server_{[] {
    ServerOptions opt;
    opt.workers = 2;
    opt.shards = 4;
    opt.batch_low_watermark = 2;
    return opt;
  }()};
};

// --- malformed frames against the live server --------------------------------

TEST_F(NetServerFixture, TruncatedLengthPrefixThenDisconnect) {
  uint64_t before = server_.StatsSnapshot().connections_accepted;
  {
    RawConn c;
    ASSERT_TRUE(c.Connect(server_.port()));
    uint8_t two[2] = {0x05, 0x00};  // half a length prefix
    ASSERT_TRUE(c.WriteAll(two, 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }  // disconnect with the prefix still buffered server-side
  ASSERT_TRUE(AwaitAllClosed(before + 1));
  AssertServerAlive("after-truncated-prefix", 1);
}

TEST_F(NetServerFixture, ZeroDeclaredLengthIsFatalButClean) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  uint8_t zero[4] = {0, 0, 0, 0};
  ASSERT_TRUE(c.WriteAll(zero, 4));
  std::vector<uint8_t> body;
  ASSERT_TRUE(c.ReadFrame(&body));  // one kBadFrame reply, id 0
  Reply reply;
  std::string err;
  ASSERT_TRUE(ParseReply(body.data(), body.size(), 0, &reply, &err)) << err;
  EXPECT_EQ(reply.id, 0u);
  EXPECT_EQ(reply.status, kBadFrame);
  EXPECT_TRUE(c.ExpectEof());  // then the server closes
  EXPECT_GE(server_.StatsSnapshot().protocol_errors, 1u);
  AssertServerAlive("after-zero-length", 2);
}

TEST_F(NetServerFixture, HugeDeclaredLengthIsFatalButClean) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};  // ~2 GiB declared body
  ASSERT_TRUE(c.WriteAll(huge, 4));
  std::vector<uint8_t> body;
  ASSERT_TRUE(c.ReadFrame(&body));
  Reply reply;
  std::string err;
  ASSERT_TRUE(ParseReply(body.data(), body.size(), 0, &reply, &err)) << err;
  EXPECT_EQ(reply.status, kBadFrame);
  EXPECT_TRUE(c.ExpectEof());
  AssertServerAlive("after-huge-length", 3);
}

TEST_F(NetServerFixture, UnknownOpcodeIsContained) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  std::vector<uint8_t> frame;
  PutU32(&frame, 9);  // id + opcode only
  PutU64(&frame, 555);
  frame.push_back(0x63);  // no such opcode
  ASSERT_TRUE(c.WriteAll(frame));
  std::vector<uint8_t> body;
  ASSERT_TRUE(c.ReadFrame(&body));
  Reply reply;
  std::string err;
  ASSERT_TRUE(ParseReply(body.data(), body.size(), 0, &reply, &err)) << err;
  EXPECT_EQ(reply.id, 555u);  // echoed even on error
  EXPECT_EQ(reply.status, kBadRequest);
  // Connection SURVIVES a contained error: a valid request on the same
  // socket still works.
  std::vector<uint8_t> put;
  EncodePut(&put, 556, K("survivor"), 7);
  ASSERT_TRUE(c.WriteAll(put));
  ASSERT_TRUE(c.ReadFrame(&body));
  ASSERT_TRUE(ParseReply(body.data(), body.size(), kOpPut, &reply, &err));
  EXPECT_EQ(reply.id, 556u);
  EXPECT_TRUE(reply.ok());
  EXPECT_GE(server_.StatsSnapshot().bad_requests, 1u);
}

TEST_F(NetServerFixture, OversizedKeyIsContained) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  // Hand-build a GET whose klen exceeds kMaxKeyLen but whose frame is
  // internally consistent (the encoders refuse to build this).
  std::vector<uint8_t> frame;
  const uint16_t klen = kMaxKeyLen + 20;
  PutU32(&frame, static_cast<uint32_t>(9 + 2 + klen));
  PutU64(&frame, 777);
  frame.push_back(kOpGet);
  PutU16(&frame, klen);
  frame.insert(frame.end(), klen, 'K');
  ASSERT_TRUE(c.WriteAll(frame));
  std::vector<uint8_t> body;
  ASSERT_TRUE(c.ReadFrame(&body));
  Reply reply;
  std::string err;
  ASSERT_TRUE(ParseReply(body.data(), body.size(), 0, &reply, &err)) << err;
  EXPECT_EQ(reply.id, 777u);
  EXPECT_EQ(reply.status, kKeyTooLong);
  EXPECT_GE(server_.StatsSnapshot().keys_too_long, 1u);
  // Still contained: the connection keeps working.
  std::vector<uint8_t> get;
  EncodeGet(&get, 778, K("absent"));
  ASSERT_TRUE(c.WriteAll(get));
  ASSERT_TRUE(c.ReadFrame(&body));
  ASSERT_TRUE(ParseReply(body.data(), body.size(), kOpGet, &reply, &err));
  EXPECT_EQ(reply.status, kNotFound);
}

// A key whose ESCAPED form exceeds the index limit (raw length is legal but
// it is all NUL bytes, which double under the escape) must be rejected
// per-key, not crash the trie.
TEST_F(NetServerFixture, NulHeavyKeyOverEscapedLimitIsContained) {
  std::vector<uint8_t> nuls(kMaxKeyLen, 0);  // escapes to 2*254+2 > 256
  ASSERT_FALSE(KeyFitsIndex(KeyRef(nuls.data(), nuls.size())));
  KvClient c;
  std::string err;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_.port(), &err)) << err;
  Reply reply;
  ASSERT_TRUE(c.Put(KeyRef(nuls.data(), nuls.size()), 1, &reply, &err));
  EXPECT_EQ(reply.status, kKeyTooLong);
  // DELETE of such a key: kNotFound (it cannot be present).
  ASSERT_TRUE(c.Delete(KeyRef(nuls.data(), nuls.size()), &reply, &err));
  EXPECT_EQ(reply.status, kNotFound);
  // Short NUL-y keys are fine and round-trip exactly.
  std::vector<uint8_t> shorty = {0, 1, 0, 0, 2};
  ASSERT_TRUE(c.Put(KeyRef(shorty.data(), shorty.size()), 77, &reply, &err));
  EXPECT_TRUE(reply.ok());
  ASSERT_TRUE(c.Scan(KeyRef(), 10, &reply, &err));
  ASSERT_TRUE(reply.ok());
  bool seen = false;
  for (const ScanEntry& e : reply.scan) {
    if (e.key == std::string(shorty.begin(), shorty.end())) {
      seen = true;
      EXPECT_EQ(e.value, 77u);
    }
  }
  EXPECT_TRUE(seen) << "NUL-bearing key lost its original bytes in SCAN";
}

// --- partial I/O torture -----------------------------------------------------

TEST_F(NetServerFixture, OneByteWritesAndReads) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  // Each phase is written ONE BYTE per write(2) call and its reply read ONE
  // BYTE per read(2) call.  Phases are awaited so a deferred GET never
  // shares a batch window with a write to the same key (the batch drain
  // answers GETs with end-of-iteration state, by design).
  auto roundtrip = [&](const std::vector<uint8_t>& stream, uint8_t op,
                       Reply* reply) {
    ASSERT_TRUE(c.WriteByteByByte(stream));
    std::vector<uint8_t> body;
    ASSERT_TRUE(c.ReadFrame(&body, /*chunk=*/1));
    ASSERT_GE(body.size(), kMinBody);
    std::string err;
    ASSERT_TRUE(ParseReply(body.data(), body.size(), op, reply, &err)) << err;
  };
  std::vector<uint8_t> stream;
  Reply reply;
  EncodePut(&stream, 1, K("dribble"), 1001);
  roundtrip(stream, kOpPut, &reply);
  EXPECT_TRUE(reply.ok());
  EXPECT_TRUE(reply.created);
  stream.clear();
  EncodeGet(&stream, 2, K("dribble"));
  roundtrip(stream, kOpGet, &reply);
  EXPECT_EQ(reply.status, kOk);
  EXPECT_EQ(reply.value, 1001u);
  stream.clear();
  EncodeScan(&stream, 3, K("dribble"), 5);
  roundtrip(stream, kOpScan, &reply);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.scan.size(), 1u);
  EXPECT_EQ(reply.scan[0].key, "dribble");
  EXPECT_EQ(reply.scan[0].value, 1001u);
  stream.clear();
  EncodeDelete(&stream, 4, K("dribble"));
  roundtrip(stream, kOpDelete, &reply);
  EXPECT_EQ(reply.status, kOk);  // removed
  stream.clear();
  EncodeGet(&stream, 5, K("dribble"));
  roundtrip(stream, kOpGet, &reply);
  EXPECT_EQ(reply.status, kNotFound);
}

TEST_F(NetServerFixture, RandomFragmentationTorture) {
  std::mt19937_64 rng(2026);
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  constexpr int kOps = 200;
  std::vector<uint8_t> stream;
  for (int i = 0; i < kOps; ++i) {
    std::string key = "frag-" + std::to_string(i % 37);
    if (i % 3 == 0) {
      EncodePut(&stream, static_cast<uint64_t>(i) + 1, KeyRef(key),
                static_cast<uint64_t>(i));
    } else {
      EncodeGet(&stream, static_cast<uint64_t>(i) + 1, KeyRef(key));
    }
  }
  // Write in random 1..7 byte chunks.
  size_t off = 0;
  while (off < stream.size()) {
    size_t n = std::min<size_t>(1 + rng() % 7, stream.size() - off);
    ASSERT_TRUE(c.WriteAll(stream.data() + off, n));
    off += n;
  }
  int got = 0;
  while (got < kOps) {
    std::vector<uint8_t> body;
    ASSERT_TRUE(c.ReadFrame(&body));
    ++got;
  }
  ServerStats s = server_.StatsSnapshot();
  EXPECT_GE(s.frames_in, static_cast<uint64_t>(kOps));
  EXPECT_EQ(s.protocol_errors, 0u);
}

// --- mid-request disconnect / leak hygiene -----------------------------------

TEST_F(NetServerFixture, MidRequestDisconnectLeaksNothing) {
  uint64_t before = server_.StatsSnapshot().connections_accepted;
  constexpr int kConns = 32;
  for (int i = 0; i < kConns; ++i) {
    RawConn c;
    ASSERT_TRUE(c.Connect(server_.port()));
    // A valid header promising more bytes than we will ever send.
    std::vector<uint8_t> half;
    PutU32(&half, 100);
    PutU64(&half, static_cast<uint64_t>(i));
    half.push_back(kOpPut);
    ASSERT_TRUE(c.WriteAll(half));
    // Destructor disconnects with the request half-delivered.
  }
  ASSERT_TRUE(AwaitAllClosed(before + kConns));
  ServerStats s = server_.StatsSnapshot();
  EXPECT_EQ(s.connections_open(), 0u);
  // Nothing half-parsed leaked into the index.
  EXPECT_EQ(server_.live_keys(), 0u);
  AssertServerAlive("after-disconnect-storm", 4);
}

// Disconnect while replies are still owed (queued GETs whose connection
// dies before the batch drain answers them).
TEST_F(NetServerFixture, DisconnectWithOwedRepliesLeaksNothing) {
  KvClient seed;
  std::string err;
  ASSERT_TRUE(seed.Connect("127.0.0.1", server_.port(), &err)) << err;
  Reply reply;
  for (int i = 0; i < 64; ++i) {
    std::string key = "owed-" + std::to_string(i);
    ASSERT_TRUE(seed.Put(KeyRef(key), static_cast<uint64_t>(i), &reply, &err));
  }
  uint64_t before = server_.StatsSnapshot().connections_accepted;
  for (int round = 0; round < 8; ++round) {
    RawConn c;
    ASSERT_TRUE(c.Connect(server_.port()));
    std::vector<uint8_t> burst;
    for (int i = 0; i < 64; ++i) {
      std::string key = "owed-" + std::to_string(i);
      EncodeGet(&burst, static_cast<uint64_t>(i) + 1, KeyRef(key));
    }
    ASSERT_TRUE(c.WriteAll(burst));
    // Close immediately: many GETs are now in flight toward a dead socket.
  }
  seed.Close();  // connections_open() must reach exactly zero
  ASSERT_TRUE(AwaitAllClosed(before + 8));
  EXPECT_EQ(server_.StatsSnapshot().connections_open(), 0u);
  AssertServerAlive("after-owed-replies", 5);
}

}  // namespace
}  // namespace net
}  // namespace hot
