#include "replay.h"

#include <algorithm>
#include <array>
#include <barrier>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "net/protocol.h"
#include "net/record_store.h"
#include "net/server.h"
#include "persist/recovery.h"

namespace servebench {

namespace net = hot::net;
namespace ps = hot::persist;
using hot::KeyRef;

namespace {

// The served state rebuilt the way KvServer::Start() rebuilds it: recover
// the image, refill the record store in key order, equi-depth splitters,
// parallel bulk build, then open the WAL at its resume point.
struct Replica {
  net::RecordStore store;
  std::unique_ptr<net::KvServer::Index> index;
  ps::Wal wal;
  std::array<std::mutex, 32> stripes;  // KvServer's per-key write stripes

  bool Build(const std::string& dir, unsigned shards, ps::Durability d,
             std::string* error) {
    index = std::make_unique<net::KvServer::Index>(
        hot::ycsb::UniformByteSplitters(shards),
        net::RecordKeyExtractor(&store));
    ps::RecoveryResult rec;
    if (!ps::RecoverImage(dir, &rec, error)) return false;
    const size_t n = rec.records.size();
    std::vector<uint64_t> ids;
    ids.reserve(n);
    for (const ps::RecoveredRecord& r : rec.records) {
      ids.push_back(store.Append(r.key_ref(), r.value));
    }
    hot::ycsb::SplitterKeys splitters;
    for (unsigned s = 1; s < shards && n > 0; ++s) {
      KeyRef k = store.At(ids[n * s / shards]).escaped_key();
      if (!splitters.empty() &&
          KeyRef(splitters.back().data(), splitters.back().size())
                  .Compare(k) >= 0) {
        continue;
      }
      splitters.emplace_back(k.data(), k.data() + k.size());
    }
    if (!splitters.empty()) index->Reshard(std::move(splitters));
    index->BulkLoadSorted(std::span<const uint64_t>(ids.data(), n),
                          std::max(1u, std::thread::hardware_concurrency()));
    ps::Wal::Options wopt;
    wopt.durability = d;
    return wal.Open(dir, rec.resume, wopt, error);
  }

  std::unique_lock<std::mutex> Stripe(KeyRef key) {
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < key.size(); ++i) {
      h = (h ^ key.data()[i]) * 1099511628211ull;
    }
    return std::unique_lock<std::mutex>(stripes[h % stripes.size()]);
  }
};

struct Frame {
  OpType type;
  uint32_t key;
  size_t offset;  // into the thread's request bytes
};

// One server worker: the frames of its connections in arrival order,
// processed in event-loop iterations of `iteration` frames.
struct Worker {
  std::vector<uint8_t> requests;
  std::vector<Frame> frames;
  SpanRecorder rec{false, 0};
  uint64_t failures = 0, gets = 0, puts = 0, scans = 0, scan_items = 0;
  uint64_t batched_gets = 0;

  void Run(Replica* r, unsigned iteration, unsigned watermark) {
    struct PendingGet {
      uint64_t op;
      uint64_t req_id;
      uint32_t key;
      uint32_t off, len;
    };
    std::vector<PendingGet> pending;
    std::vector<uint8_t> arena, esc, out;
    std::vector<KeyRef> keys;
    std::vector<std::optional<uint64_t>> found;
    size_t i = 0;
    while (i < frames.size()) {
      const size_t end = std::min(frames.size(), i + iteration);
      for (; i < end; ++i) {
        const Frame& f = frames[i];
        const uint64_t op = i;
        uint32_t h = rec.Begin(kParse, op);
        const uint8_t* body = nullptr;
        size_t body_len = 0, consumed = 0;
        net::Request req;
        std::string perr;
        bool parsed =
            net::NextFrame(requests.data() + f.offset,
                           requests.size() - f.offset,
                           net::kDefaultMaxFrameBody, &body, &body_len,
                           &consumed) == net::FrameVerdict::kHaveFrame &&
            net::ParseRequest(body, body_len, &req, &perr) ==
                net::ParseVerdict::kParsedOk;
        rec.End(h);
        if (!parsed) {
          ++failures;
          continue;
        }
        switch (req.op) {
          case net::kOpGet: {
            ++gets;
            h = rec.Begin(kEscape, op);
            uint32_t off = static_cast<uint32_t>(arena.size());
            net::EscapeKey(req.key, &arena);
            rec.End(h);
            pending.push_back({op, req.id, f.key, off,
                               static_cast<uint32_t>(arena.size()) - off});
            break;
          }
          case net::kOpPut: {
            ++puts;
            uint64_t lsn;
            std::optional<uint64_t> prev;
            {
              std::unique_lock<std::mutex> stripe = r->Stripe(req.key);
              h = rec.Begin(kWalAppend, op);
              lsn = r->wal.Append(ps::kWalPut, req.key, req.value);
              rec.End(h);
              h = rec.Begin(kStoreAppend, op);
              uint64_t id = r->store.Append(req.key, req.value);
              rec.End(h);
              h = rec.Begin(kUpsert, op);
              prev = r->index->Upsert(id, r->store.At(id).escaped_key());
              rec.End(h);
            }
            h = rec.Begin(kWalCommit, op);
            r->wal.Commit(lsn, nullptr);
            rec.End(h);
            uint64_t prev_value = 0;
            if (prev) {
              h = rec.Begin(kStoreRead, op);
              prev_value = r->store.At(*prev).value;
              rec.End(h);
            }
            h = rec.Begin(kEncode, op);
            net::EncodePutReply(&out, req.id, !prev.has_value(), prev_value);
            rec.End(h);
            break;
          }
          case net::kOpScan: {
            ++scans;
            h = rec.Begin(kEscape, op);
            esc.clear();
            net::EscapeKey(req.key, &esc);
            rec.End(h);
            h = rec.Begin(kEncode, op);
            net::ScanReplyBuilder builder(&out, req.id);
            rec.End(h);
            uint32_t scan = rec.Begin(kScan, op);
            r->index->ScanFrom(
                KeyRef(esc.data(), esc.size()), req.scan_limit,
                [&](uint64_t id) {
                  uint32_t c = rec.Begin(kStoreRead, op, scan);
                  const net::RecordStore::Record& item = r->store.At(id);
                  c = rec.Next(c, kEncode);
                  builder.Add(item.raw_key(), item.value);
                  rec.End(c);
                });
            rec.End(scan);
            h = rec.Begin(kEncode, op);
            builder.Finish();
            rec.End(h);
            scan_items += builder.count;
            break;
          }
        }
      }
      // End-of-iteration GET drain, as KvServer::Worker::DrainGets does it.
      const size_t n = pending.size();
      if (n > 0) {
        keys.resize(n);
        for (size_t g = 0; g < n; ++g) {
          keys[g] = KeyRef(arena.data() + pending[g].off, pending[g].len);
        }
        found.assign(n, std::nullopt);
        if (n >= watermark) {
          uint32_t h = rec.Begin(kLookupBatch, pending[0].op);
          r->index->LookupBatch(
              std::span<const KeyRef>(keys.data(), n),
              std::span<std::optional<uint64_t>>(found.data(), n));
          rec.End(h);
          batched_gets += n;
        } else {
          for (size_t g = 0; g < n; ++g) {
            uint32_t h = rec.Begin(kLookup, pending[g].op);
            found[g] = r->index->Lookup(keys[g]);
            rec.End(h);
          }
        }
        for (size_t g = 0; g < n; ++g) {
          uint64_t value = 0;
          if (found[g]) {
            uint32_t h = rec.Begin(kStoreRead, pending[g].op);
            value = r->store.At(*found[g]).value;
            rec.End(h);
          }
          uint32_t h = rec.Begin(kEncode, pending[g].op);
          net::EncodeGetReply(&out, pending[g].req_id, found[g].has_value(),
                              value);
          rec.End(h);
          if (!found[g] || ValueKey(value) != pending[g].key) ++failures;
        }
      }
      pending.clear();
      arena.clear();
      out.clear();  // the socket write is not part of the replay
    }
  }
};

}  // namespace

ReplayResult RunReplay(const WorkloadSpec& spec, const KeyUniverse& universe,
                       uint64_t seed, const ReplayConfig& config) {
  ReplayResult result;
  Replica replica;
  if (!replica.Build(config.data_dir, config.shards, spec.durability,
                     &result.error)) {
    return result;
  }

  // Connection c lives on worker c % workers (KvServer deals accepted
  // connections round-robin); a worker sees its connections' frames
  // interleaved.
  const unsigned workers = config.workers;
  std::vector<Worker> w(workers);
  const uint64_t per_conn = config.ops / spec.conns;
  std::vector<std::vector<Op>> streams(spec.conns);
  for (unsigned c = 0; c < spec.conns; ++c) {
    OpStream stream(spec, universe, seed, c);
    Op op;
    for (uint64_t k = 0; k < per_conn && stream.Next(&op); ++k) {
      streams[c].push_back(op);
    }
  }
  uint64_t write_id = 0;
  for (unsigned t = 0; t < workers; ++t) {
    Worker& wk = w[t];
    wk.rec = SpanRecorder(config.spans, static_cast<uint16_t>(t));
    for (uint64_t k = 0; k < per_conn; ++k) {
      for (unsigned c = t; c < spec.conns; c += workers) {
        if (k >= streams[c].size()) continue;
        const Op& op = streams[c][k];
        size_t off = wk.requests.size();
        KeyRef key = universe.key(op.key);
        uint64_t id = wk.frames.size() + 1;
        switch (op.type) {
          case OpType::kGet:
            net::EncodeGet(&wk.requests, id, key);
            break;
          case OpType::kPut:
            net::EncodePut(&wk.requests, id, key,
                           MakeValue(op.key, ++write_id));
            break;
          case OpType::kScan:
            net::EncodeScan(&wk.requests, id, key, op.scan_len);
            break;
        }
        wk.frames.push_back({op.type, op.key, off});
      }
    }
    wk.rec.Reserve(wk.frames.size() * (spec.max_scan > 0 ? 110 : 6));
  }

  // A GET share g and a drain width d mean d/g frames per iteration.
  const double get_share = spec.get_share > 0 ? spec.get_share : 1.0;
  const unsigned iteration = std::max(
      1u, static_cast<unsigned>(config.drain_width / get_share + 0.5));
  const unsigned watermark =
      std::max(2u, net::ServerOptions().batch_low_watermark);
  const uint64_t floor = config.spans ? SpanFloorTicks() : 0;
  std::barrier sync(static_cast<std::ptrdiff_t>(workers) + 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      w[t].Run(&replica, iteration, watermark);
      sync.arrive_and_wait();
    });
  }
  sync.arrive_and_wait();
  const uint64_t t0 = NowNs();
  const uint64_t tick0 = NowTicks();
  sync.arrive_and_wait();
  const uint64_t t1 = NowNs();
  const double ns_per_tick =
      static_cast<double>(t1 - t0) /
      static_cast<double>(std::max<uint64_t>(1, NowTicks() - tick0));
  for (auto& th : threads) th.join();
  replica.wal.Close();

  result.wall_s = static_cast<double>(t1 - t0) / 1e9;
  result.span_floor_ns = static_cast<double>(floor) * ns_per_tick;
  std::vector<const std::vector<Span>*> all;
  double read_ns = 0;
  for (const Worker& wk : w) {
    result.ops += wk.frames.size();
    result.gets += wk.gets;
    result.puts += wk.puts;
    result.scans += wk.scans;
    result.scan_items += wk.scan_items;
    result.batched_gets += wk.batched_gets;
    result.failures += wk.failures;
    const std::vector<Span>& spans = wk.rec.spans();
    result.spans_recorded += spans.size();
    all.push_back(&spans);
    // Per-layer self time; for the read-op sum a batched drain is shared by
    // its GETs, so it is spread evenly over them below.
    const std::vector<uint64_t> self = SelfTicks(spans, floor);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double ns = static_cast<double>(self[i]) * ns_per_tick;
      result.totals.self_ns[s.layer] += ns;
      result.totals.spans[s.layer]++;
      if (s.layer != kLookupBatch && wk.frames[s.op].type == spec.read_op()) {
        read_ns += ns;
      }
    }
  }
  const uint64_t reads =
      spec.read_op() == OpType::kGet ? result.gets : result.scans;
  if (reads > 0) {
    read_ns += result.totals.self_ns[kLookupBatch];
    result.read_layer_ns = read_ns / static_cast<double>(reads);
  }
  ps::WalStats ws = replica.wal.stats();
  result.wal_appends = ws.appends;
  result.wal_append_bytes = ws.append_bytes;
  if (config.spans && !WriteSpans(config.span_path, ns_per_tick, all)) {
    result.error = "cannot write " + config.span_path;
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace servebench
