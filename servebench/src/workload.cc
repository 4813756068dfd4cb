#include "workload.h"

#include <algorithm>
#include <numeric>
#include <thread>

namespace servebench {

namespace ds = hot::ycsb;
using hot::persist::Durability;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "read_c", "write_a_async", "scan_e_async", "write_a_sync"};
  return names;
}

bool LookupWorkload(const std::string& name, bool tiny, WorkloadSpec* out) {
  WorkloadSpec s;
  s.name = name;
  if (name == "read_c") {
    // YCSB C: point reads only, uniform, a key set larger than the L3.
    s.keys = ds::DataSetKind::kUrl;
    s.preload = tiny ? 20000 : 4000000;
    s.fresh = 0;
    s.get_share = 1.0;
    s.put_share = 0.0;
    s.zipf = false;
    s.durability = Durability::kNone;
    s.depth = 32;
    s.replay_ops = tiny ? 4000 : 400000;
    s.warmup_ops = tiny ? 2000 : 500000;
    s.mem_sample_ops = tiny ? 2000 : 4000000;
  } else if (name == "write_a_async" || name == "write_a_sync") {
    // YCSB A: half reads, half overwrites, zipf.  The sync variant acks
    // every write after its group-commit fsync, so its figures follow the
    // data dir's fsync rate; on a VM's virtual disk that drifts by about
    // 16% between 2 s intervals (README.md), so BENCHMARK.json gates the
    // async variant.
    s.keys = ds::DataSetKind::kEmail;
    s.preload = tiny ? 5000 : 200000;
    s.fresh = 0;
    s.get_share = 0.5;
    s.put_share = 0.5;
    s.zipf = true;
    s.durability =
        name == "write_a_sync" ? Durability::kSync : Durability::kAsync;
    s.depth = 16;
    s.replay_ops = tiny ? 2000 : (name == "write_a_sync" ? 40000 : 400000);
    s.warmup_ops = tiny ? 2000 : (name == "write_a_sync" ? 20000 : 300000);
    s.mem_sample_ops = tiny ? 2000 : 200000;
    s.tail_ops = tiny ? 1000 : (name == "write_a_sync" ? 40000 : 400000);
  } else if (name == "scan_e_async") {
    // YCSB E: short ordered scans plus inserts of fresh keys, zipf start
    // keys, binary 8-byte keys, snapshots racing the traffic.
    s.keys = ds::DataSetKind::kInteger;
    s.preload = tiny ? 20000 : 1000000;
    s.fresh = tiny ? 20000 : 500000;
    s.get_share = 0.0;
    s.put_share = 0.05;
    s.zipf = true;
    s.max_scan = 100;
    s.durability = Durability::kAsync;
    s.depth = 4;
    s.snapshot_every = tiny ? 3000 : 150000;
    s.replay_ops = tiny ? 3000 : 40000;
    s.warmup_ops = tiny ? 2000 : 150000;
    s.mem_sample_ops = tiny ? 2000 : 1000000;
    s.tail_ops = tiny ? 2000 : 100000;
  } else {
    return false;
  }
  *out = s;
  return true;
}

namespace {

// String key sets without fresh keys are drawn in kParts seeded parts on
// kParts threads; duplicates across parts are dropped, so the set can be a
// few keys short of `n`.
std::vector<std::string> ParallelStrings(ds::DataSetKind kind, size_t n,
                                         uint64_t seed) {
  constexpr unsigned kParts = 4;
  std::vector<ds::DataSet> parts(kParts);
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < kParts; ++p) {
    threads.emplace_back([&, p] {
      parts[p] = ds::GenerateDataSet(kind, n / kParts + (p < n % kParts),
                                     seed * kParts + p);
    });
  }
  for (auto& t : threads) t.join();
  std::vector<std::string> out;
  out.reserve(n);
  for (auto& part : parts) {
    for (auto& k : part.strings) out.push_back(std::move(k));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

KeyUniverse BuildUniverse(const WorkloadSpec& spec, uint64_t seed) {
  ds::DataSet data;
  data.kind = spec.keys;
  if (data.IsString() && spec.fresh == 0) {
    data.strings = ParallelStrings(spec.keys, spec.preload, seed);
  } else {
    data = ds::GenerateDataSet(spec.keys, spec.preload + spec.fresh, seed);
  }
  const size_t total = data.size();
  const size_t preload = total - spec.fresh;
  std::vector<std::string> raw;
  raw.reserve(total);
  // Draw order: the first `preload` keys are preloaded, the rest are the
  // fresh insert keys.  by_key lists draw positions in key order.
  std::vector<uint32_t> by_key(total);
  std::iota(by_key.begin(), by_key.end(), 0u);
  if (data.IsString()) {
    raw = std::move(data.strings);
    if (spec.fresh == 0) {
      if (!std::is_sorted(raw.begin(), raw.end())) {
        std::sort(raw.begin(), raw.end());
      }
    } else {
      std::sort(by_key.begin(), by_key.end(),
                [&](uint32_t a, uint32_t b) { return raw[a] < raw[b]; });
    }
  } else {
    // 8-byte big-endian: byte order equals numeric order, and the random
    // 63-bit values carry embedded 0x00 bytes the server must escape.
    std::sort(by_key.begin(), by_key.end(), [&](uint32_t a, uint32_t b) {
      return data.ints[a] < data.ints[b];
    });
    for (uint64_t v : data.ints) {
      std::string k(8, '\0');
      for (int b = 0; b < 8; ++b) k[b] = static_cast<char>(v >> (56 - 8 * b));
      raw.push_back(std::move(k));
    }
  }
  KeyUniverse u;
  size_t bytes = 0;
  for (const auto& k : raw) bytes += k.size();
  u.bytes.reserve(bytes);
  u.off.reserve(total + 1);
  u.preloaded.assign(total, 0);
  std::vector<uint32_t> index_of(total);
  for (size_t i = 0; i < total; ++i) {
    const std::string& k = raw[by_key[i]];
    u.off.push_back(u.bytes.size());
    u.bytes.insert(u.bytes.end(), k.begin(), k.end());
    index_of[by_key[i]] = static_cast<uint32_t>(i);
    if (by_key[i] < preload) u.preloaded[i] = 1;
  }
  u.off.push_back(u.bytes.size());
  for (size_t d = preload; d < total; ++d) {
    u.fresh_order.push_back(index_of[d]);
  }
  // Popularity order: a seeded shuffle of the preloaded keys.
  u.hot_order.reserve(preload);
  for (size_t i = 0; i < total; ++i) {
    if (u.preloaded[i]) u.hot_order.push_back(static_cast<uint32_t>(i));
  }
  hot::SplitMix64 rng(seed ^ 0x5eedull);
  for (size_t i = u.hot_order.size(); i > 1; --i) {
    std::swap(u.hot_order[i - 1], u.hot_order[rng.NextBounded(i)]);
  }
  return u;
}

OpStream::OpStream(const WorkloadSpec& spec, const KeyUniverse& universe,
                   uint64_t seed, unsigned conn)
    : spec_(spec),
      universe_(universe),
      conn_(conn),
      rng_(seed * 0x9e3779b97f4a7c15ull + conn + 1) {
  if (spec.zipf) {
    zipf_ = std::make_unique<hot::ZipfianGenerator>(
        universe.hot_order.size(), 0.99, seed * 31 + conn + 7);
  }
  for (uint64_t i = 0; i < 3 * kStage; ++i) {
    Draw(&ring_[i % kRing]);
    Resolve(&ring_[i % kRing]);
  }
}

uint32_t OpStream::PickRank() {
  return static_cast<uint32_t>(zipf_ ? zipf_->Next()
                                     : rng_.NextBounded(
                                           universe_.hot_order.size()));
}

void OpStream::Draw(Slot* s) {
  Op& op = s->op;
  double u = rng_.NextDouble();
  op.scan_len = 0;
  s->ok = true;
  s->pick = true;
  if (u < spec_.get_share) {
    op.type = OpType::kGet;
    s->rank = PickRank();
  } else if (u < spec_.get_share + spec_.put_share) {
    op.type = OpType::kPut;
    if (spec_.inserts()) {
      s->pick = false;
      uint64_t slot = inserts_++ * spec_.conns + conn_;
      s->ok = slot < universe_.fresh_order.size();
      op.key = s->ok ? universe_.fresh_order[slot] : 0;
    } else {
      s->rank = PickRank();
    }
  } else {
    op.type = OpType::kScan;
    s->rank = PickRank();
    op.scan_len = 1 + static_cast<uint32_t>(rng_.NextBounded(spec_.max_scan));
  }
  if (s->pick) __builtin_prefetch(&universe_.hot_order[s->rank]);
}

void OpStream::Resolve(Slot* s) {
  if (s->pick) {
    s->op.key = universe_.hot_order[s->rank];
    s->pick = false;
  }
  __builtin_prefetch(&universe_.off[s->op.key]);
}

void OpStream::Touch(const Slot& s) const {
  const char* key = universe_.bytes.data() + universe_.off[s.op.key];
  __builtin_prefetch(key);
  __builtin_prefetch(key + 63);
}

bool OpStream::Next(Op* op) {
  const Slot& out = ring_[next_ % kRing];
  *op = out.op;
  const bool ok = out.ok;
  Draw(&ring_[(next_ + 3 * kStage) % kRing]);
  Resolve(&ring_[(next_ + 2 * kStage) % kRing]);
  Touch(ring_[(next_ + kStage) % kRing]);
  ++next_;
  return ok;
}

}  // namespace servebench
