// In-memory span recorder for the traced replay.
//
// A span is one call into a layer: name, start, end, the span it ran inside
// (0 = none) and the op it served.  Spans stay in per-thread vectors while
// the replay runs and are aggregated and written out afterwards.  With the
// recorder disabled Begin/End cost one predictable branch, which is what
// the untraced replay measures against.
//
// Timestamps are TSC ticks (half the cost of clock_gettime in a VM); the
// replay converts them with a ns-per-tick ratio measured over its own run.

#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <time.h>
#include <x86intrin.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace servebench {

enum Layer : uint16_t {
  kParse,         // net.protocol: NextFrame + ParseRequest
  kEscape,        // net.record_store: EscapeKey
  kWalAppend,     // persist.wal: Wal::Append
  kStoreAppend,   // net.record_store: RecordStore::Append
  kUpsert,        // ycsb.range_sharded: Index::Upsert
  kLookupBatch,   // ycsb.range_sharded: Index::LookupBatch (one drain)
  kLookup,        // ycsb.range_sharded: Index::Lookup (scalar drain)
  kScan,          // ycsb.range_sharded: Index::ScanFrom
  kStoreRead,     // net.record_store: RecordStore::At
  kWalCommit,     // persist.wal: Wal::Commit
  kEncode,        // net.protocol: Encode*Reply / ScanReplyBuilder
  kNumLayers,
};

inline const char* LayerName(uint16_t l) {
  static const char* const kNames[kNumLayers] = {
      "net.protocol.parse",        "net.record_store.escape",
      "persist.wal.append",        "net.record_store.append",
      "ycsb.range_sharded.upsert", "ycsb.range_sharded.lookup_batch",
      "ycsb.range_sharded.lookup", "ycsb.range_sharded.scan",
      "net.record_store.read",     "persist.wal.commit",
      "net.protocol.encode"};
  return l < kNumLayers ? kNames[l] : "?";
}

inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t NowTicks() { return __rdtsc(); }

struct Span {
  uint16_t layer;
  uint16_t thread;
  uint32_t parent;  // index + 1 in the same thread's vector, 0 = root
  uint64_t op;      // op id; a batched drain carries its first op's id
  uint64_t start;   // TSC ticks
  uint64_t end;
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, uint16_t thread)
      : enabled_(enabled), thread_(thread) {}

  // Returns a handle for End(); 0 when disabled.
  uint32_t Begin(Layer layer, uint64_t op, uint32_t parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back({layer, thread_, parent, op, NowTicks(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t handle) {
    if (handle != 0) spans_[handle - 1].end = NowTicks();
  }
  // Ends `handle` and begins a sibling span at the same instant: one clock
  // read for two adjacent calls.
  uint32_t Next(uint32_t handle, Layer layer) {
    if (handle == 0) return 0;
    Span s = spans_[handle - 1];
    s.end = spans_[handle - 1].end = NowTicks();
    spans_.push_back({layer, thread_, s.parent, s.op, s.end, 0});
    return static_cast<uint32_t>(spans_.size());
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) {
    if (enabled_) spans_.reserve(n);
  }

 private:
  bool enabled_;
  uint16_t thread_;
  std::vector<Span> spans_;
};

// Ticks an empty span measures: the clock read and the record store that
// every span's duration includes.  Median of a calibration loop.
inline uint64_t SpanFloorTicks() {
  SpanRecorder cal(true, 0);
  constexpr size_t kRounds = 1 << 15;
  cal.Reserve(kRounds);
  for (size_t i = 0; i < kRounds; ++i) cal.End(cal.Begin(Layer(0), 0));
  std::vector<uint64_t> d;
  d.reserve(kRounds);
  for (const Span& s : cal.spans()) d.push_back(s.end - s.start);
  std::nth_element(d.begin(), d.begin() + kRounds / 2, d.end());
  return d[kRounds / 2];
}

// Self time of each span: its duration minus what its child spans cover,
// minus the recorder's own floor cost.
inline std::vector<uint64_t> SelfTicks(const std::vector<Span>& spans,
                                       uint64_t floor) {
  std::vector<uint64_t> self(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != 0) self[s.parent - 1] += s.end - s.start;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    uint64_t covered = self[i] + floor;
    uint64_t dur = spans[i].end - spans[i].start;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

struct LayerTotals {
  double self_ns[kNumLayers] = {};
  uint64_t spans[kNumLayers] = {};
};

// Binary dump: a text header line naming the layers, then raw Span records.
inline bool WriteSpans(const std::string& path, double ns_per_tick,
                       const std::vector<const std::vector<Span>*>& threads) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string header = "servebench-spans v1 record=32B ns_per_tick=" +
                       std::to_string(ns_per_tick) + " layers=";
  for (uint16_t l = 0; l < kNumLayers; ++l) {
    header += (l ? "," : "") + std::string(LayerName(l));
  }
  header += "\n";
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  for (const auto* spans : threads) {
    if (!spans->empty()) {
      ok = ok && std::fwrite(spans->data(), sizeof(Span), spans->size(), f) ==
                     spans->size();
    }
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
