// Workload definitions of the served-path benchmark: key universes, value
// encoding and the per-connection op streams.
//
// Everything here is a pure function of the seed, so the served run and the
// traced in-process replay see the same keys and the same op sequence.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/key.h"
#include "common/rng.h"
#include "persist/wal.h"
#include "ycsb/datasets.h"

namespace servebench {

enum class OpType : uint8_t { kGet, kPut, kScan };
inline constexpr int kNumOpTypes = 3;
inline const char* OpName(OpType t) {
  return t == OpType::kGet ? "get" : t == OpType::kPut ? "put" : "scan";
}

struct WorkloadSpec {
  std::string name;
  hot::ycsb::DataSetKind keys;
  uint64_t preload;        // keys written into the preload snapshot
  uint64_t fresh;          // extra keys reserved for inserts (0 = none)
  double get_share;        // point GETs
  double put_share;        // PUTs: overwrites, or inserts when fresh > 0
  bool zipf;               // key choice: scrambled zipf (0.99) or uniform
  uint32_t max_scan = 0;   // SCAN length is uniform in [1, max_scan]
  hot::persist::Durability durability;
  unsigned conns = 4;
  unsigned depth;          // requests outstanding per connection
  uint64_t snapshot_every = 0;  // TriggerSnapshot every N issued ops
  uint64_t replay_ops;     // ops replayed in-process by the traced run
  // Warm-up length in ops: a fixed count, so the writes that precede the
  // measured phase do not depend on throughput.
  uint64_t warmup_ops;
  // Completed measured ops after which mem_bytes_per_key is sampled.
  uint64_t mem_sample_ops;
  // Ops driven after a snapshot, before the restart that recovery_s
  // times (0 = the workload does not write).
  uint64_t tail_ops = 0;

  OpType read_op() const {
    return get_share > 0 ? OpType::kGet : OpType::kScan;
  }
  bool inserts() const { return fresh > 0; }
};

// `tiny` shrinks every size for the harness self-test.
bool LookupWorkload(const std::string& name, bool tiny, WorkloadSpec* out);
const std::vector<std::string>& WorkloadNames();

// The key universe, in ascending raw-key order: preloaded keys and the
// fresh insert keys interleave.  A key's position here is its key index.
struct KeyUniverse {
  std::vector<char> bytes;
  std::vector<uint64_t> off;     // size() + 1 offsets into bytes
  std::vector<uint8_t> preloaded;  // 1 = in the preload snapshot
  std::vector<uint32_t> fresh_order;  // fresh key indexes in draw order
  // Preloaded key indexes in popularity order: zipf rank r picks
  // hot_order[r], so hot keys are spread over the key space.
  std::vector<uint32_t> hot_order;

  size_t size() const { return off.size() - 1; }
  hot::KeyRef key(size_t i) const {
    return hot::KeyRef(reinterpret_cast<const uint8_t*>(bytes.data() + off[i]),
                       off[i + 1] - off[i]);
  }
};

KeyUniverse BuildUniverse(const WorkloadSpec& spec, uint64_t seed);

// Values carry the key index (high 28 bits) and the id of the write that
// stored them (low 36 bits, 0 = the preloaded version), so a reply that
// returns another key's value or a write the client never issued is
// detectable.
inline constexpr int kWriteIdBits = 36;
inline uint64_t MakeValue(uint64_t key_index, uint64_t write_id) {
  return (key_index << kWriteIdBits) | write_id;
}
inline uint64_t ValueKey(uint64_t v) { return v >> kWriteIdBits; }
inline uint64_t ValueWrite(uint64_t v) {
  return v & ((uint64_t{1} << kWriteIdBits) - 1);
}

struct Op {
  OpType type;
  uint32_t key;       // key index (scan: the start key)
  uint32_t scan_len;  // SCAN only
};

// Op stream of one connection.  Streams of different connections are
// independent; a connection's inserts draw from its own slice of the fresh
// keys, so the stream does not depend on how connections interleave.
//
// Ops are drawn kStage * 3 ahead of the one handed out, and the chain of
// loads that finds a key's bytes (popularity rank -> key index -> offset ->
// bytes) is prefetched one link per stage.  On a key set larger than the
// caches those are dependent misses, and without the lookahead they made
// the client thread, not the server, set the pace.  The sequence of ops is
// the same as drawing them one at a time.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, const KeyUniverse& universe,
           uint64_t seed, unsigned conn);
  // False once the connection's fresh-key slice is used up.
  bool Next(Op* op);

 private:
  static constexpr uint64_t kStage = 8;
  static constexpr uint64_t kRing = 32;  // > 3 * kStage, a power of two
  struct Slot {
    Op op;
    uint32_t rank;  // popularity rank, until the key index is resolved
    bool pick;      // op.key still has to be read from hot_order[rank]
    bool ok;        // false: the fresh-key slice was used up
  };

  void Draw(Slot* s);      // stage 1: the op and its rank
  void Resolve(Slot* s);   // stage 2: rank -> key index
  void Touch(const Slot& s) const;  // stage 3: the key's bytes
  uint32_t PickRank();

  const WorkloadSpec& spec_;
  const KeyUniverse& universe_;
  unsigned conn_;
  hot::SplitMix64 rng_;
  std::unique_ptr<hot::ZipfianGenerator> zipf_;
  uint64_t inserts_ = 0;
  Slot ring_[kRing];
  uint64_t next_ = 0;  // index of the next op handed out
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
