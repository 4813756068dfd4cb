// Traced replay: the workload's op stream executed in-process through the
// same public calls the server makes, in the server's order, on the
// server's thread count, with a span around every call.

#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "spans.h"
#include "workload.h"

namespace servebench {

struct ReplayConfig {
  std::string data_dir;   // holds the preload snapshot; the replay's WAL
  unsigned workers = 2;   // goes here too
  unsigned shards = 16;
  unsigned drain_width = 1;  // GETs per drain, as the served run measured
  uint64_t ops = 0;          // across all connections
  bool spans = false;
  std::string span_path;     // written when spans is set
};

struct ReplayResult {
  bool ok = false;
  std::string error;
  uint64_t failures = 0;  // GET replies that did not hold their key's value
  double wall_s = 0;
  LayerTotals totals;
  uint64_t ops = 0, gets = 0, puts = 0, scans = 0, scan_items = 0;
  uint64_t batched_gets = 0;
  double read_layer_ns = 0;  // mean self-time sum of one read op
  uint64_t wal_appends = 0, wal_append_bytes = 0;
  uint64_t spans_recorded = 0;
  double span_floor_ns = 0;  // recorder cost taken out of every self time
};

ReplayResult RunReplay(const WorkloadSpec& spec, const KeyUniverse& universe,
                       uint64_t seed, const ReplayConfig& config);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
