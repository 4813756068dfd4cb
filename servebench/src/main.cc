// servebench: the served-path benchmark.
//
//   servebench --workload read_c|write_a_sync|scan_e_async --seed N
//              --seconds S --trace 0|1 [--workdir DIR]
//
// Prints a human-readable report, writes a result file under
// DIR/results/, and ends with one JSON line holding the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).  Exits 1 if any
// correctness check failed.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"

namespace {

// The metric lists of BENCHMARK.json: every workload reports all of them.
const std::vector<std::string> kEndToEnd = {
    "throughput_kops",   "read_p50_us", "read_p90_us",
    "mem_bytes_per_key", "setup_s",     "recovery_s"};
const std::vector<std::string> kPerLayer = {
    "net.server.bytes_out_per_op",
    "net.protocol.parse_ns",
    "net.protocol.encode_ns",
    "net.record_store.escape_ns",
    "net.record_store.read_ns",
    "ycsb.range_sharded.index_ns_per_op",
    "ycsb.range_sharded.max_shard_share",
    "hot.index_bytes_per_key",
    "persist.recovery.recover_s",
    "persist.recovery.build_s",
    "trace.read_layer_sum_us",
    "net.residual_us",
    "trace.overhead_ratio"};

// Metrics that exist only on the workloads using their layer; the report
// names the absent ones so a missing layer is visible.
const std::vector<std::string> kWorkloadSpecific = {
    "get_p50_us", "get_p90_us", "get_p99_us", "put_p50_us", "put_p90_us",
    "put_p99_us", "scan_p50_us", "scan_p90_us", "scan_p99_us",
    "net.server.gets_per_drain", "net.server.scalar_get_share",
    "net.record_store.append_ns", "net.record_store.appends_per_put",
    "ycsb.range_sharded.lookup_batch_ns_per_key",
    "ycsb.range_sharded.lookup_ns",
    "ycsb.range_sharded.scan_ns_per_item", "ycsb.range_sharded.upsert_ns",
    "hot.rowex.restarts_per_write", "hot.rowex.cow_per_write",
    "hot.node_pool.hit_ratio", "common.epoch.backlog", "persist.wal.append_ns",
    "persist.wal.commit_us", "persist.wal.appends_per_fsync",
    "persist.wal.bytes_per_put", "persist.snapshot.cycle_s",
    "persist.snapshot.count"};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

int Usage() {
  fprintf(stderr,
          "usage: servebench --workload NAME --seed N --seconds S "
          "--trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  servebench::RunConfig cfg;
  cfg.workdir = ".bench_build/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = value();
    if (v == nullptr) return Usage();
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = atof(v);
    } else if (a == "--trace") {
      cfg.trace = atoi(v) != 0;
    } else if (a == "--workdir") {
      cfg.workdir = v;
    } else {
      return Usage();
    }
  }
  if (!have_workload || cfg.seconds <= 0) return Usage();

  servebench::RunResult r = servebench::RunWorkload(cfg);

  // Human-readable report.
  printf("servebench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
         cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0);
  for (const auto& [k, v] : r.env) {
    printf("env %s = %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [name, m] : r.metrics) {
    printf("metric %-44s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& name : kWorkloadSpecific) {
    if (!r.metrics.count(name)) {
      printf("metric %-44s %14s (layer unused, or HOT_STATS off)\n",
             name.c_str(), "n/a");
    }
  }
  const double failed_ratio =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  printf("metric %-44s %14.6f ratio (%" PRIu64 " of %" PRIu64 " ops)\n",
         "failed_ops_ratio", failed_ratio, r.failed, r.attempted);
  for (const auto& [k, v] : r.phases) {
    printf("phase %-10s %8.2f s\n", k.c_str(), v);
  }
  for (const auto& n : r.notes) printf("note %s\n", n.c_str());
  for (const auto& w : r.warnings) printf("WARNING %s\n", w.c_str());
  for (const auto& f : r.failures) printf("FAILURE %s\n", f.c_str());

  // The BENCHMARK.json metrics of this mode; a missing one is a harness
  // error.
  const std::vector<std::string>& wanted = cfg.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  bool complete = true;
  for (const auto& name : wanted) {
    auto it = r.metrics.find(name);
    if (it == r.metrics.end()) {
      complete = false;
      if (r.correct) {
        printf("FAILURE metric %s was not measured\n", name.c_str());
      }
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(name) + ": {\"value\": " + Num(it->second.value) +
               ", \"unit\": " + Quote(it->second.unit) + "}";
  }
  const bool correct = r.correct && complete;

  // Result file: environment, every metric, failures.
  std::string path = cfg.workdir + "/results/" + cfg.workload + "-seed" +
                     std::to_string(cfg.seed) + "-trace" +
                     (cfg.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"env\": {";
  for (size_t i = 0; i < r.env.size(); ++i) {
    out << (i ? ", " : "") << Quote(r.env[i].first) << ": "
        << Quote(r.env[i].second);
  }
  out << "}, \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"failed_ops_ratio\": " << Num(failed_ratio) << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ", ") << Quote(name) << ": {\"value\": "
        << Num(m.value) << ", \"unit\": " << Quote(m.unit) << "}";
    first = false;
  }
  out << "}, \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    out << (i ? ", " : "") << Quote(r.failures[i]);
  }
  out << "], \"notes\": [";
  for (size_t i = 0; i < r.notes.size(); ++i) {
    out << (i ? ", " : "") << Quote(r.notes[i]);
  }
  out << "], \"warnings\": [";
  for (size_t i = 0; i < r.warnings.size(); ++i) {
    out << (i ? ", " : "") << Quote(r.warnings[i]);
  }
  out << "]}\n";
  out.close();
  printf("result file %s\n", path.c_str());

  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": {%s}}\n",
         correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}
