// Served-path benchmark: one process hosts a KvServer on 127.0.0.1 and
// drives it through KvClient connections in a closed loop.

#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // data dirs and result files go below it
  bool tiny = false;    // shrink every size (harness self-test)
};

struct Metric {
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  // every metric the run measured
  std::vector<std::pair<std::string, std::string>> env;
  std::vector<std::string> failures;  // first few failure reasons
  std::vector<std::string> warnings;
  std::vector<std::string> notes;  // per-window figures behind the medians
  std::vector<std::pair<std::string, double>> phases;  // harness wall times
};

// Runs one workload end to end.  Never throws; setup errors come back as
// failures with correct == false.
RunResult RunWorkload(const RunConfig& config);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
