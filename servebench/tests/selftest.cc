// Self-test of the benchmark harness.
//
//   servebench_selftest WORKDIR
//
// 1. Feeds the correctness model a wrong-key value, a lost acknowledged
//    write and a resurrected key, and checks that it flags each one (and
//    accepts the matching correct histories).
// 2. Runs every workload at tiny size, untraced and traced, and checks
//    that each run completes with no failure.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "checker.h"
#include "workload.h"

namespace {

using hot::net::ScanEntry;
using servebench::Checker;
using servebench::MakeValue;

int failures = 0;

void Expect(bool cond, const std::string& what) {
  printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}

// The model must reject `bad` and name the problem.
void ExpectFlagged(bool accepted, const std::string& why,
                   const std::string& what) {
  Expect(!accepted && !why.empty(), what + " is flagged (" + why + ")");
}

ScanEntry Entry(const servebench::KeyUniverse& u, uint32_t key,
                uint64_t value) {
  hot::KeyRef k = u.key(key);
  return {std::string(reinterpret_cast<const char*>(k.data()), k.size()),
          value};
}

void CheckerCases() {
  servebench::WorkloadSpec spec;
  servebench::LookupWorkload("scan_e_async", /*tiny=*/true, &spec);
  const servebench::KeyUniverse u = servebench::BuildUniverse(spec, 7);
  const uint32_t a = u.hot_order[0];
  const uint32_t b = u.hot_order[1];
  const uint32_t fresh = u.fresh_order[0];
  std::string why;

  {  // Wrong-key value.
    Checker c(u, true);
    why.clear();
    Expect(c.CheckGet(a, c.Frontier(a), true, MakeValue(a, 0), &why),
           "preloaded value of the right key is accepted");
    why.clear();
    ExpectFlagged(c.CheckGet(a, c.Frontier(a), true, MakeValue(b, 0), &why),
                  why, "GET returning another key's value");
  }
  {  // Lost acknowledged write: a read sent after the ack sees the old value.
    Checker c(u, true);
    uint64_t w = c.BeginWrite(a);
    std::string ack_why;
    Expect(c.AckWrite(w, false, MakeValue(a, 0), &ack_why),
           "overwrite ack is accepted");
    why.clear();
    Expect(c.CheckGet(a, c.Frontier(a), true, MakeValue(a, w), &why),
           "read of the acknowledged write is accepted");
    why.clear();
    ExpectFlagged(c.CheckGet(a, c.Frontier(a), true, MakeValue(a, 0), &why),
                  why, "GET returning the value an acked write replaced");
    // The same loss in the full read-back.
    Checker::Image image(c);
    why.clear();
    bool ok = true;
    for (size_t k = 0; k < u.size() && ok; ++k) {
      if (!u.preloaded[k]) continue;
      ok = image.Add(Entry(u, static_cast<uint32_t>(k), MakeValue(k, 0)), &why);
    }
    ExpectFlagged(ok && image.Finish(&why), why,
                  "read-back holding the overwritten value");
  }
  {  // Lost acknowledged insert: an acked fresh key missing from the image.
    Checker c(u, true);
    uint64_t w = c.BeginWrite(fresh);
    std::string ack_why;
    Expect(c.AckWrite(w, true, 0, &ack_why), "insert ack is accepted");
    Checker::Image image(c);
    why.clear();
    bool ok = true;
    for (size_t k = 0; k < u.size() && ok; ++k) {
      if (u.preloaded[k]) {
        ok = image.Add(Entry(u, static_cast<uint32_t>(k), MakeValue(k, 0)),
                       &why);
      }
    }
    ExpectFlagged(ok && image.Finish(&why), why,
                  "read-back missing an acknowledged insert");
  }
  {  // Resurrected key: a key that was never inserted shows up.
    Checker c(u, true);
    Checker::Image image(c);
    why.clear();
    bool ok = true;
    for (size_t k = 0; k < u.size() && ok; ++k) {
      if (u.preloaded[k] || k == fresh) {
        ok = image.Add(Entry(u, static_cast<uint32_t>(k), MakeValue(k, 0)),
                       &why);
      }
    }
    ExpectFlagged(ok && image.Finish(&why), why,
                  "read-back holding a never-inserted key");
    // After a restart: the pre-stop image lacked the key, the recovered
    // one has it.
    Checker::Image before(c);
    bool clean = true;
    for (size_t k = 0; k < u.size() && clean; ++k) {
      if (u.preloaded[k]) {
        clean = before.Add(Entry(u, static_cast<uint32_t>(k), MakeValue(k, 0)),
                           &why);
      }
    }
    Expect(clean && before.Finish(&why), "clean read-back is accepted");
    Checker::Replica after(u, before.values());
    why.clear();
    ok = true;
    for (size_t k = 0; k < u.size() && ok; ++k) {
      if (u.preloaded[k] || k == fresh) {
        ok = after.Add(Entry(u, static_cast<uint32_t>(k), MakeValue(k, 0)),
                       &why);
      }
    }
    ExpectFlagged(ok && after.Finish(&why), why,
                  "restart image with a resurrected key");
  }
  {  // Scans: a skipped preloaded key and a not-yet-inserted key.
    Checker c(u, true);
    std::vector<ScanEntry> items;
    size_t k = a;
    while (k < u.size() && items.size() < 3) {
      if (u.preloaded[k]) {
        items.push_back(Entry(u, static_cast<uint32_t>(k), MakeValue(k, 0)));
      }
      ++k;
    }
    why.clear();
    Expect(c.CheckScan(a, static_cast<uint32_t>(items.size()), c.Tick(), items,
                       &why),
           "consecutive scan is accepted");
    if (items.size() == 3) {
      std::vector<ScanEntry> skipped = {items[0], items[2]};
      why.clear();
      ExpectFlagged(c.CheckScan(a, 2, c.Tick(), skipped, &why), why,
                    "scan skipping a present key");
    }
  }
}

void TinyRuns(const std::string& workdir) {
  for (const std::string& name : servebench::WorkloadNames()) {
    for (bool trace : {false, true}) {
      servebench::RunConfig cfg;
      cfg.workload = name;
      cfg.seed = 3;
      cfg.seconds = 0.5;
      cfg.trace = trace;
      cfg.workdir = workdir;
      cfg.tiny = true;
      servebench::RunResult r = servebench::RunWorkload(cfg);
      for (const auto& f : r.failures) printf("     %s\n", f.c_str());
      const char* probe = trace ? "trace.overhead_ratio" : "recovery_s";
      Expect(r.correct && r.failed == 0 && r.attempted > 0 &&
                 r.metrics.count(probe) == 1,
             "tiny " + name + (trace ? " traced" : " untraced") + " run (" +
                 std::to_string(r.attempted) + " ops)");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workdir = argc > 1 ? argv[1] : ".bench_build/work/selftest";
  CheckerCases();
  TinyRuns(workdir);
  printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
