#include "bench.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sched.h>
#include <malloc.h>
#include <sys/epoll.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "checker.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/telemetry.h"
#include "persist/snapshot.h"
#include "replay.h"
#include "workload.h"

namespace servebench {

namespace fs = std::filesystem;
using hot::KeyRef;
using hot::net::KvClient;
using hot::net::KvServer;
using hot::net::Reply;
using hot::net::ServerOptions;
using hot::net::ServerStats;

namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kShards = 16;
// Count-bounded phases (warm-up, WAL tail) stop after this long at most.
constexpr double kMaxPhaseSeconds = 30.0;
// setup_s and recovery_s are medians over at least kMinStarts starts and
// kMinStartSeconds of starting, at most kMaxStarts.
constexpr int kMinStarts = 5;
constexpr int kMaxStarts = 25;
constexpr double kMinStartSeconds = 4.0;

// `planned` starts still to come count at the mean duration so far.
bool MoreStarts(const std::vector<double>& times, size_t planned = 0) {
  double total = 0;
  for (double t : times) total += t;
  const size_t n = times.size() + planned;
  if (!times.empty()) total += static_cast<double>(planned) * total /
                               static_cast<double>(times.size());
  return n < static_cast<size_t>(kMinStarts) ||
         (total < kMinStartSeconds && n < static_cast<size_t>(kMaxStarts));
}
constexpr uint32_t kReadBackChunk = 65536;
constexpr size_t kMaxFailureNotes = 8;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// "name (s): v1 v2 ...", for the report's notes.
std::string Series(const std::string& name, const std::vector<double>& v) {
  std::string out = name + ":";
  char buf[32];
  for (double x : v) {
    snprintf(buf, sizeof(buf), " %.4g", x);
    out += buf;
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Latency sample of one op type: every value until the buffer is full,
// then a uniform reservoir.  The buffer is allocated and touched up front,
// so recording adds nothing to the process RSS that mem_bytes_per_key
// measures.
class Sample {
 public:
  explicit Sample(size_t cap) : buf_(cap, 0.0f) {}
  void Add(float x) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = x;
    } else {
      uint64_t j = rng_.NextBounded(seen_ + 1);
      if (j < buf_.size()) buf_[j] = x;
    }
    ++seen_;
  }
  uint64_t seen() const { return seen_; }
  // Nearest-rank percentile (reorders the kept values).
  double Percentile(double p) {
    size_t n = std::min<uint64_t>(seen_, buf_.size());
    if (n == 0) return 0;
    size_t k = static_cast<size_t>(p * static_cast<double>(n - 1));
    std::nth_element(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(k),
                     buf_.begin() + static_cast<ptrdiff_t>(n));
    return buf_[k];
  }

 private:
  std::vector<float> buf_;
  uint64_t seen_ = 0;
  hot::SplitMix64 rng_{0x1a7e5ull};
};

// Thread placement: when the process may run on at least 4 CPUs, the
// client thread runs on the first of them and the server's threads on the
// others, so the load generator never shares a core with a worker it is
// waiting for (wake-affine scheduling otherwise stacks the two on one CPU
// for whole runs).  The CPUs are those of the process's affinity mask at
// start-up, which in a container need not begin at CPU 0.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

bool PlacementEnabled() { return AllowedCpus().size() >= 4; }

// The server's CPUs: every allowed CPU but the client's.
cpu_set_t ServerCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 1; i < AllowedCpus().size(); ++i) {
    CPU_SET(AllowedCpus()[i], &set);
  }
  return set;
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') {
        tids.push_back(static_cast<pid_t>(atoi(e->d_name)));
      }
    }
    closedir(d);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

// Pins every thread that exists now but not in `before` to the server's
// CPUs.
void PinNewThreads(const std::vector<pid_t>& before) {
  if (!PlacementEnabled()) return;
  cpu_set_t set = ServerCpus();
  for (pid_t tid : ThreadIds()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      sched_setaffinity(tid, sizeof(set), &set);
    }
  }
}

// Pins the calling thread to the client's CPU for its lifetime, then
// restores its mask.
class ClientPlacement {
 public:
  ClientPlacement() {
    if (!PlacementEnabled()) return;
    active_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(AllowedCpus().front(), &set);
    if (active_) sched_setaffinity(0, sizeof(set), &set);
  }
  ~ClientPlacement() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ClientPlacement(const ClientPlacement&) = delete;
  ClientPlacement& operator=(const ClientPlacement&) = delete;

 private:
  bool active_ = false;
  cpu_set_t saved_;
};

bool WouldBlock(const std::string& error) {
  return error.find(strerror(EAGAIN)) != std::string::npos;
}

std::string ReadSysFile(const std::string& path) {
  std::ifstream f(path);
  std::string s;
  std::getline(f, s);
  return s.empty() ? "unknown" : s;
}

std::string FsType(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      snprintf(buf, sizeof(buf), "0x%llx",
               static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

// --- the run -----------------------------------------------------------------

class Run {
 public:
  Run(const RunConfig& config, RunResult* result)
      : cfg_(config), res_(result) {}

  bool Execute();

 private:
  struct Pending {
    uint64_t id = 0;
    Op op{};
    uint64_t write_id = 0;
    uint64_t frontier = 0;
    uint64_t t_send = 0;  // logical clock
    uint64_t flush_ns = 0;
    bool measured = false;
  };
  static constexpr size_t kRing = 4096;
  static constexpr size_t kSampleCap = 2u << 20;

  struct Conn {
    KvClient client;
    std::unique_ptr<OpStream> stream;
    std::vector<Pending> ring = std::vector<Pending>(kRing);
    std::vector<uint64_t> unflushed;  // ids sent but not yet flushed
    unsigned outstanding = 0;
  };

  // Background TriggerSnapshot caller: one cycle per requested point.
  class Snapshotter {
   public:
    explicit Snapshotter(KvServer* server) : server_(server) {
      thread_ = std::thread([this] { Loop(); });
      if (PlacementEnabled()) {  // server-side work: on the server's CPUs
        cpu_set_t set = ServerCpus();
        pthread_setaffinity_np(thread_.native_handle(), sizeof(set), &set);
      }
    }
    ~Snapshotter() {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      thread_.join();
    }
    Snapshotter(const Snapshotter&) = delete;
    Snapshotter& operator=(const Snapshotter&) = delete;

    void Request() {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++requested_;
      }
      cv_.notify_all();
    }
    void WaitIdle() {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return done_ == requested_; });
    }
    std::vector<double> cycles() {
      std::lock_guard<std::mutex> lk(mu_);
      return cycles_;
    }
    std::vector<std::string> errors() {
      std::lock_guard<std::mutex> lk(mu_);
      return errors_;
    }

   private:
    void Loop() {
      std::unique_lock<std::mutex> lk(mu_);
      while (true) {
        cv_.wait(lk, [&] { return stop_ || done_ < requested_; });
        if (done_ == requested_) return;  // stop requested and idle
        lk.unlock();
        auto t0 = std::chrono::steady_clock::now();
        std::string err;
        bool ok = server_->TriggerSnapshot(&err);
        double s = Seconds(t0, std::chrono::steady_clock::now());
        lk.lock();
        if (ok) {
          cycles_.push_back(s);
        } else {
          errors_.push_back("snapshot: " + err);
        }
        ++done_;
        cv_.notify_all();
      }
    }

    KvServer* server_;
    std::mutex mu_;
    std::condition_variable cv_;
    uint64_t requested_ = 0;
    uint64_t done_ = 0;
    bool stop_ = false;
    std::vector<double> cycles_;
    std::vector<std::string> errors_;
    std::thread thread_;  // last: started after the state it uses
  };

  void Fail(const std::string& why) {
    ++res_->failed;
    if (res_->failures.size() < kMaxFailureNotes) res_->failures.push_back(why);
  }
  void Put(const std::string& name, double value, const std::string& unit) {
    res_->metrics[name] = {value, unit};
  }
  // Wall time of each harness phase, reported so run length stays visible.
  void Phase(const char* name) {
    auto now = std::chrono::steady_clock::now();
    res_->phases.emplace_back(name, Seconds(phase_start_, now));
    phase_start_ = now;
  }

  ServerOptions Options() const {
    ServerOptions o;
    o.host = "127.0.0.1";
    o.workers = kWorkers;
    o.shards = kShards;
    o.data_dir = serve_dir_;
    o.durability = spec_.durability;
    return o;
  }

  bool Preload();
  std::unique_ptr<KvServer> StartServer(double* seconds);
  bool Drive(KvServer* server, double seconds, bool measure,
             Snapshotter* snapshots, uint64_t op_budget = 0);
  void SampleMemory();
  bool Issue(Conn* c, bool measure, Snapshotter* snapshots);
  void HandleReply(Conn* c, const Reply& r, uint64_t now_ns);
  bool ReadBack(KvServer* server, Checker::Image* image,
                Checker::Replica* replica);
  void RecordEnv();
  void CounterMetrics(const ServerStats& s0, const ServerStats& s1,
                      const hot::obs::TelemetrySnapshot& t0,
                      const hot::obs::TelemetrySnapshot& t1,
                      uint64_t appended0, KvServer* server,
                      const std::vector<double>& snapshot_cycles);
  bool Replay(double read_p50_us, unsigned drain_width);

  const RunConfig& cfg_;
  RunResult* res_;
  WorkloadSpec spec_;
  KeyUniverse universe_;
  std::unique_ptr<Checker> checker_;
  std::string root_, serve_dir_;
  std::vector<Conn> conns_;
  uint64_t measured_issued_ = 0;
  // Throughput and latency cover the whole measured phase.  The phase is
  // also cut into 1-second windows by reply time, for the per-window
  // throughput series in the report.  A mean over the phase, not a median
  // over windows: the host's slow spells last seconds and take a varying
  // share of a run, and a median over windows jumps between the slow and
  // the fast level as that share crosses one half.
  unsigned windows_ = 1;
  uint64_t window_ns_ = 1;
  uint64_t window_start_ns_ = 0;
  bool in_window_ = false;
  std::vector<uint64_t> window_replies_;
  // mem_bytes_per_key is sampled once the measured phase has completed
  // spec_.mem_sample_ops replies, so it does not scale with throughput.
  uint64_t measured_replies_ = 0;
  uint64_t rss_base_ = 0, checker_base_ = 0;
  bool mem_sampled_ = false;
  std::vector<Sample> lat_us_;  // [op type]
  std::chrono::steady_clock::time_point phase_start_ =
      std::chrono::steady_clock::now();
};

bool Run::Preload() {
  std::error_code ec;
  fs::remove_all(root_, ec);
  fs::create_directories(serve_dir_, ec);
  if (ec) {
    Fail("cannot create " + serve_dir_ + ": " + ec.message());
    return false;
  }
  hot::persist::SnapshotWriter writer;
  std::string err;
  if (!writer.Open(hot::persist::SnapshotPath(serve_dir_), &err)) {
    Fail(err);
    return false;
  }
  for (size_t i = 0; i < universe_.size(); ++i) {
    if (universe_.preloaded[i]) writer.Add(universe_.key(i), MakeValue(i, 0));
  }
  if (!writer.Finish(0, &err)) {
    Fail("preload snapshot: " + err);
    return false;
  }
  return true;
}

// Start() on the data dir until the first reply, which must be correct.
std::unique_ptr<KvServer> Run::StartServer(double* seconds) {
  auto server = std::make_unique<KvServer>(Options());
  const std::vector<pid_t> before = ThreadIds();
  auto t0 = std::chrono::steady_clock::now();
  std::string err;
  if (!server->Start(&err)) {
    Fail("server start: " + err);
    return nullptr;
  }
  KvClient client;
  Reply reply;
  uint32_t key = universe_.hot_order[0];
  if (!client.Connect("127.0.0.1", server->port(), &err) ||
      !client.Get(universe_.key(key), &reply, &err)) {
    Fail("first request: " + err);
    return nullptr;
  }
  *seconds = Seconds(t0, std::chrono::steady_clock::now());
  PinNewThreads(before);
  ++res_->attempted;
  if (reply.status != hot::net::kOk || ValueKey(reply.value) != key) {
    Fail("first reply after start does not hold the preloaded key");
  }
  return server;
}

bool Run::Issue(Conn* c, bool measure, Snapshotter* snapshots) {
  Op op;
  if (!c->stream->Next(&op)) {
    Fail("fresh insert keys exhausted; raise the workload's fresh count");
    return false;
  }
  Pending p;
  p.op = op;
  p.measured = measure;
  KeyRef key = universe_.key(op.key);
  switch (op.type) {
    case OpType::kGet:
      p.frontier = checker_->Frontier(op.key);
      p.t_send = checker_->Tick();
      p.id = c->client.SendGet(key);
      break;
    case OpType::kPut:
      p.write_id = checker_->BeginWrite(op.key);
      p.t_send = checker_->now();
      p.id = c->client.SendPut(key, MakeValue(op.key, p.write_id));
      break;
    case OpType::kScan:
      p.t_send = checker_->Tick();
      p.id = c->client.SendScan(key, op.scan_len);
      break;
  }
  Pending& slot = c->ring[p.id % kRing];
  if (slot.id != 0) {
    Fail("more than " + std::to_string(kRing) + " requests in flight");
    return false;
  }
  slot = p;
  c->unflushed.push_back(p.id);
  ++c->outstanding;
  ++res_->attempted;
  if (measure) {
    ++measured_issued_;
    if (snapshots != nullptr && spec_.snapshot_every != 0 &&
        measured_issued_ % spec_.snapshot_every == 0) {
      snapshots->Request();
    }
  }
  return true;
}

void Run::HandleReply(Conn* c, const Reply& r, uint64_t now_ns) {
  Pending& p = c->ring[r.id % kRing];
  if (p.id != r.id || r.id == 0) {
    Fail("reply for an unknown request id " + std::to_string(r.id));
    return;
  }
  Pending slot = p;
  p.id = 0;
  --c->outstanding;
  checker_->Tick();
  std::string why;
  bool ok = true;
  if (r.status != hot::net::kOk &&
      !(slot.op.type == OpType::kGet && r.status == hot::net::kNotFound)) {
    ok = false;
    why = std::string(OpName(slot.op.type)) + " status " +
          std::to_string(r.status) + ": " + r.error;
  } else {
    switch (slot.op.type) {
      case OpType::kGet:
        ok = checker_->CheckGet(slot.op.key, slot.frontier, r.ok(), r.value,
                                &why);
        break;
      case OpType::kPut:
        ok = checker_->AckWrite(slot.write_id, r.created, r.prev, &why);
        break;
      case OpType::kScan:
        ok = checker_->CheckScan(slot.op.key, slot.op.scan_len, slot.t_send,
                                 r.scan, &why);
        break;
    }
  }
  if (!ok) Fail(why);
  if (slot.measured && ++measured_replies_ == spec_.mem_sample_ops) {
    SampleMemory();
  }
  const uint64_t w = (now_ns - window_start_ns_) / window_ns_;
  if (in_window_ && w < windows_) ++window_replies_[w];
  if (slot.measured && slot.flush_ns != 0 && now_ns >= slot.flush_ns) {
    lat_us_[static_cast<int>(slot.op.type)].Add(static_cast<float>(
        static_cast<double>(now_ns - slot.flush_ns) / 1e3));
  }
}

// Closed loop: every connection keeps `depth` requests outstanding and
// sends the next one when a reply arrives.  Returns once `seconds` have
// passed and every outstanding request has been answered.
// RSS growth of the process since the baseline, minus what the client-side
// model grew by, per live key; allocator caches are returned first.
void Run::SampleMemory() {
  malloc_trim(0);
  const double grown =
      static_cast<double>(RssBytes()) - static_cast<double>(rss_base_) -
      static_cast<double>(checker_->tracked_bytes() - checker_base_);
  const double live = static_cast<double>(universe_.hot_order.size() +
                                          checker_->acked_inserts());
  Put("mem_bytes_per_key", grown / live, "B");
  mem_sampled_ = true;
}

bool Run::Drive(KvServer* server, double seconds, bool measure,
                Snapshotter* snapshots, uint64_t op_budget) {
  using Clock = std::chrono::steady_clock;
  ClientPlacement placement;
  if (!conns_.front().client.connected()) {
    for (unsigned i = 0; i < spec_.conns; ++i) {
      Conn& c = conns_[i];
      std::string err;
      if (!c.client.Connect("127.0.0.1", server->port(), &err)) {
        Fail("connect: " + err);
        return false;
      }
      // Non-blocking: ReadReply/Flush then report EAGAIN instead of
      // blocking, so one thread can multiplex every connection.
      int fl = fcntl(c.client.fd(), F_GETFL);
      fcntl(c.client.fd(), F_SETFL, fl | O_NONBLOCK);
      c.stream = std::make_unique<OpStream>(spec_, universe_, cfg_.seed, i);
    }
  }
  int ep = epoll_create1(EPOLL_CLOEXEC);
  for (unsigned i = 0; i < conns_.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = i;
    epoll_ctl(ep, EPOLL_CTL_ADD, conns_[i].client.fd(), &ev);
  }
  auto start = Clock::now();
  auto end = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  in_window_ = measure;
  window_start_ns_ = NowNs();
  bool stopping = false;
  bool ok = true;
  uint64_t issued = 0;
  Reply reply;
  while (ok) {
    bool blocked = false;
    for (Conn& c : conns_) {
      while (!stopping && c.outstanding < spec_.depth) {
        if (!Issue(&c, measure, snapshots)) {
          ok = false;
          break;
        }
        if (++issued == op_budget) stopping = true;
      }
      if (!c.unflushed.empty()) {
        std::string err;
        bool flushed = c.client.Flush(&err);
        if (!flushed && !WouldBlock(err)) {
          Fail("flush: " + err);
          ok = false;
        } else if (flushed) {
          uint64_t now = NowNs();
          for (uint64_t id : c.unflushed) c.ring[id % kRing].flush_ns = now;
          c.unflushed.clear();
        } else {
          blocked = true;
        }
      }
    }
    if (!ok) break;
    unsigned outstanding = 0;
    for (const Conn& c : conns_) outstanding += c.outstanding;
    if (stopping && outstanding == 0) break;
    epoll_event events[8];
    int n = epoll_wait(ep, events, 8, blocked ? 1 : 200);
    for (int e = 0; e < n && ok; ++e) {
      Conn& c = conns_[events[e].data.u32];
      while (true) {
        std::string err;
        if (!c.client.ReadReply(&reply, &err)) {
          if (!WouldBlock(err)) {
            Fail("read: " + err);
            ok = false;
          }
          break;
        }
        HandleReply(&c, reply, NowNs());
      }
    }
    auto now = Clock::now();
    if (!stopping && now >= end) {
      stopping = true;
      in_window_ = false;
    }
  }
  ::close(ep);
  in_window_ = false;
  return ok;
}

// Full ordered read-back through the wire in chunks of kReadBackChunk.
bool Run::ReadBack(KvServer* server, Checker::Image* image,
                   Checker::Replica* replica) {
  KvClient client;
  std::string err;
  if (!client.Connect("127.0.0.1", server->port(), &err)) {
    Fail("read-back connect: " + err);
    return false;
  }
  std::string start;
  Reply reply;
  std::string why;
  while (true) {
    ++res_->attempted;
    if (!client.Scan(KeyRef(start), kReadBackChunk, &reply, &err) ||
        reply.status != hot::net::kOk) {
      Fail("read-back scan: " + (err.empty() ? reply.error : err));
      return false;
    }
    for (const auto& item : reply.scan) {
      bool ok = image != nullptr ? image->Add(item, &why)
                                 : replica->Add(item, &why);
      if (!ok) {
        Fail(why);
        return false;
      }
    }
    if (reply.scan.size() < kReadBackChunk) break;
    start = reply.scan.back().key;
    start.push_back('\0');  // the smallest key after the last one
  }
  bool ok = image != nullptr ? image->Finish(&why) : replica->Finish(&why);
  if (!ok) Fail(why);
  return ok;
}

void Run::RecordEnv() {
  auto& env = res_->env;
  env.emplace_back("workload", spec_.name);
  env.emplace_back("seed", std::to_string(cfg_.seed));
  env.emplace_back("nproc", std::to_string(AllowedCpus().size()));
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/";
  env.emplace_back("l2_cache", ReadSysFile(cache + "index2/size"));
  env.emplace_back("l3_cache", ReadSysFile(cache + "index3/size"));
  env.emplace_back("data_dir_fs", FsType(serve_dir_));
  env.emplace_back("build_type", SERVEBENCH_BUILD_TYPE);
#if defined(HOT_STATS) && HOT_STATS
  env.emplace_back("hot_stats", "on");
#else
  env.emplace_back("hot_stats", "off");
#endif
  env.emplace_back("durability",
                   hot::persist::DurabilityName(spec_.durability));
  env.emplace_back("keys", std::string(hot::ycsb::DataSetName(spec_.keys)) +
                               " preload=" +
                               std::to_string(universe_.hot_order.size()) +
                               " fresh=" + std::to_string(spec_.fresh));
  env.emplace_back("load", std::to_string(spec_.conns) + " conns x depth " +
                               std::to_string(spec_.depth) +
                               ", closed loop, one client thread");
  env.emplace_back("placement",
                   PlacementEnabled()
                       ? "client on CPU " +
                             std::to_string(AllowedCpus().front()) +
                             ", server threads on the other allowed CPUs"
                       : std::string("unpinned (fewer than 4 CPUs)"));
  env.emplace_back("server", std::to_string(kWorkers) + " workers, " +
                                 std::to_string(kShards) +
                                 " range shards, 127.0.0.1 loopback");
}

void Run::CounterMetrics(const ServerStats& s0, const ServerStats& s1,
                         const hot::obs::TelemetrySnapshot& t0,
                         const hot::obs::TelemetrySnapshot& t1,
                         uint64_t appended0, KvServer* server,
                         const std::vector<double>& snapshot_cycles) {
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const double gets = static_cast<double>(s1.gets - s0.gets);
  const double puts = static_cast<double>(s1.puts - s0.puts);
  const double replies = static_cast<double>(s1.replies_out - s0.replies_out);
  const double drains =
      static_cast<double>((s1.batch_drains - s0.batch_drains) +
                          (s1.scalar_drains - s0.scalar_drains));
  const double live = static_cast<double>(server->live_keys());
  Put("net.server.bytes_out_per_op",
      ratio(static_cast<double>(s1.bytes_out - s0.bytes_out), replies), "B");
  if (gets > 0) {
    Put("net.server.gets_per_drain", ratio(gets, drains), "count");
    Put("net.server.scalar_get_share",
        ratio(static_cast<double>(s1.scalar_gets - s0.scalar_gets), gets),
        "ratio");
  }
  Put("ycsb.range_sharded.max_shard_share",
      ratio(static_cast<double>(t1.shard_entries_max), live), "ratio");
  Put("hot.index_bytes_per_key",
      ratio(static_cast<double>(t1.census.total_bytes), live), "B");
  Put("persist.recovery.recover_s", server->recovery().recover_seconds, "s");
  Put("persist.recovery.build_s", server->recovery().build_seconds, "s");
#if defined(HOT_STATS) && HOT_STATS
  // Telemetry counters exist only with HOT_STATS; absent otherwise.
  const double pool = static_cast<double>((t1.pool_hits - t0.pool_hits) +
                                          (t1.pool_carves - t0.pool_carves));
  if (pool > 0) {
    Put("hot.node_pool.hit_ratio",
        ratio(static_cast<double>(t1.pool_hits - t0.pool_hits), pool),
        "ratio");
  }
  Put("common.epoch.backlog", static_cast<double>(t1.retire_backlog), "count");
  if (puts > 0) {
    Put("hot.rowex.restarts_per_write",
        ratio(static_cast<double>(t1.writer_restarts - t0.writer_restarts),
              puts),
        "count");
    Put("hot.rowex.cow_per_write",
        ratio(static_cast<double>(t1.cow_replacements - t0.cow_replacements),
              puts),
        "count");
  }
#else
  (void)t0;
#endif
  if (puts > 0) {
    // Useful-work ratio of the record store: appends per acknowledged PUT.
    Put("net.record_store.appends_per_put",
        ratio(static_cast<double>(server->store().appended() - appended0),
              puts),
        "count");
    Put("persist.wal.appends_per_fsync",
        ratio(static_cast<double>(s1.wal_appends - s0.wal_appends),
              static_cast<double>(s1.wal_fsyncs - s0.wal_fsyncs)),
        "count");
  }
  if (!snapshot_cycles.empty()) {
    Put("persist.snapshot.count", static_cast<double>(snapshot_cycles.size()),
        "count");
    Put("persist.snapshot.cycle_s", Median(snapshot_cycles), "s");
  }
}

bool Run::Execute() {
  if (!LookupWorkload(cfg_.workload, cfg_.tiny, &spec_)) {
    Fail("unknown workload " + cfg_.workload);
    return false;
  }
  root_ = cfg_.workdir + "/" + spec_.name;
  serve_dir_ = root_ + "/serve";
  universe_ = BuildUniverse(spec_, cfg_.seed);
  checker_ = std::make_unique<Checker>(universe_, spec_.put_share > 0);
  Phase("generate");
  if (!Preload()) return false;
  Phase("preload");
  RecordEnv();
  if (cfg_.trace) {
    // The replay starts from the same preload image; the snapshot file is
    // only ever replaced by rename, so a hard link stays the preload.
    for (int i = 0; i < 2; ++i) {
      std::string dir = root_ + "/replay" + std::to_string(i);
      std::error_code ec;
      fs::create_directories(dir, ec);
      fs::create_hard_link(hot::persist::SnapshotPath(serve_dir_),
                           hot::persist::SnapshotPath(dir), ec);
      if (ec) {
        Fail("replay dir: " + ec.message());
        return false;
      }
    }
  }
  // Client-side state is allocated before the RSS baseline.
  conns_ = std::vector<Conn>(spec_.conns);
  windows_ = std::max(1u, static_cast<unsigned>(cfg_.seconds));
  window_ns_ = static_cast<uint64_t>(cfg_.seconds / windows_ * 1e9);
  window_replies_.assign(windows_, 0);
  for (int t = 0; t < kNumOpTypes; ++t) {
    bool used = spec_.read_op() == static_cast<OpType>(t) ||
                (t == static_cast<int>(OpType::kPut) && spec_.put_share > 0);
    lat_us_.emplace_back(used ? kSampleCap : 0);
  }

  // Set-up: Start() on the preloaded dir until the first reply, repeated;
  // the last start is the server that gets measured.
  std::vector<double> setup_s;
  std::unique_ptr<KvServer> server;
  while (!cfg_.trace && MoreStarts(setup_s, 1)) {
    double s = 0;
    server = StartServer(&s);
    if (server == nullptr) return false;
    setup_s.push_back(s);
    server.reset();
    malloc_trim(0);  // every start begins from the same allocator state
  }
  malloc_trim(0);
  rss_base_ = RssBytes();
  checker_base_ = checker_->tracked_bytes();
  double start_s = 0;
  server = StartServer(&start_s);
  if (server == nullptr) return false;
  setup_s.push_back(start_s);
  Put("setup_s", Median(setup_s), "s");
  res_->notes.push_back(Series("setup per start (s)", setup_s));
  Phase("setup");

  // Warm-up, then the measured phase.  Both end quiescent, so the counters
  // and the index census read at the boundaries are exact.
  std::unique_ptr<Snapshotter> snapshots;
  if (spec_.snapshot_every != 0) {
    snapshots = std::make_unique<Snapshotter>(server.get());
  }
  if (!Drive(server.get(), kMaxPhaseSeconds, false, nullptr,
             spec_.warmup_ops)) {
    return false;
  }
  const ServerStats s0 = server->StatsSnapshot();
  const hot::obs::TelemetrySnapshot t0 =
      hot::obs::CollectTelemetry(server->index());
  const uint64_t appended0 = server->store().appended();
  Phase("warmup");
  if (!Drive(server.get(), cfg_.seconds, true, snapshots.get())) return false;
  Phase("measure");
  std::vector<double> cycles;
  if (snapshots != nullptr) {
    snapshots->WaitIdle();
    cycles = snapshots->cycles();
    for (const auto& e : snapshots->errors()) Fail(e);
    snapshots.reset();
  }
  const ServerStats s1 = server->StatsSnapshot();
  const hot::obs::TelemetrySnapshot t1 =
      hot::obs::CollectTelemetry(server->index());
  if (!mem_sampled_) {
    res_->warnings.push_back(
        "measured phase ended before " + std::to_string(spec_.mem_sample_ops) +
        " replies; mem_bytes_per_key is sampled at its end");
    SampleMemory();
  }

  const double window_s = static_cast<double>(window_ns_) / 1e9;
  uint64_t replies = 0;
  std::string series = "throughput per window (kops):";
  for (uint64_t n : window_replies_) {
    replies += n;
    series += " " + std::to_string(static_cast<int>(
                        static_cast<double>(n) / window_s / 1e3));
  }
  res_->notes.push_back(series);
  Put("throughput_kops",
      static_cast<double>(replies) / (window_s * windows_) / 1e3, "kops");
  for (int t = 0; t < kNumOpTypes; ++t) {
    Sample& v = lat_us_[t];
    if (v.seen() == 0) continue;
    std::string op = OpName(static_cast<OpType>(t));
    Put(op + "_samples", static_cast<double>(v.seen()), "count");
    Put(op + "_p50_us", v.Percentile(0.50), "us");
    Put(op + "_p90_us", v.Percentile(0.90), "us");
    Put(op + "_p99_us", v.Percentile(0.99), "us");
  }
  const std::string read = OpName(spec_.read_op());
  Put("read_p50_us", res_->metrics[read + "_p50_us"].value, "us");
  Put("read_p90_us", res_->metrics[read + "_p90_us"].value, "us");
  Put("read_p99_us", res_->metrics[read + "_p99_us"].value, "us");
  CounterMetrics(s0, s1, t0, t1, appended0, server.get(), cycles);
  Phase("counters");

  // Durable-write workloads: snapshot, then a fixed number of further ops,
  // so the restart below recovers a snapshot plus a WAL tail whose length
  // does not depend on throughput.
  if (!cfg_.trace && spec_.tail_ops > 0) {
    std::string err;
    if (!server->TriggerSnapshot(&err)) {
      Fail("snapshot before the WAL tail: " + err);
      return false;
    }
    if (!Drive(server.get(), kMaxPhaseSeconds, false, nullptr,
               spec_.tail_ops)) {
      return false;
    }
    Phase("wal-tail");
  }
  for (auto& c : conns_) c.client.Close();

  // Every key read back must hold a value the model allows.
  Checker::Image image(*checker_);
  if (!ReadBack(server.get(), &image, nullptr)) return false;
  Phase("read-back");

  if (!cfg_.trace) {
    // Restart on the same dir (snapshot + WAL tail) until the first reply;
    // the recovered image must equal the one read before the stop.
    server.reset();
    malloc_trim(0);
    std::vector<double> recovery_s;
    while (MoreStarts(recovery_s)) {
      double s = 0;
      server = StartServer(&s);
      if (server == nullptr) return false;
      recovery_s.push_back(s);
      if (recovery_s.size() == 1) {
        Checker::Replica replica(universe_, image.values());
        if (!ReadBack(server.get(), nullptr, &replica)) return false;
      }
      server.reset();
      malloc_trim(0);
    }
    Put("recovery_s", Median(recovery_s), "s");
    res_->notes.push_back(Series("recovery per start (s)", recovery_s));
    Phase("recovery");
  } else {
    server.reset();
    auto it = res_->metrics.find("net.server.gets_per_drain");
    unsigned width =
        it == res_->metrics.end()
            ? 1u
            : std::max(1u, static_cast<unsigned>(it->second.value + 0.5));
    if (!Replay(res_->metrics["read_p50_us"].value, width)) return false;
    Phase("replay");
  }
  return true;
}

bool Run::Replay(double read_p50_us, unsigned drain_width) {
  ReplayResult runs[2];
  for (int i = 0; i < 2; ++i) {
    ReplayConfig rc;
    rc.data_dir = root_ + "/replay" + std::to_string(i);
    rc.workers = kWorkers;
    rc.shards = kShards;
    rc.drain_width = drain_width;
    rc.ops = spec_.replay_ops;
    rc.spans = i == 1;
    rc.span_path = cfg_.workdir + "/results/" + spec_.name + "-spans.bin";
    runs[i] = RunReplay(spec_, universe_, cfg_.seed, rc);
    if (!runs[i].ok) {
      Fail("replay: " + runs[i].error);
      return false;
    }
    res_->attempted += runs[i].ops;
    for (uint64_t f = 0; f < runs[i].failures; ++f) {
      Fail("replay: GET reply did not hold its key's value");
    }
  }
  const ReplayResult& r = runs[1];
  const LayerTotals& t = r.totals;
  auto per = [](double ns, uint64_t n) {
    return n == 0 ? 0.0 : ns / static_cast<double>(n);
  };
  const uint64_t ops = r.ops;
  Put("trace.overhead_ratio", runs[1].wall_s / runs[0].wall_s, "ratio");
  Put("trace.spans", static_cast<double>(r.spans_recorded), "count");
  Put("trace.span_floor_ns", r.span_floor_ns, "ns");
  Put("net.protocol.parse_ns", per(t.self_ns[kParse], ops), "ns");
  Put("net.protocol.encode_ns", per(t.self_ns[kEncode], ops), "ns");
  Put("net.record_store.escape_ns",
      per(t.self_ns[kEscape], t.spans[kEscape]), "ns");
  Put("net.record_store.read_ns", per(t.self_ns[kStoreRead], ops), "ns");
  const double index_ns = t.self_ns[kUpsert] + t.self_ns[kLookupBatch] +
                            t.self_ns[kLookup] + t.self_ns[kScan];
  Put("ycsb.range_sharded.index_ns_per_op", per(index_ns, ops), "ns");
  if (r.batched_gets > 0) {
    Put("ycsb.range_sharded.lookup_batch_ns_per_key",
        per(t.self_ns[kLookupBatch], r.batched_gets), "ns");
  }
  if (t.spans[kLookup] > 0) {
    Put("ycsb.range_sharded.lookup_ns",
        per(t.self_ns[kLookup], t.spans[kLookup]), "ns");
  }
  if (r.scan_items > 0) {
    Put("ycsb.range_sharded.scan_ns_per_item",
        per(t.self_ns[kScan], r.scan_items), "ns");
  }
  if (r.puts > 0) {
    Put("ycsb.range_sharded.upsert_ns", per(t.self_ns[kUpsert], r.puts), "ns");
    Put("net.record_store.append_ns", per(t.self_ns[kStoreAppend], r.puts),
        "ns");
    Put("persist.wal.append_ns", per(t.self_ns[kWalAppend], r.puts), "ns");
    Put("persist.wal.commit_us", per(t.self_ns[kWalCommit], r.puts) / 1e3,
        "us");
    Put("persist.wal.bytes_per_put",
        per(static_cast<double>(r.wal_append_bytes), r.wal_appends), "B");
  }
  const double layer_us = r.read_layer_ns / 1e3;
  Put("trace.read_layer_sum_us", layer_us, "us");
  Put("net.residual_us", read_p50_us - layer_us, "us");
  if (layer_us > read_p50_us) {
    res_->warnings.push_back(
        "layer self-time sum per read op exceeds the served read p50: the "
        "replay does not match what the server does");
  }
  return true;
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  Run run(config, &result);
  std::error_code ec;
  fs::create_directories(config.workdir + "/results", ec);
  bool ok = run.Execute();
  result.correct = ok && result.failed == 0;
  if (!ok && result.failed == 0) ++result.failed;
  return result;
}

}  // namespace servebench
