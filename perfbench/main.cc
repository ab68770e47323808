// qtls_perfbench — end-to-end and per-layer benchmark of the real QTLS
// stack over loopback TCP.
//
// Server under test: one server::WorkerPool worker in the shipped QTLS
// configuration (async offload, heuristic polling, kernel-bypass
// notification) on a qat::QatDevice of 1 endpoint x 2 engines. Load: a
// closed loop of one or two connections from one or two generator threads
// (generator.h).
//
//   qtls_perfbench --workload tls13_full|ticket_resume|tls13_bulk
//                  --seed N --seconds S --trace 0|1 [--smoke]
//                  [--workdir DIR]
//
// Set-up (RSA-2048 key generation, device, pool start, a fixed-count
// warm-up) runs kRounds times, all but the last in forked children, and
// `setup_s` is the median round; the last round's server is then measured
// for S seconds. --trace 1 samples every offload request's stage stamps
// (obs::set_trace_sample_period(1)), reads per-thread /proc statistics and
// times the crypto functions, and prints the per-layer split instead of the
// end-to-end metrics. --smoke is a short run of one round for tests.
//
// Output: human-readable lines on stderr, a `DIAG {...}` line of noise
// diagnostics, then one JSON object as the last stdout line. A failed
// correctness check is named on stderr, reported as "correct": false, and
// makes the exit status 1.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/keystore.h"
#include "generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "procstat.h"
#include "qat/device.h"
#include "server/worker_pool.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace tls = qtls::tls;

constexpr size_t kSmallBody = 1024;
constexpr size_t kBulkBody = 128 * 1024;
// The keystore's RSA-2048 seed, so every round's key equals test_rsa2048().
constexpr uint64_t kRsaKeySeed = 0x52534132303438ULL;
// The window is cut into equal slices of kSliceSeconds. On a virtual
// machine whose CPUs are shared with other guests, the hypervisor steals CPU
// time in bursts (/proc/stat `steal`); a burst slows every thread of the
// stack at once, and a 20% steal was seen to halve a run's rate. The
// end-to-end rate, latency percentiles and CPU per response are therefore
// taken over the calmest eighth of the slices: those with the least stolen
// time. Steal episodes last minutes, so a whole run can sit in one; over ten
// runs in such a period the calmest eighth spread half as wide as the
// calmest third on ticket_resume (p90 0.10 vs 0.30 of the median), and no
// wider on quiet runs. The choice depends only on the host's steal counter,
// never on the program's own figures.
constexpr double kSliceSeconds = 0.25;
constexpr int kCalmShare = 8;  // 1/kCalmShare of the slices is used
// Set-up rounds per run; setup_s is their median.
constexpr int kRounds = 3;

struct Workload {
  const char* name;
  tls::CipherSuite suite;
  bool tickets;     // server issues session tickets, clients offer them
  bool keepalive;   // one connection per client, many requests
  bool bulk;        // the 128 KB seeded file instead of the 1 KB object
  int threads;      // generator threads
  int conns;        // connections per generator thread
  uint64_t warmup;  // responses per set-up round before the window
};

// tls13_full is the asymmetric-offload path (3 asym + 8 AEAD device ops per
// response); ticket_resume bypasses asymmetric crypto and leaves the
// per-connection framework cost (small device round trips, fiber pauses,
// accept/close, ticket unseal); tls13_bulk is the pread -> seal batch ->
// writev data plane with no handshake in the window.
//
// Few connections: with 4 in flight, the stack kept more than 3 of the
// host's 4 vCPUs busy (worker spin, engines, generator), and one competing
// busy thread cut tls13_full's rate by 25%; with 2 it cut it by 5%.
// ticket_resume splits its 2 connections over two generator threads, because
// one thread neared saturation (busy share 0.83) and the rate then measured
// the generator. tls13_bulk keeps a single connection: with two, on one or
// two threads, its rate spread 3x wider from run to run.
//
// ticket_resume is runnable but not listed in BENCHMARK.json: its 1.3 ms
// request chain hands off between threads many times per millisecond, which
// made it the workload most exposed to the host's scheduling noise. Over
// sets of ten 30 s runs its resp_per_s spread reached 0.15-0.19 of the
// median (tls13_full 0.10-0.12, tls13_bulk 0.08-0.12).
constexpr Workload kWorkloads[] = {
    {"tls13_full", tls::CipherSuite::kTls13Aes128Sha256, false, false, false,
     1, 2, 150},
    {"ticket_resume", tls::CipherSuite::kEcdheRsaWithAes128CbcSha, true, false,
     false, 2, 1, 600},
    {"tls13_bulk", tls::CipherSuite::kTls13Aes128Sha256, false, true, true, 1,
     1, 60},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 45;
  bool trace = false;
  bool smoke = false;
  int rounds = kRounds;
  int slices = 4;  // of the timed window, from --seconds
  std::string workdir = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: qtls_perfbench --workload "
               "tls13_full|ticket_resume|tls13_bulk --seed N --seconds S "
               "--trace 0|1 [--smoke] [--workdir DIR]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads)
        if (v == w.name) a.workload = &w;
      if (a.workload == nullptr) usage(("unknown workload " + v).c_str());
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (a.smoke) {
    a.seconds = std::min(a.seconds, 1.0);
    a.rounds = 1;
  }
  if (a.seconds <= 0) usage("bad --seconds");
  a.slices = std::max(4, static_cast<int>(std::lround(a.seconds / kSliceSeconds)));
  return a;
}

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of raw samples.
double percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

uint64_t sum(const std::vector<uint64_t>& v) {
  uint64_t t = 0;
  for (uint64_t x : v) t += x;
  return t;
}

// Correctness gate: every failed check is named on stderr.
struct Gate {
  int failed = 0;
  void check(bool ok, const char* name, const std::string& detail) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s: %s\n", name, detail.c_str());
  }
};

std::string fmt(const char* f, double a, double b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

// The seeded object the bulk workload serves.
qtls::Bytes seeded_file(uint64_t seed) {
  qtls::HmacDrbg rng = qtls::make_test_drbg(seed ^ 0x62756c6bULL);
  return rng.generate(kBulkBody);
}

// The worker's synthetic response object.
qtls::Bytes pattern_body() {
  qtls::Bytes b(kSmallBody);
  for (size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<uint8_t>('a' + i % 26);
  return b;
}

// Removes the served-files directory on every exit path.
struct TempDir {
  std::filesystem::path path;
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

// Worker-thread observations for the traced run, written from the
// WorkerConfig::loop_hook (the worker's own thread) and read through
// atomics.
struct HookProbe {
  std::atomic<pid_t> tid{0};
  std::atomic<bool> sampling{false};
  std::atomic<uint64_t> passes{0};
  std::atomic<uint64_t> conn_bytes_sum{0};
  std::atomic<uint64_t> conn_samples{0};
};

// One set-up round's server: key, device and pool, in destruction order.
struct Server {
  std::unique_ptr<qtls::RsaPrivateKey> key;
  std::unique_ptr<qtls::qat::QatDevice> device;
  std::unique_ptr<qtls::server::WorkerPool> pool;
  pid_t worker_tid = 0;
};

struct RoundTimes {
  double keys_s = 0, pool_start_s = 0, warmup_s = 0, total_s = 0;
};

struct Round {
  Server server;
  std::unique_ptr<GenShared> shared;
  std::vector<std::unique_ptr<GeneratorThread>> gens;
  RoundTimes times;
};

// Snapshot of the atomics and /proc views taken at a window edge.
struct Edge {
  Clock::time_point wall;
  uint64_t process_cpu = 0;
  std::vector<uint64_t> gen_cpu;
  ThreadSample worker;
  std::map<pid_t, uint64_t> thread_cpu;  // every thread (traced run)
  qtls::qat::FwCounters fw;
  uint64_t iterations = 0, progress = 0;
  HostCpu host;
};

// What the timed window saw, before any result is derived from it.
struct Window {
  Edge e0, e1;
  // slices + 1 slice edges.
  std::vector<Clock::time_point> wall;
  std::vector<uint64_t> server_cpu;  // process CPU minus generator CPU
  std::vector<HostCpu> host;
  qtls::obs::MetricsSnapshot snap;  // traced run only
};

double window_ops(const Window& w, qtls::qat::OpClass c) {
  const int i = static_cast<int>(c);
  return static_cast<double>(w.e1.fw.requests[i] - w.e0.fw.requests[i]);
}

// The generator threads' results, summed.
struct Load {
  std::vector<uint64_t> slice_n;                 // responses per slice
  std::vector<std::vector<uint64_t>> slice_lat;  // sampled response times
  std::vector<uint64_t> connect_ns;
  std::vector<double> busy;  // CPU share of each generator thread
  uint64_t cpu_ns = 0;       // generator CPU in the window
  double responses = 0;      // in the window
  uint64_t window_handshakes = 0, window_connects = 0, window_errors = 0,
           offered = 0, resumed = 0, errors = 0,
           body_mismatches = 0, rescues = 0;
  qtls::LatencyHistogram handshake_time;
};

struct EndToEnd {
  double resp_per_s = 0, p50_ms = 0, p90_ms = 0, server_cpu_us = 0;
  double calm_steal = 0;  // host steal share over the slices used
};

// One JSON object body of {"name": {"value": v, "unit": u}, ...} entries.
class JsonMetrics {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  out_.empty() ? "" : ", ", name, value, unit);
    out_ += buf;
  }
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args), w_(*args.workload) {}

  int run();

 private:
  bool prepare_body();
  bool setup_round(Round* r);
  bool child_round(RoundTimes* out);
  void teardown(Round* r);
  Edge edge(Round& r) const;
  Window measure(Round& r);
  void check(const Round& r, const Window& w, const Load& l);
  void per_layer(const Round& r, const Window& w, const Load& l,
                 const EndToEnd& e, const CryptoProbes& probes,
                 const std::vector<RoundTimes>& times, JsonMetrics* m);

  const Args& args_;
  const Workload& w_;
  Gate gate_;
  qtls::Bytes body_;
  TempDir www_;
  HookProbe hook_;
};

bool Bench::setup_round(Round* r) {
  const Clock::time_point t0 = Clock::now();
  {
    qtls::HmacDrbg rng = qtls::make_test_drbg(kRsaKeySeed);
    r->server.key =
        std::make_unique<qtls::RsaPrivateKey>(qtls::rsa_generate(2048, rng));
  }
  const Clock::time_point t1 = Clock::now();

  qtls::qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 2;
  r->server.device = std::make_unique<qtls::qat::QatDevice>(dcfg);
  // The worker is the one thread WorkerPool::start adds.
  const std::vector<pid_t> before_pool = list_tids();

  qtls::server::WorkerPoolOptions opts;
  opts.workers = 1;
  opts.instances_per_worker = 1;
  opts.response_body_size = kSmallBody;
  opts.tls_config.async_mode = true;
  opts.tls_config.cipher_suites = {w_.suite};
  opts.tls_config.use_session_tickets = w_.tickets;
  if (w_.bulk) opts.worker_config.file_root = www_.path.string();
  if (args_.trace) {
    HookProbe* hook = &hook_;
    opts.worker_config.loop_hook = [hook](qtls::server::Worker& worker) {
      if (hook->tid.load(std::memory_order_relaxed) != current_tid())
        hook->tid.store(current_tid(), std::memory_order_relaxed);
      if (!hook->sampling.load(std::memory_order_relaxed)) return;
      // Every 1024th pass: mean bytes held per live connection.
      if ((hook->passes.fetch_add(1, std::memory_order_relaxed) & 1023) != 0)
        return;
      if (worker.alive_connections() == 0) return;
      hook->conn_bytes_sum.fetch_add(worker.bytes_per_conn(),
                                     std::memory_order_relaxed);
      hook->conn_samples.fetch_add(1, std::memory_order_relaxed);
    };
  }
  r->server.pool = std::make_unique<qtls::server::WorkerPool>(
      r->server.device.get(), r->server.key.get(), opts);
  const qtls::Status st = r->server.pool->start(0);
  const Clock::time_point t2 = Clock::now();
  if (!st.is_ok()) {
    gate_.check(false, "pool_start", st.message());
    return false;
  }
  const std::vector<pid_t> pool_tids = new_tids(before_pool, list_tids());
  gate_.check(pool_tids.size() == 1, "one_worker_thread",
              fmt("%.0f new threads at pool start", pool_tids.size()));
  if (!pool_tids.empty()) r->server.worker_tid = pool_tids.front();

  r->shared = std::make_unique<GenShared>();
  r->shared->warmup_target = args_.smoke ? 8 : w_.warmup;
  r->shared->slices = args_.slices;
  for (int i = 0; i < w_.threads; ++i) {
    GenConfig gc;
    gc.port = r->server.pool->port();
    gc.connections = w_.conns;
    gc.keepalive = w_.keepalive;
    gc.resume = w_.tickets;
    gc.suite = w_.suite;
    gc.path = w_.bulk ? "/bulk.bin" : "/index.html";
    gc.expected_body = &body_;
    gc.seed = args_.seed;
    r->gens.push_back(std::make_unique<GeneratorThread>(gc, r->shared.get(), i));
  }
  bool primed = false;
  {
    std::unique_lock<std::mutex> lock(r->shared->mu);
    primed = r->shared->cv.wait_for(lock, std::chrono::seconds(120), [&] {
      return r->shared->primed == w_.threads;
    });
  }
  const Clock::time_point t3 = Clock::now();
  gate_.check(primed, "warmup_completes", "generators not primed in 120 s");
  r->times.keys_s = secs(t1 - t0);
  r->times.pool_start_s = secs(t2 - t1);
  r->times.warmup_s = secs(t3 - t2);
  r->times.total_s = secs(t3 - t0);
  return primed;
}

// One set-up round in a forked child, which reports its timings through a
// pipe. Called while this process is still single-threaded.
bool Bench::child_round(RoundTimes* out) {
  int fds[2];
  if (::pipe(fds) != 0) {
    gate_.check(false, "setup_round_child", "pipe failed");
    return false;
  }
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Never outlive the parent, even when it is killed mid-round.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    Round r;
    const bool ok = setup_round(&r);
    teardown(&r);
    const bool clean = ok && gate_.failed == 0;
    if (clean && ::write(fds[1], &r.times, sizeof(r.times)) !=
                     static_cast<ssize_t>(sizeof(r.times)))
      ::_exit(1);
    std::fflush(nullptr);
    ::_exit(clean ? 0 : 1);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    gate_.check(false, "setup_round_child", "fork failed");
    return false;
  }
  const ssize_t n = ::read(fds[0], out, sizeof(*out));
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const bool ok = n == static_cast<ssize_t>(sizeof(*out)) &&
                  WIFEXITED(status) && WEXITSTATUS(status) == 0;
  gate_.check(ok, "setup_round_child", "a set-up round failed in its child");
  return ok;
}

// Stops the generators (each drains its in-flight response), waits until
// the device has answered every request, then stops the pool. Plain stats
// structs are read only after this.
void Bench::teardown(Round* r) {
  r->shared->stop.store(true, std::memory_order_release);
  for (auto& g : r->gens) g->join();
  if (r->server.device) {
    const Clock::time_point limit = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      const qtls::qat::FwCounters fw = r->server.device->fw_counters();
      if (fw.total_requests() == fw.total_responses()) break;
      if (Clock::now() > limit) {
        gate_.check(false, "device_drains", fw.to_string());
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (r->server.pool) r->server.pool->stop();
}

Edge Bench::edge(Round& r) const {
  Edge e;
  e.host = host_cpu();
  e.process_cpu = process_cpu_ns();
  for (const auto& g : r.gens) e.gen_cpu.push_back(g->cpu_ns());
  e.worker = sample_thread(r.server.worker_tid);
  if (args_.trace)
    for (pid_t tid : list_tids()) {
      const ThreadSample s = sample_thread(tid);
      if (s.ok) e.thread_cpu[tid] = s.cpu_ns;
    }
  e.fw = r.server.device->fw_counters();
  const auto hb = r.server.pool->heartbeats();
  if (!hb.empty()) {
    e.iterations = hb[0].iterations;
    e.progress = hb[0].progress;
  }
  e.wall = Clock::now();
  return e;
}

// Writes the served object (bulk: the seeded file under the work dir) and
// keeps the bytes every response body must equal.
bool Bench::prepare_body() {
  if (!w_.bulk) {
    body_ = pattern_body();
    return true;
  }
  body_ = seeded_file(args_.seed);
  www_.path = std::filesystem::absolute(args_.workdir) /
              ("perfbench-www-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(www_.path, ec);
  std::ofstream f(www_.path / "bulk.bin", std::ios::binary);
  f.write(reinterpret_cast<const char*>(body_.data()),
          static_cast<std::streamsize>(body_.size()));
  f.close();
  gate_.check(!ec && f.good(), "write_bulk_file", www_.path.string());
  return !ec && f.good();
}

// Runs the timed window over the measured round's running server.
Window Bench::measure(Round& r) {
  Window w;
  if (args_.trace) {
    qtls::obs::MetricsRegistry::global().reset();
    hook_.sampling.store(true, std::memory_order_relaxed);
  }
  w.e0 = edge(r);
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args_.seconds));
  const uint64_t start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          w.e0.wall.time_since_epoch())
          .count());
  const uint64_t span_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(length).count());
  r.shared->window_end_ns.store(start_ns + span_ns,
                                std::memory_order_relaxed);
  r.shared->window_start_ns.store(start_ns, std::memory_order_release);

  w.wall.push_back(w.e0.wall);
  w.server_cpu.push_back(w.e0.process_cpu - sum(w.e0.gen_cpu));
  w.host.push_back(w.e0.host);
  const int slices = args_.slices;
  for (int k = 1; k < slices; ++k) {
    std::this_thread::sleep_until(w.e0.wall + length * k / slices);
    std::vector<uint64_t> gen;
    for (const auto& g : r.gens) gen.push_back(g->cpu_ns());
    w.host.push_back(host_cpu());
    w.wall.push_back(Clock::now());
    w.server_cpu.push_back(process_cpu_ns() - sum(gen));
  }
  std::this_thread::sleep_until(w.e0.wall + length);
  w.e1 = edge(r);
  w.wall.push_back(w.e1.wall);
  w.server_cpu.push_back(w.e1.process_cpu - sum(w.e1.gen_cpu));
  w.host.push_back(w.e1.host);
  hook_.sampling.store(false, std::memory_order_relaxed);
  if (args_.trace) w.snap = qtls::obs::MetricsRegistry::global().snapshot();
  return w;
}

// Sums what the (joined) generator threads saw.
Load collect(Round& r, const Window& w) {
  Load l;
  const int slices = static_cast<int>(w.wall.size()) - 1;
  l.slice_n.assign(slices, 0);
  l.slice_lat.resize(slices);
  const double wall_s = secs(w.e1.wall - w.e0.wall);
  for (size_t i = 0; i < r.gens.size(); ++i) {
    const GenResult& g = r.gens[i]->join();
    for (int k = 0; k < slices; ++k) {
      g.slice_latency_ns[k].append_to(&l.slice_lat[k]);
      l.slice_n[k] += g.slice_latency_ns[k].seen();
    }
    g.connect_ns.append_to(&l.connect_ns);
    l.window_handshakes += g.window_handshakes;
    l.window_connects += g.window_connects;
    l.offered += g.offered;
    l.resumed += g.resumed;
    l.window_errors += g.window_errors;
    l.errors += g.errors;
    l.body_mismatches += g.body_mismatches;
    l.rescues += g.rescues;
    l.handshake_time.merge(g.handshake_time);
    const uint64_t cpu = w.e1.gen_cpu[i] - w.e0.gen_cpu[i];
    l.cpu_ns += cpu;
    l.busy.push_back(ratio(static_cast<double>(cpu) / 1e9, wall_s));
    std::fprintf(stderr,
                 "generator %zu: tid=%d busy_share=%.3f responses=%llu "
                 "wakeups=%llu steps=%llu idle_steps=%llu rescues=%llu\n",
                 i, g.tid, l.busy.back(),
                 static_cast<unsigned long long>(g.responses),
                 static_cast<unsigned long long>(g.wakeups),
                 static_cast<unsigned long long>(g.steps),
                 static_cast<unsigned long long>(g.idle_steps),
                 static_cast<unsigned long long>(g.rescues));
  }
  l.responses = static_cast<double>(sum(l.slice_n));
  return l;
}

// The end-to-end figures over the calmest slices of the window.
EndToEnd end_to_end(const Window& w, const Load& l) {
  const int slices = static_cast<int>(l.slice_n.size());
  std::vector<double> steal(slices);
  std::vector<int> calm(slices);
  for (int k = 0; k < slices; ++k) {
    steal[k] = ratio(static_cast<double>(w.host[k + 1].steal - w.host[k].steal),
                     static_cast<double>(w.host[k + 1].total - w.host[k].total));
    calm[k] = k;
  }
  // /proc/stat counts in clock ticks, so many slices tie (often at 0); a
  // fixed stride permutation breaks ties across the whole window instead
  // of favouring its start.
  const auto spread = [&](int k) { return (k * 37) % slices; };
  std::sort(calm.begin(), calm.end(), [&](int a, int b) {
    return steal[a] != steal[b] ? steal[a] < steal[b] : spread(a) < spread(b);
  });
  calm.resize(std::max(1, slices / kCalmShare));

  std::vector<bool> chosen(slices, false);
  std::vector<uint64_t> lat;
  double n = 0, seconds = 0, cpu_ns = 0, stolen = 0, total = 0;
  for (int k : calm) {
    chosen[k] = true;
    n += static_cast<double>(l.slice_n[k]);
    lat.insert(lat.end(), l.slice_lat[k].begin(), l.slice_lat[k].end());
    seconds += secs(w.wall[k + 1] - w.wall[k]);
    cpu_ns += static_cast<double>(w.server_cpu[k + 1] - w.server_cpu[k]);
    stolen += static_cast<double>(w.host[k + 1].steal - w.host[k].steal);
    total += static_cast<double>(w.host[k + 1].total - w.host[k].total);
  }
  for (int k = 0; k < slices; ++k) {
    const double nk = static_cast<double>(l.slice_n[k]);
    std::fprintf(
        stderr,
        "slice %2d%s %5.0f responses %8.2f resp/s p50=%.3fms p90=%.3fms "
        "server_cpu=%.1fus/resp steal=%.3f\n",
        k, chosen[k] ? "*" : ":", nk, nk / secs(w.wall[k + 1] - w.wall[k]),
        percentile(l.slice_lat[k], 50) / 1e6,
        percentile(l.slice_lat[k], 90) / 1e6,
        ratio(static_cast<double>(w.server_cpu[k + 1] - w.server_cpu[k]) / 1e3,
              nk),
        steal[k]);
  }
  EndToEnd e;
  e.resp_per_s = ratio(n, seconds);
  e.p50_ms = percentile(lat, 50) / 1e6;
  e.p90_ms = percentile(lat, 90) / 1e6;
  e.server_cpu_us = ratio(cpu_ns / 1e3, n);
  e.calm_steal = ratio(stolen, total);
  return e;
}

// The correctness gate over everything a run saw.
void Bench::check(const Round& r, const Window& w, const Load& l) {
  qtls::server::WorkerPool& pool = *r.server.pool;
  const qtls::server::WorkerStats& ws = pool.worker(0)->stats();
  const qtls::engine::QatEngineStats& es = pool.engine(0)->stats();
  const qtls::qat::FwCounters fw = r.server.device->fw_counters();
  const double asym = window_ops(w, qtls::qat::OpClass::kAsym);
  const double asym_per_resp = ratio(asym, l.responses);
  const std::string name = w_.name;
  Gate& g = gate_;
  g.check(l.responses >= 1, "responses_in_window", "no response completed");
  g.check(l.errors == 0 && l.window_errors == 0, "client_errors",
          fmt("%.0f client errors", static_cast<double>(l.errors)));
  g.check(l.body_mismatches == 0, "response_bodies",
          fmt("%.0f bodies differ from the expected object",
              static_cast<double>(l.body_mismatches)));
  g.check(ws.errors == 0 && ws.async_failures == 0, "server_errors",
          fmt("errors=%.0f async_failures=%.0f", static_cast<double>(ws.errors),
              static_cast<double>(ws.async_failures)));
  if (name == "tls13_full") {
    // A connection in flight at either window edge has only some of its 3
    // ops inside the window, so the window count may differ from 3 per
    // response by at most 3 per connection.
    const double conns = static_cast<double>(w_.threads * w_.conns);
    g.check(std::fabs(asym - 3.0 * l.responses) <= 3.0 * conns,
            "tls13_full_asym_per_resp",
            fmt("%.4f asym ops per response (want 3)", asym_per_resp));
    // Every connection finished (the generators drained), so the device's
    // lifetime count is exact: 3 asym ops per full handshake.
    const uint64_t asym_total =
        fw.requests[static_cast<int>(qtls::qat::OpClass::kAsym)];
    g.check(asym_total == 3 * ws.handshakes_completed,
            "tls13_full_asym_per_handshake",
            fmt("%.0f asym ops for %.0f handshakes",
                static_cast<double>(asym_total),
                static_cast<double>(ws.handshakes_completed)));
    g.check(l.resumed == 0 && ws.resumed_handshakes == 0,
            "tls13_full_no_resumption", "a connection resumed");
  } else if (name == "ticket_resume") {
    const double share = ratio(static_cast<double>(l.resumed),
                               static_cast<double>(l.offered));
    g.check(share >= 0.99, "ticket_resume_resumed_share",
            fmt("resumed/offered = %.4f (want >= 0.99)", share));
    g.check(asym_per_resp < 0.01, "ticket_resume_asym_per_resp",
            fmt("%.4f asym ops per response (want < 0.01)", asym_per_resp));
  } else {
    g.check(l.window_handshakes == 0 && l.window_connects == 0 && asym == 0,
            "tls13_bulk_no_handshakes",
            fmt("%.0f handshakes, %.0f asym ops in the window",
                static_cast<double>(l.window_handshakes), asym));
  }
  g.check(fw.total_requests() == fw.total_responses(), "fw_counters_balance",
          fw.to_string());
  g.check(es.submitted == es.completed, "engine_submitted_eq_completed",
          fmt("submitted=%.0f completed=%.0f", static_cast<double>(es.submitted),
              static_cast<double>(es.completed)));
  g.check(es.sw_fallbacks == 0, "no_sw_fallbacks",
          fmt("%.0f ops served by the software fallback",
              static_cast<double>(es.sw_fallbacks)));
}

// The per-layer split (traced run). Plain stats structs are read here, after
// WorkerPool::stop(); window deltas come from the atomics and /proc.
void Bench::per_layer(const Round& r, const Window& w, const Load& l,
                      const EndToEnd& e, const CryptoProbes& probes,
                      const std::vector<RoundTimes>& times, JsonMetrics* m) {
  qtls::server::WorkerPool& pool = *r.server.pool;
  const qtls::server::WorkerStats& ws = pool.worker(0)->stats();
  const qtls::engine::QatEngineStats& es = pool.engine(0)->stats();
  const qtls::server::HeuristicPollerStats* hp = pool.worker(0)->poller_stats();
  const double resp = l.responses;
  // Pool-lifetime counters (warm-up + window) go per response served.
  const double served = static_cast<double>(ws.requests_served);
  const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  const double process_cpu = d(w.e0.process_cpu, w.e1.process_cpu);
  const double worker_cpu = d(w.e0.worker.cpu_ns, w.e1.worker.cpu_ns);
  const double engine_cpu =
      process_cpu - worker_cpu - static_cast<double>(l.cpu_ns);

  // Per-thread accounting: every thread's CPU must close to the process's.
  double threads_cpu = 0;
  for (const auto& [tid, cpu1] : w.e1.thread_cpu) {
    const auto it = w.e0.thread_cpu.find(tid);
    threads_cpu += d(it == w.e0.thread_cpu.end() ? 0 : it->second, cpu1);
  }
  const double closure = ratio(threads_cpu, process_cpu);
  gate_.check(std::fabs(closure - 1.0) <= 0.05, "thread_cpu_closure",
              fmt("per-thread CPU / process CPU = %.4f", closure));
  gate_.check(hook_.tid.load() == r.server.worker_tid, "worker_tid",
              fmt("loop_hook tid %.0f, enumerated tid %.0f",
                  static_cast<double>(hook_.tid.load()),
                  static_cast<double>(r.server.worker_tid)));
  std::fprintf(stderr,
               "cpu per response: worker=%.1fus engines+other=%.1fus "
               "generator=%.1fus process=%.1fus closure=%.4f\n",
               ratio(worker_cpu / 1e3, resp), ratio(engine_cpu / 1e3, resp),
               ratio(static_cast<double>(l.cpu_ns) / 1e3, resp),
               ratio(process_cpu / 1e3, resp), closure);

  const auto stage_p50_us = [&](const char* name) {
    const qtls::LatencyHistogram* h = w.snap.histogram(name);
    return h != nullptr && h->count() > 0 ? h->percentile_nanos(50) / 1e3 : 0.0;
  };
  const auto med = [&](double RoundTimes::*field) {
    std::vector<double> v;
    for (const RoundTimes& t : times) v.push_back(t.*field);
    return median(v);
  };
  std::vector<uint64_t> lat;
  for (const auto& s : l.slice_lat) lat.insert(lat.end(), s.begin(), s.end());
  using qtls::qat::OpClass;

  m->add("crypto.rsa2048_sign_us", probes.rsa2048_sign_us, "us");
  m->add("crypto.p256_ecdh_us", probes.p256_ecdh_us, "us");
  m->add("crypto.gcm_seal_16k_us", probes.gcm_seal_16k_us, "us");
  m->add("crypto.cbc_hmac_seal_16k_us", probes.cbc_hmac_seal_16k_us, "us");
  m->add("crypto.prf_tls12_us", probes.prf_tls12_us, "us");
  m->add("qat.ops_per_resp.asym", ratio(window_ops(w, OpClass::kAsym), resp),
         "count");
  m->add("qat.ops_per_resp.cipher",
         ratio(window_ops(w, OpClass::kCipher), resp), "count");
  m->add("qat.ops_per_resp.prf", ratio(window_ops(w, OpClass::kPrf), resp),
         "count");
  m->add("qat.engine_cpu_us_per_resp", ratio(engine_cpu / 1e3, resp), "us");
  m->add("qat.queue_us_p50", stage_p50_us("qat.stage.queue"), "us");
  m->add("qat.service_us_p50", stage_p50_us("qat.stage.service"), "us");
  m->add("engine.drain_us_p50", stage_p50_us("qat.stage.drain"), "us");
  m->add("engine.poll_yield", ratio(es.polled_responses, es.polls), "share");
  m->add("engine.seal_batch_mean", ratio(es.seal_batch_ops, es.seal_batches),
         "count");
  m->add("engine.retry_fallback_per_op",
         ratio(es.submit_retries + es.op_retries + es.sw_fallbacks,
               es.submitted),
         "count");
  m->add("asyncx.pauses_per_resp", ratio(ws.async_parks, served), "count");
  m->add("asyncx.resume_us_p50", stage_p50_us("qat.stage.resume"), "us");
  m->add("server.worker_cpu_us_per_resp", ratio(worker_cpu / 1e3, resp), "us");
  m->add("server.useful_pass_share",
         ratio(d(w.e0.progress, w.e1.progress),
               d(w.e0.iterations, w.e1.iterations)),
         "share");
  m->add("server.passes_per_resp",
         ratio(d(w.e0.iterations, w.e1.iterations), resp), "count");
  m->add("server.worker_runq_wait_us_per_resp",
         ratio(d(w.e0.worker.runq_wait_ns, w.e1.worker.runq_wait_ns) / 1e3,
               resp),
         "us");
  m->add("server.worker_vcsw_per_resp",
         ratio(d(w.e0.worker.vcsw, w.e1.worker.vcsw), resp), "count");
  m->add("server.poll_triggers_per_resp.efficiency",
         ratio(hp ? hp->efficiency_triggers : 0, served), "count");
  m->add("server.poll_triggers_per_resp.timeliness",
         ratio(hp ? hp->timeliness_triggers : 0, served), "count");
  m->add("server.poll_triggers_per_resp.failover",
         ratio(hp ? hp->failover_triggers : 0, served), "count");
  m->add("server.bytes_per_conn",
         ratio(hook_.conn_bytes_sum.load(), hook_.conn_samples.load()),
         "bytes");
  m->add("tls.handshake_p50_ms",
         l.handshake_time.count() ? l.handshake_time.percentile_nanos(50) / 1e6
                                  : 0.0,
         "ms");
  m->add("tls.resumed_share", ratio(l.resumed, l.offered),
         "share");
  m->add("tls.copies_per_byte",
         ratio(w.snap.counter_value("record.bytes_copied"),
               w.snap.counter_value("record.bytes_sent")),
         "count");
  m->add("net.connect_us_p50", percentile(l.connect_ns, 50) / 1e3, "us");
  m->add("client.busy_share", max_of(l.busy), "share");
  m->add("client.cpu_us_per_resp",
         ratio(static_cast<double>(l.cpu_ns) / 1e3, resp), "us");
  m->add("client.response_p99_ms", percentile(lat, 99) / 1e6, "ms");
  m->add("setup.keys_s", med(&RoundTimes::keys_s), "s");
  m->add("setup.pool_start_s", med(&RoundTimes::pool_start_s), "s");
  m->add("setup.warmup_s", med(&RoundTimes::warmup_s), "s");
  m->add("acct.thread_cpu_closure", closure, "share");
  // The traced run's own end-to-end figures; run.py sets them against an
  // untraced run of the same seed to report the tracing overhead.
  m->add("traced.resp_per_s", e.resp_per_s, "1/s");
  m->add("traced.response_p50_ms", e.p50_ms, "ms");
  m->add("traced.server_cpu_us_per_resp", e.server_cpu_us, "us");
}

int Bench::run() {
  std::fprintf(stderr,
               "qtls_perfbench: workload=%s seed=%llu seconds=%.1f trace=%d "
               "rounds=%d server=1 worker, device 1 endpoint x 2 engines, "
               "generator %d thread(s) x %d conns\n",
               w_.name, static_cast<unsigned long long>(args_.seed),
               args_.seconds, args_.trace ? 1 : 0, args_.rounds, w_.threads,
               w_.conns);
  if (args_.trace) qtls::obs::set_trace_sample_period(1);
  if (!prepare_body()) return 1;

  // Host-speed reference (every run) and the crypto layer (traced run),
  // single-threaded before any server thread exists.
  const CryptoProbes probes = run_crypto_probes(
      qtls::test_rsa2048(), args_.trace, args_.smoke ? 3 : 15, args_.seed);

  // Set-up rounds: all but the last in child processes, so the threads and
  // memory of earlier rounds never reach this process's peak RSS; the last
  // round's server is measured here.
  std::vector<RoundTimes> times;
  bool ok = true;
  for (int k = 0; ok && k + 1 < args_.rounds; ++k) {
    RoundTimes t;
    ok = child_round(&t);
    times.push_back(t);
  }
  auto round = std::make_unique<Round>();
  if (ok) {
    ok = setup_round(round.get());
    times.push_back(round->times);
  }
  if (!ok) {
    teardown(round.get());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    return 1;
  }
  Round& r = *round;

  const Window w = measure(r);
  teardown(&r);
  const Load l = collect(r, w);
  check(r, w, l);
  const EndToEnd e = end_to_end(w, l);
  std::vector<double> totals;
  for (const RoundTimes& t : times) totals.push_back(t.total_s);
  const double setup_s = median(totals);
  const double rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);

  std::fprintf(stderr,
               "end-to-end: resp_per_s=%.2f p50=%.3fms p90=%.3fms "
               "server_cpu=%.1fus/resp rss_peak=%.2fMB setup=%.3fs "
               "(%.0f responses in %.3fs)\n",
               e.resp_per_s, e.p50_ms, e.p90_ms, e.server_cpu_us, rss_mb,
               setup_s, l.responses, secs(w.e1.wall - w.e0.wall));
  for (size_t k = 0; k < times.size(); ++k)
    std::fprintf(stderr,
                 "setup round %zu: keys=%.3fs pool_start=%.3fs warmup=%.3fs "
                 "total=%.3fs\n",
                 k, times[k].keys_s, times[k].pool_start_s, times[k].warmup_s,
                 times[k].total_s);

  // Noise diagnostics, every run: host speed, generator headroom, worker
  // run-queue wait and hypervisor steal. Reported, never acted on.
  JsonMetrics diag;
  diag.add("crypto.rsa2048_sign_us", probes.rsa2048_sign_us, "us");
  diag.add("client.busy_share", max_of(l.busy), "share");
  diag.add("server.worker_runq_wait_us_per_resp",
           ratio(static_cast<double>(w.e1.worker.runq_wait_ns -
                                     w.e0.worker.runq_wait_ns) / 1e3,
                 l.responses),
           "us");
  diag.add("host.steal_share",
           ratio(static_cast<double>(w.e1.host.steal - w.e0.host.steal),
                 static_cast<double>(w.e1.host.total - w.e0.host.total)),
           "share");
  diag.add("host.calm_steal_share", e.calm_steal, "share");
  diag.add("client.rescues", static_cast<double>(l.rescues), "count");
  std::printf("DIAG {%s}\n", diag.str().c_str());

  JsonMetrics metrics;
  if (args_.trace) {
    per_layer(r, w, l, e, probes, times, &metrics);
  } else {
    metrics.add("resp_per_s", e.resp_per_s, "1/s");
    metrics.add("response_p50_ms", e.p50_ms, "ms");
    metrics.add("response_p90_ms", e.p90_ms, "ms");
    metrics.add("server_cpu_us_per_resp", e.server_cpu_us, "us");
    metrics.add("rss_peak_MB", rss_mb, "MB");
    metrics.add("setup_s", setup_s, "s");
  }

  const qtls::server::WorkerStats& ws = r.server.pool->worker(0)->stats();
  const uint64_t failed =
      l.errors + l.body_mismatches + ws.errors + ws.async_failures;
  const uint64_t attempted = sum(l.slice_n) + failed;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              gate_.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  return gate_.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::Bench bench(args);
  return bench.run();
}
