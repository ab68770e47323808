// Closed-loop load generator: one thread drives a few client::HttpsClient
// connections over loopback TCP and sleeps in epoll_wait on the fds its
// connect function hands out, so it spends no CPU while it waits.
//
// A generator thread runs three phases against one server:
//   warm-up  throwaway clients until the shared warm-up count is reached,
//            then drained (each finishes the response it is on) and
//            destroyed, so none stays registered in epoll;
//   primed   fresh clients, each until its first response (a TLS 1.2
//            ticket client holds its session from here on);
//   measure  responses that complete inside [window_start, window_end) are
//            counted and timed; on `stop` every client finishes its current
//            response and is destroyed.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/stats.h"
#include "tls/types.h"

namespace perfbench {

struct GenConfig {
  uint16_t port = 0;
  int connections = 4;
  bool keepalive = false;
  bool resume = false;  // offer the last session on every reconnect
  qtls::tls::CipherSuite suite = qtls::tls::CipherSuite::kTls13Aes128Sha256;
  std::string path = "/index.html";
  const qtls::Bytes* expected_body = nullptr;  // every body must equal this
  uint64_t seed = 1;
};

// Fixed-capacity uniform sample of a stream of values (Algorithm R). The
// storage is allocated and written once, up front, so the benchmark's own
// resident memory does not grow with the number of responses it counts.
class Reservoir {
 public:
  static constexpr size_t kCapacity = 1024;

  explicit Reservoir(uint64_t seed = 1) : slots_(kCapacity, 0), rng_(seed | 1) {}

  void add(uint64_t v) {
    ++seen_;
    if (seen_ <= slots_.size()) {
      slots_[seen_ - 1] = v;
      return;
    }
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const uint64_t j = rng_ % seen_;
    if (j < slots_.size()) slots_[j] = v;
  }
  uint64_t seen() const { return seen_; }
  // Appends the kept values to *out.
  void append_to(std::vector<uint64_t>* out) const {
    const size_t n = seen_ < slots_.size() ? seen_ : slots_.size();
    out->insert(out->end(), slots_.begin(), slots_.begin() + n);
  }

 private:
  std::vector<uint64_t> slots_;
  uint64_t rng_;
  uint64_t seen_ = 0;
};

// State shared by every generator thread of one round and the main thread.
struct GenShared {
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  uint64_t warmup_target = 0;
  int slices = 1;  // the window's equal slices, for per-slice samples
  std::atomic<uint64_t> warmup_done{0};
  std::atomic<uint64_t> window_start_ns{kNever};
  std::atomic<uint64_t> window_end_ns{kNever};
  std::atomic<bool> stop{false};

  std::mutex mu;
  std::condition_variable cv;
  int primed = 0;  // generator threads whose clients all have a response
};

// What one generator thread saw; read by the main thread after join().
struct GenResult {
  pid_t tid = 0;
  // Response times of the responses completed in each window slice.
  std::vector<Reservoir> slice_latency_ns;
  Reservoir connect_ns;  // tcp_connect calls in the window
  uint64_t window_connects = 0;
  uint64_t window_handshakes = 0;
  uint64_t window_errors = 0;
  uint64_t errors = 0;           // client errors, every phase
  uint64_t body_mismatches = 0;  // every phase
  uint64_t responses = 0;        // every phase
  uint64_t rescues = 0;     // epoll timeouts after which a client progressed
  uint64_t steps = 0;       // HttpsClient::step() calls
  uint64_t idle_steps = 0;  // steps that made no observable progress
  uint64_t wakeups = 0;     // epoll_wait returns with events
  // Timed clients over their whole life (every connection they opened has
  // finished once drained): sessions offered and resumed, and handshake
  // times as the clients measured them.
  uint64_t offered = 0;
  uint64_t resumed = 0;
  qtls::LatencyHistogram handshake_time;
};

class GeneratorThread {
 public:
  GeneratorThread(GenConfig config, GenShared* shared, int index);
  ~GeneratorThread();

  GeneratorThread(const GeneratorThread&) = delete;
  GeneratorThread& operator=(const GeneratorThread&) = delete;

  // CPU time of the generator thread (CLOCK_THREAD_CPUTIME_ID via
  // pthread_getcpuclockid); callable from any thread while it runs.
  uint64_t cpu_ns() const;
  // Joins the thread; the result is complete afterwards.
  const GenResult& join();

 private:
  void run();

  GenConfig config_;
  GenShared* shared_;
  int index_;
  GenResult result_;
  std::thread thread_;  // last: starts after every member it uses
};

}  // namespace perfbench
