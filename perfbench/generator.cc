#include "generator.h"

#include <pthread.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include "client/https_client.h"
#include "engine/provider.h"
#include "net/socket_transport.h"
#include "procstat.h"
#include "tls/context.h"

namespace perfbench {

namespace {

using qtls::client::HttpsClient;

// With no event for this long every client is stepped once (counted as a
// rescue): a guard against a missed wakeup, never the normal path.
constexpr int kRescueTimeoutMs = 100;
// A drain that has not finished after this long is a hung server.
constexpr uint64_t kDrainLimitNs = 20'000'000'000ULL;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 29);
}

// The observable progress of one client: a step that changes none of these
// did no work, so two such steps in a row mean it waits on its socket.
struct Progress {
  uint64_t connects, requests, handshakes, errors, bytes, body;
  bool operator==(const Progress&) const = default;
};

struct Slot {
  std::unique_ptr<HttpsClient> client;
  uint64_t connects = 0;
  uint64_t completions = 0;
  uint64_t req_start_ns = 0;
  bool parked = false;  // drained: finished its last response, never stepped
};

class ClientLoop {
 public:
  ClientLoop(const GenConfig& config, GenShared* shared, GenResult* result,
         int index)
      : config_(config),
        shared_(shared),
        result_(result),
        index_(index),
        provider_(mix(config.seed, 0x70726f76ULL + static_cast<uint64_t>(index))),
        ctx_(client_config(config, index), &provider_),
        epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    for (int k = 0; k < shared->slices; ++k)
      result->slice_latency_ns.emplace_back(mix(config.seed, 0x736c6963ULL + k));
  }

  ~ClientLoop() {
    slots_.clear();
    if (epfd_ >= 0) ::close(epfd_);
  }

  ClientLoop(const ClientLoop&) = delete;
  ClientLoop& operator=(const ClientLoop&) = delete;

  void run() {
    if (epfd_ < 0) {
      ++result_->errors;
      notify_primed();
      return;
    }
    const auto stopped = [&] {
      return shared_->stop.load(std::memory_order_acquire);
    };
    // Warm-up: throwaway clients, destroyed before the timed clients exist.
    make_clients(/*generation=*/0);
    warming_ = true;
    drive([&] {
      return stopped() || shared_->warmup_done.load(std::memory_order_relaxed) >=
                              shared_->warmup_target;
    });
    drain();
    warming_ = false;
    slots_.clear();

    make_clients(/*generation=*/1);
    drive([&] {
      if (stopped()) return true;
      for (const Slot& s : slots_)
        if (s.completions == 0) return false;
      return true;
    });
    notify_primed();
    drive(stopped);
    drain();
    for (const Slot& s : slots_) {
      const qtls::client::ClientStats& st = s.client->stats();
      result_->offered += st.offered;
      result_->resumed += st.resumed;
      result_->handshake_time.merge(st.handshake_time);
    }
    slots_.clear();
  }

 private:
  static qtls::tls::TlsContextConfig client_config(const GenConfig& config,
                                                   int index) {
    qtls::tls::TlsContextConfig c;
    c.cipher_suites = {config.suite};
    c.drbg_seed = mix(config.seed, 0x63747800ULL + static_cast<uint64_t>(index));
    return c;
  }

  void make_clients(uint64_t generation) {
    qtls::client::ClientOptions opts;
    opts.path = config_.path;
    opts.keepalive = config_.keepalive;
    opts.full_handshake_ratio = config_.resume ? 0.0 : 1.0;
    slots_.clear();
    slots_.resize(static_cast<size_t>(config_.connections));
    for (size_t i = 0; i < slots_.size(); ++i) {
      const uint64_t seed =
          mix(config_.seed, (generation << 32) |
                                (static_cast<uint64_t>(index_) << 16) | i);
      slots_[i].client = std::make_unique<HttpsClient>(
          &ctx_, [this, i] { return connect_slot(i); }, opts, seed);
    }
    draining_ = false;
    // New clients have no socket to wake them: the first step connects.
    for (size_t i = 0; i < slots_.size(); ++i) service(i);
  }

  int connect_slot(size_t i) {
    const uint64_t t0 = now_ns();
    qtls::Result<int> fd = qtls::net::tcp_connect(config_.port);
    const uint64_t t1 = now_ns();
    if (!fd.is_ok()) return -1;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = i;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd.value(), &ev) != 0) {
      ::close(fd.value());
      return -1;
    }
    Slot& s = slots_[i];
    ++s.connects;
    s.req_start_ns = t0;  // a new connection's response time starts here
    if (in_window(t0)) {
      ++result_->window_connects;
      result_->connect_ns.add(t1 - t0);
    }
    return fd.value();
  }

  bool in_window(uint64_t t) const {
    // Acquire pairs with the release store of the start, which follows
    // the store of the end.
    return t >= shared_->window_start_ns.load(std::memory_order_acquire) &&
           t < shared_->window_end_ns.load(std::memory_order_relaxed);
  }

  Progress progress(const Slot& s) const {
    const qtls::client::ClientStats& st = s.client->stats();
    return {s.connects, st.requests,       st.connections,
            st.errors,  st.bytes_received, s.client->last_body().size()};
  }

  // Steps one client until it has gone two steps without progress.
  void service(size_t i) {
    Slot& s = slots_[i];
    if (s.parked) return;
    for (int idle = 0; idle < 2;) {
      const Progress before = progress(s);
      s.client->step();
      ++result_->steps;
      const Progress after = progress(s);
      if (after == before) {
        ++result_->idle_steps;
        ++idle;
        continue;
      }
      idle = 0;
      const uint64_t t = now_ns();
      const bool window = in_window(t);
      const uint64_t errs = after.errors - before.errors;
      result_->errors += errs;
      if (window) {
        result_->window_errors += errs;
        result_->window_handshakes += after.handshakes - before.handshakes;
      }
      if (after.requests != before.requests) {
        on_response(s, t, window);
        if (s.parked) return;
      }
    }
  }

  void on_response(Slot& s, uint64_t t, bool window) {
    ++s.completions;
    ++result_->responses;
    const qtls::Bytes& body = s.client->last_body();
    const qtls::Bytes& want = *config_.expected_body;
    if (body.size() != want.size() ||
        std::memcmp(body.data(), want.data(), want.size()) != 0)
      ++result_->body_mismatches;
    if (window) {
      const uint64_t start =
          shared_->window_start_ns.load(std::memory_order_acquire);
      const uint64_t span =
          shared_->window_end_ns.load(std::memory_order_relaxed) - start;
      const uint64_t k = (t - start) * result_->slice_latency_ns.size() / span;
      result_->slice_latency_ns[k].add(t - s.req_start_ns);
    }
    // Keepalive: the next request starts now, on the same connection.
    s.req_start_ns = t;
    if (warming_) shared_->warmup_done.fetch_add(1, std::memory_order_relaxed);
    if (draining_) s.parked = true;
  }

  template <typename Done>
  void drive(Done done) {
    epoll_event events[64];
    while (!done()) {
      const int n = ::epoll_wait(epfd_, events, 64, kRescueTimeoutMs);
      if (n < 0) {
        if (errno == EINTR) continue;
        ++result_->errors;
        return;
      }
      if (n == 0) {
        const uint64_t before = result_->steps - result_->idle_steps;
        for (size_t i = 0; i < slots_.size(); ++i) service(i);
        if (result_->steps - result_->idle_steps != before) ++result_->rescues;
        continue;
      }
      ++result_->wakeups;
      for (int k = 0; k < n; ++k) service(static_cast<size_t>(events[k].data.u64));
    }
  }

  // Every client finishes the response it is on and is not stepped again.
  void drain() {
    draining_ = true;
    const uint64_t limit = now_ns() + kDrainLimitNs;
    drive([&] {
      if (now_ns() > limit) return true;
      for (const Slot& s : slots_)
        if (!s.parked) return false;
      return true;
    });
    for (const Slot& s : slots_)
      if (!s.parked) ++result_->errors;  // hung: counted, then aborted
  }

  void notify_primed() {
    std::lock_guard<std::mutex> lock(shared_->mu);
    ++shared_->primed;
    shared_->cv.notify_all();
  }

  const GenConfig& config_;
  GenShared* shared_;
  GenResult* result_;
  int index_;
  qtls::engine::SoftwareProvider provider_;
  qtls::tls::TlsContext ctx_;
  int epfd_;
  bool warming_ = false;
  bool draining_ = false;
  std::vector<Slot> slots_;
};

}  // namespace

GeneratorThread::GeneratorThread(GenConfig config, GenShared* shared, int index)
    : config_(std::move(config)),
      shared_(shared),
      index_(index),
      thread_([this] { run(); }) {}

GeneratorThread::~GeneratorThread() {
  if (thread_.joinable()) thread_.join();
}

void GeneratorThread::run() {
  result_.tid = current_tid();
  ClientLoop loop(config_, shared_, &result_, index_);
  loop.run();
}

uint64_t GeneratorThread::cpu_ns() const {
  clockid_t cid;
  // const_cast: native_handle() is non-const but reading the clock id does
  // not modify the thread.
  if (::pthread_getcpuclockid(
          const_cast<std::thread&>(thread_).native_handle(), &cid) != 0)
    return 0;
  timespec ts{};
  ::clock_gettime(cid, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

const GenResult& GeneratorThread::join() {
  if (thread_.joinable()) thread_.join();
  return result_;
}

}  // namespace perfbench
