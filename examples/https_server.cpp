// HTTPS web server example — the paper's evaluation setup in one process:
// a WorkerPool of event-driven workers with the full QTLS pipeline (async
// offload + heuristic polling + kernel-bypass notification), configured
// through the Appendix A.7 ssl_engine framework, plus an in-process client
// fleet.
//
// Default ("self test"): start the pool on an ephemeral loopback port,
// drive N clients against it for a few seconds and print throughput/latency
// stats. With --listen <port> the same pool instead serves HTTPS on
// 127.0.0.1:<port> until SIGTERM/SIGINT, then drains gracefully: accepts
// stop, in-flight requests finish, and stragglers are force-closed at the
// drain deadline (connect with the tls_terminator example or this binary's
// own client mode is left as an exercise — the wire format is this
// library's own; see DESIGN.md §5).
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "client/https_client.h"
#include "crypto/keystore.h"
#include "net/socket_transport.h"
#include "server/control.h"
#include "server/worker_pool.h"

using namespace qtls;

namespace {

const char* kConf = R"(
worker_processes 2;
ssl_engine {
    use qat_engine;
    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
    qat_topology {
        devices 2;                     # logical QAT cards (DESIGN.md 12)
        numa_nodes 1;
        spill_threshold 32;            # queue-depth gap before spillover
    }
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;          # kernel-bypass async queue
        qat_poll_mode heuristic;
        qat_heuristic_poll_asym_threshold 48;
        qat_heuristic_poll_sym_threshold 24;
    }
}
overload {
    handshake_timeout_ms 5000;         # accept -> handshake complete
    idle_timeout_ms 30000;             # keepalive wait / request trickle
    write_stall_timeout_ms 10000;      # peers that stop reading responses
    max_handshaking 256;               # admission cap per worker
    past_cap shed;                     # excess accepts get a clean close
    max_header_bytes 8192;             # HTTP parser bounds (431 past them)
    max_header_count 100;
}
control {                              # self-healing plane (DESIGN.md 15)
    heartbeat_interval_ms 100;         # supervision window
    missed_windows 5;                  # frozen windows before "wedged"
    eject_grace_ms 500;                # wait for an ejected worker thread
    supervise on;
}
credentials {
    rsa 2048;                          # SIGHUP/POST /reload re-resolves this
}
)";

// SIGTERM/SIGINT set the flag; the main thread notices and drains the pool.
volatile std::sig_atomic_t g_shutdown = 0;
void on_signal(int) { g_shutdown = 1; }

constexpr uint64_t kDrainDeadlineMs = 5000;

}  // namespace

int main(int argc, char** argv) {
  int listen_port = -1;
  int seconds = 3;
  int clients = 8;
  bool show_stats = false;
  const char* file_root = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc)
      listen_port = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc)
      seconds = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
      clients = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--file-root") == 0 && i + 1 < argc)
      file_root = argv[++i];
    else if (std::strcmp(argv[i], "--stats") == 0)
      show_stats = true;
  }

  // Accelerator + engine from the configuration framework.
  auto settings = server::parse_ssl_engine_settings(kConf);
  if (!settings.is_ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 settings.status().to_string().c_str());
    return 1;
  }
  // Device fleet from the qat_topology{} block; each logical device is
  // DH8970-shaped (3 endpoints x 12 engines). Both modes build the same
  // WorkerPool over it: workers take their instances from the topology and
  // run their own loops on their own threads.
  qat::TopologyConfig topo_config;
  topo_config.num_devices = settings.value().topology.devices;
  topo_config.numa_nodes = settings.value().topology.numa_nodes;
  topo_config.spill_threshold = settings.value().topology.spill_threshold;
  qat::DeviceTopology topology(topo_config);

  tls::TlsContextConfig tls_config;
  tls_config.is_server = true;
  tls_config.async_mode =
      settings.value().engine.offload_mode == engine::OffloadMode::kAsync;
  tls_config.cipher_suites = {tls::CipherSuite::kEcdheRsaWithAes128CbcSha,
                              tls::CipherSuite::kTlsRsaWithAes128CbcSha};

  server::WorkerPoolOptions options;
  options.workers = settings.value().worker_processes;
  options.tls_config = tls_config;
  options.engine_config = settings.value().engine;
  options.worker_affinity = settings.value().topology.worker_affinity;
  server::WorkerConfig& worker_config = options.worker_config;
  worker_config.notify = settings.value().notify;
  worker_config.poll = settings.value().poll;
  worker_config.heuristic = settings.value().heuristic;
  worker_config.overload = settings.value().overload;
  worker_config.http_limits = settings.value().http_limits;
  worker_config.response_body_size = 1024;
  // Static-file streaming (DESIGN.md §11): --file-root overrides the conf's
  // http{file_root} knob; paths resolve under the root, misses answer 404.
  worker_config.file_root =
      file_root != nullptr ? file_root : settings.value().file_root;

  if (listen_port >= 0) {
    // Serving mode: SIGTERM/SIGINT wired to graceful drain and the
    // self-healing control plane (DESIGN.md §15) on top: SIGHUP hot reloads
    // the conf, the supervisor watchdogs every worker, and each worker
    // serves GET /healthz, GET /readyz and POST /reload.
    server::ControlPlane control;
    if (auto st = control.load(kConf); !st.is_ok()) {
      std::fprintf(stderr, "control load failed: %s\n", st.to_string().c_str());
      return 1;
    }
    options.worker_config.control = &control;
    auto pool = std::make_unique<server::WorkerPool>(
        &topology, &test_rsa2048(), options);
    auto status = pool->start(static_cast<uint16_t>(listen_port));
    if (!status.is_ok()) {
      std::fprintf(stderr, "listen failed: %s\n", status.to_string().c_str());
      return 1;
    }
    control.attach(pool.get());
    control.install_sighup();
    control.start_supervisor();
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::printf(
        "serving HTTPS on 127.0.0.1:%u with %d workers "
        "(SIGHUP reloads; SIGTERM/ctrl-c drains, deadline %llu ms)\n",
        pool->port(), pool->workers(),
        static_cast<unsigned long long>(kDrainDeadlineMs));
    while (!g_shutdown)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::printf("draining: accepts stopped, in-flight requests finishing\n");
    control.stop_supervisor();
    pool->shutdown(kDrainDeadlineMs);
    const auto pstats = pool->stats();
    const auto cstats = control.stats();
    std::printf(
        "drained: %llu connections accepted, %llu reloads, %llu worker "
        "restarts\n%s",
        static_cast<unsigned long long>(pstats.totals.accepted),
        static_cast<unsigned long long>(cstats.reloads),
        static_cast<unsigned long long>(cstats.worker_restarts),
        pool->stats_text().c_str());
    return 0;
  }

  // Self test: the pool on an ephemeral loopback port, in-process clients
  // over TCP from this thread.
  server::WorkerPool pool(&topology, &test_rsa2048(), options);
  if (auto st = pool.start(0); !st.is_ok()) {
    std::fprintf(stderr, "pool start failed: %s\n", st.to_string().c_str());
    return 1;
  }
  const uint16_t port = pool.port();
  const client::ConnectFn connect = [port]() -> int {
    auto fd = net::tcp_connect(port);
    return fd.is_ok() ? fd.value() : -1;
  };

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig client_config;
  client_config.cipher_suites = tls_config.cipher_suites;
  tls::TlsContext client_ctx(client_config, &client_provider);

  client::Pool clients_pool;
  for (int i = 0; i < clients; ++i) {
    client::ClientOptions copts;
    copts.keepalive = false;  // s_time style: handshake per request
    copts.full_handshake_ratio = 0.5;
    clients_pool.add(std::make_unique<client::HttpsClient>(
        &client_ctx, connect, copts, 1000 + static_cast<uint64_t>(i)));
  }

  std::printf("self test: %d clients, %d seconds, %d workers, QTLS "
              "configuration\n",
              clients, seconds, pool.workers());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline)
    for (auto& c : clients_pool.clients()) c->step();

  if (show_stats) {
    // Fetch a worker's own GET /stats endpoint (DESIGN.md §8) the way an
    // operator would, over a fresh connection.
    client::ClientOptions sopts;
    sopts.path = "/stats";
    sopts.max_requests = 1;
    client::HttpsClient stats_client(&client_ctx, connect, sopts, 9999);
    while (stats_client.step()) {
    }
    std::printf("\nGET /stats:\n%.*s\n",
                static_cast<int>(stats_client.last_body().size()),
                reinterpret_cast<const char*>(stats_client.last_body().data()));
  }
  // Stopped before reading the per-worker stats, which are worker-thread
  // state while the loops run.
  pool.stop();

  const client::ClientStats stats = clients_pool.aggregate();
  const server::WorkerPoolStats pstats = pool.stats();
  std::printf("\nresults over %ds:\n", seconds);
  std::printf("  handshakes: %llu (%llu resumed)\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.resumed));
  std::printf("  requests:   %llu, errors: %llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.errors));
  std::printf("  CPS:        %.0f\n",
              static_cast<double>(stats.connections) / seconds);
  std::printf("  latency:    %s\n", stats.response_time.summary().c_str());
  std::printf("  workers: async parks=%llu disorder events=%llu idle "
              "sleeps=%llu\n",
              static_cast<unsigned long long>(pstats.totals.async_parks),
              static_cast<unsigned long long>(pstats.totals.disorder_events),
              static_cast<unsigned long long>(pstats.totals.idle_sleeps));
  server::HeuristicPollerStats polls;
  for (int i = 0; i < pool.workers(); ++i) {
    if (const server::HeuristicPollerStats* p = pool.worker(i)->poller_stats()) {
      polls.polls += p->polls;
      polls.timeliness_triggers += p->timeliness_triggers;
      polls.efficiency_triggers += p->efficiency_triggers;
      polls.failover_triggers += p->failover_triggers;
    }
  }
  std::printf("  heuristic polls=%llu (timeliness=%llu efficiency=%llu "
              "failover=%llu)\n",
              static_cast<unsigned long long>(polls.polls),
              static_cast<unsigned long long>(polls.timeliness_triggers),
              static_cast<unsigned long long>(polls.efficiency_triggers),
              static_cast<unsigned long long>(polls.failover_triggers));
  for (int d = 0; d < topology.num_devices(); ++d)
    std::printf("  device %d: %s\n", d,
                topology.device(d).fw_counters().to_string().c_str());
  std::printf("  topology: %s\n", topology.stats_json().c_str());
  return stats.errors == 0 ? 0 : 1;
}
