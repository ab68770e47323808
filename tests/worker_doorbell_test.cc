// The worker's idle park on the response doorbells (DESIGN.md "Worker idle:
// response doorbell"):
//  * lost-wakeup stress: a stream of short offload ops, submitted from the
//    worker thread itself, whose engine completions race the worker's
//    arm / re-scan / commit window. A lost doorbell would leave a response
//    unretrieved until the failover poll, so every retrieval must beat one
//    failover interval, and the device must answer every request;
//  * failover bound: with a dropped response and nothing else live, the
//    parked worker still resolves the op within failover_interval_ms +
//    op_deadline_us (the contract stated at Worker::run_until), without
//    spinning.
// Select with `ctest -L doorbell`; run it in the -DQTLS_SANITIZE=thread tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "asyncx/job.h"
#include "qat/fault.h"
#include "server/worker.h"

namespace qtls::server {
namespace {

using Clock = std::chrono::steady_clock;

tls::TlsContextConfig server_config() {
  tls::TlsContextConfig scfg;
  scfg.is_server = true;
  scfg.async_mode = true;
  scfg.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
  return scfg;
}

qat::DeviceConfig small_device(qat::FaultPlan* plan) {
  qat::DeviceConfig cfg;
  cfg.num_endpoints = 1;
  cfg.engines_per_endpoint = 2;
  cfg.fault_plan = plan;
  return cfg;
}

// ------------------------------------------------- lost-wakeup stress ----

// Keeps `width` PRF offloads in flight until `target` have completed. Runs
// on the worker thread from WorkerConfig::loop_hook: each pass resumes the
// jobs whose response was retrieved and starts new ones, then busy-waits a
// pseudo-random 0-63 us. The hook runs just before the worker's park
// decision, so the wait spreads engine completions across the window
// between the previous pass's last poll and the arm / re-scan. Retrieval
// is timed from just before submission to the response callback in poll().
class OpStream {
 public:
  OpStream(engine::QatEngineProvider* qat, size_t width, size_t target)
      : qat_(qat), width_(width), target_(target),
        slots_(std::make_unique<Slot[]>(width)) {
    for (size_t i = 0; i < width_; ++i)
      slots_[i].wctx.set_callback(&OpStream::on_notify, &slots_[i]);
  }

  void step() {
    for (size_t i = 0; i < width_; ++i) {
      Slot& s = slots_[i];
      if (s.job != nullptr && s.notified) {
        s.notified = false;
        if (run(s) == asyncx::JobStatus::kFinished) finish(s);
      }
      if (s.job == nullptr && started_ < target_) {
        ++started_;
        s.submitted = Clock::now();
        if (run(s) == asyncx::JobStatus::kFinished) finish(s);
      }
    }
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto until = Clock::now() + std::chrono::microseconds(lcg_ >> 58);
    while (Clock::now() < until) {
    }
  }

  bool done() const { return finished_ == target_; }
  size_t failures() const { return failures_; }
  Clock::duration max_retrieval() const { return max_retrieval_; }

 private:
  struct Slot {
    asyncx::AsyncJob* job = nullptr;
    asyncx::WaitCtx wctx;
    int ret = 0;
    bool notified = false;
    Clock::time_point submitted, retrieved;
  };

  static void on_notify(void* arg) {
    Slot* s = static_cast<Slot*>(arg);
    s->notified = true;
    s->retrieved = Clock::now();
  }

  asyncx::JobStatus run(Slot& s) {
    return asyncx::start_job(&s.job, &s.wctx, &s.ret, [this] {
      auto r = qat_->prf_tls12(HashAlg::kSha256, to_bytes("secret"), "label",
                               to_bytes("seed"), 48);
      return r.is_ok() ? 1 : -1;
    });
  }

  void finish(Slot& s) {
    ++finished_;
    if (s.ret != 1) ++failures_;
    if (s.retrieved > s.submitted)
      max_retrieval_ = std::max(max_retrieval_, s.retrieved - s.submitted);
  }

  engine::QatEngineProvider* qat_;
  size_t width_, target_;
  std::unique_ptr<Slot[]> slots_;
  uint64_t lcg_ = 0x646f6f7262656c6cULL;
  size_t started_ = 0, finished_ = 0, failures_ = 0;
  Clock::duration max_retrieval_{0};
};

struct StressCase {
  size_t width;  // offloads kept in flight
  size_t ops;
};

class DoorbellStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(DoorbellStress, EveryResponseRetrievedWithinOneFailoverInterval) {
  const StressCase tc = GetParam();
  // Long enough that a lost doorbell cannot hide in scheduling noise: the
  // stranded response would wait out the whole interval.
  constexpr uint64_t kFailoverMs = 200;

  qat::QatDevice device(small_device(nullptr));
  // Two instances: the worker arms and re-scans both doorbells.
  engine::QatEngineProvider qat(
      std::vector<qat::CryptoInstance*>{device.allocate_instance(),
                                        device.allocate_instance()},
      engine::QatEngineConfig{});
  tls::TlsContext sctx(server_config(), &qat);
  OpStream stream(&qat, tc.width, tc.ops);

  WorkerConfig wcfg;
  // Thresholds of 1: the efficiency trigger holds whenever anything is in
  // flight, so every park is an armed park.
  wcfg.heuristic.asym_threshold = 1;
  wcfg.heuristic.sym_threshold = 1;
  wcfg.heuristic.failover_interval_ms = kFailoverMs;
  wcfg.loop_hook = [&stream](Worker&) { stream.step(); };
  Worker worker(&sctx, &qat, wcfg);

  const auto deadline = Clock::now() + std::chrono::seconds(120);
  worker.run_until(
      [&] { return stream.done() || Clock::now() > deadline; },
      /*timeout_ms=*/250);

  ASSERT_TRUE(stream.done());
  EXPECT_EQ(stream.failures(), 0u);
  EXPECT_LT(stream.max_retrieval(), std::chrono::milliseconds(kFailoverMs))
      << "a response waited for the failover poll: lost doorbell";
  // The armed park really ran (otherwise the test proves nothing).
  EXPECT_GT(worker.stats().idle_sleeps, 0u);
  EXPECT_EQ(qat.inflight_total(), 0u);
  const qat::FwCounters fw = device.fw_counters();
  EXPECT_EQ(fw.total_requests(), tc.ops);
  EXPECT_EQ(fw.total_requests(), fw.total_responses());
  EXPECT_EQ(qat.stats().sw_fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, DoorbellStress,
    ::testing::Values(StressCase{1, 3000}, StressCase{3, 3000}),
    [](const auto& info) { return "width" + std::to_string(info.param.width); });

// ---------------------------------------------------- failover bound ----

struct FailoverCase {
  uint64_t op_deadline_us;
  bool armed;  // heuristic trigger holds, so the worker parks armed
};

class DoorbellFailover : public ::testing::TestWithParam<FailoverCase> {};

// One op, its response dropped, nothing else live. The dropped response
// never rings a doorbell, and the parked worker sleeps at most until the
// failover poll is due, so the op's deadline is observed no later than one
// failover interval after it passes. Resolution is timed at the deadline
// sweep's notification, before the software fallback runs.
TEST_P(DoorbellFailover, DroppedResponseResolvesWithinFailoverBound) {
  const FailoverCase tc = GetParam();
  constexpr uint64_t kFailoverMs = 5;
  constexpr uint64_t kSlackMs = 2;

  qat::FaultPlan plan(77);
  plan.schedule(qat::OpKind::kPrfTls12, 1, qat::FaultKind::kDrop);
  qat::QatDevice device(small_device(&plan));
  engine::QatEngineConfig ecfg;
  ecfg.max_retries = 0;
  ecfg.op_deadline_us = tc.op_deadline_us;
  ecfg.sw_fallback_on_device_error = true;
  engine::QatEngineProvider qat(device.allocate_instance(), ecfg);
  tls::TlsContext sctx(server_config(), &qat);
  OpStream stream(&qat, /*width=*/1, /*target=*/1);

  WorkerConfig wcfg;
  wcfg.heuristic.failover_interval_ms = kFailoverMs;
  // Without connections TC_active is 0, so only the efficiency trigger
  // can hold: a threshold of 1 makes the park an armed one.
  if (tc.armed) wcfg.heuristic.sym_threshold = 1;
  wcfg.loop_hook = [&stream](Worker&) { stream.step(); };
  Worker worker(&sctx, &qat, wcfg);

  const auto deadline = Clock::now() + std::chrono::seconds(30);
  // The caller's timeout is far above the failover interval, so the park
  // bound is the failover poll.
  worker.run_until([&] { return stream.done() || Clock::now() > deadline; },
                   /*timeout_ms=*/50);

  ASSERT_TRUE(stream.done());
  EXPECT_EQ(stream.failures(), 0u);  // completed by the software fallback
  const auto bound = std::chrono::milliseconds(kFailoverMs + kSlackMs) +
                     std::chrono::microseconds(tc.op_deadline_us);
  EXPECT_LE(stream.max_retrieval(), bound)
      << std::chrono::duration_cast<std::chrono::microseconds>(
             stream.max_retrieval())
             .count()
      << " us";
  // Parked, not spinning: a handful of passes in all.
  EXPECT_GT(worker.stats().idle_sleeps, 0u);
  EXPECT_LE(worker.heartbeat().iterations.load(), 20u);
  EXPECT_EQ(qat.stats().deadline_expiries, 1u);
  EXPECT_EQ(qat.inflight_total(), 0u);
  const qat::FwCounters fw = device.fw_counters();
  EXPECT_EQ(fw.total_requests(), 1u);
  EXPECT_EQ(fw.total_responses(), 0u);  // the drop
}

INSTANTIATE_TEST_SUITE_P(
    Deadlines, DoorbellFailover,
    ::testing::Values(FailoverCase{3'000, false}, FailoverCase{3'000, true},
                      FailoverCase{8'000, false}, FailoverCase{8'000, true}),
    [](const auto& info) {
      return "deadline" + std::to_string(info.param.op_deadline_us / 1000) +
             "ms" + (info.param.armed ? "_armed" : "_unarmed");
    });

}  // namespace
}  // namespace qtls::server
