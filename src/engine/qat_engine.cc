#include "engine/qat_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/log.h"
#include "crypto/gcm.h"

namespace qtls::engine {

namespace {
constexpr uint8_t kClosed = static_cast<uint8_t>(BreakerState::kClosed);
constexpr uint8_t kOpen = static_cast<uint8_t>(BreakerState::kOpen);
constexpr uint8_t kHalfOpen = static_cast<uint8_t>(BreakerState::kHalfOpen);

// Global-registry mirrors of the QatEngineStats failure counters, so the
// /stats endpoint and periodic dumps see every provider's totals without
// walking provider instances. Interned once; increments are shard-local.
struct EngineObsCounters {
  obs::Counter submitted, completed, submit_retry, device_error, retry,
      deadline_expiry, sw_fallback, breaker_open, breaker_close, seal_batch,
      seal_batch_op, migration, lane_spill, lane_open, lane_close, remote_op,
      remote_completed, remote_expiry, remote_failure, remote_batch,
      remote_breaker_open, remote_breaker_close;

  EngineObsCounters() {
    auto& reg = obs::MetricsRegistry::global();
    submitted = reg.counter("qat.engine.submitted");
    completed = reg.counter("qat.engine.completed");
    submit_retry = reg.counter("qat.engine.submit_retry");
    device_error = reg.counter("qat.engine.device_error");
    retry = reg.counter("qat.engine.retry");
    deadline_expiry = reg.counter("qat.engine.deadline_expiry");
    sw_fallback = reg.counter("qat.engine.sw_fallback");
    breaker_open = reg.counter("qat.engine.breaker_open");
    breaker_close = reg.counter("qat.engine.breaker_close");
    seal_batch = reg.counter("qat.engine.seal_batch");
    seal_batch_op = reg.counter("qat.engine.seal_batch_op");
    migration = reg.counter("qat.engine.migration");
    lane_spill = reg.counter("qat.engine.lane_spillover");
    lane_open = reg.counter("qat.engine.lane_breaker_open");
    lane_close = reg.counter("qat.engine.lane_breaker_close");
    remote_op = reg.counter("qat.engine.remote_op");
    remote_completed = reg.counter("qat.engine.remote_completed");
    remote_expiry = reg.counter("qat.engine.remote_expiry");
    remote_failure = reg.counter("qat.engine.remote_failure");
    remote_batch = reg.counter("qat.engine.remote_batch");
    remote_breaker_open = reg.counter("qat.engine.remote_breaker_open");
    remote_breaker_close = reg.counter("qat.engine.remote_breaker_close");
  }
};

EngineObsCounters& obs_counters() {
  static EngineObsCounters counters;
  return counters;
}

// TX copy meter shared with tls/record.cc and engine/provider.cc — the
// engine appending a retrieved seal result into the output block is a
// staging copy on the TX path (the input marshalling into the compute
// closure models the device DMA and is deliberately not counted).
obs::Counter& record_bytes_copied() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("record.bytes_copied");
  return c;
}
}  // namespace

// Generic holder for a completed offload; `done` flips in the response
// callback (polling context), after `compute` ran on an engine thread.
// Derives the type-erased OpStateBase so the deadline sweep can track it.
template <typename T>
struct TypedOpState : QatEngineProvider::OpStateBase {
  Result<T> result = Status(Code::kInternal, "not computed");
};

QatEngineProvider::QatEngineProvider(qat::CryptoInstance* instance,
                                     QatEngineConfig config)
    : QatEngineProvider(std::vector<qat::CryptoInstance*>{instance}, config) {}

QatEngineProvider::QatEngineProvider(
    std::vector<qat::CryptoInstance*> instances, QatEngineConfig config)
    : instances_(std::move(instances)),
      config_(config),
      fallback_(config.drbg_seed ^ 0x5a5a5a5aULL) {
  assert(!instances_.empty());
  // Legacy single-device form: one lane, device id 0, no topology. The
  // lane machinery stays out of the submit path for this shape (see
  // lane_allowed), preserving the pre-topology behavior exactly.
  auto lane = std::make_unique<DeviceLane>();
  lane->device_id = 0;
  lane->instances = instances_;
  lanes_.push_back(std::move(lane));
  for (auto& c : inflight_) c.store(0, std::memory_order_relaxed);
}

QatEngineProvider::QatEngineProvider(qat::DeviceTopology* topology,
                                     int preferred_device,
                                     std::vector<DeviceInstanceSet> sets,
                                     QatEngineConfig config)
    : topology_(topology),
      preferred_device_(preferred_device),
      config_(config),
      fallback_(config.drbg_seed ^ 0x5a5a5a5aULL) {
  assert(!sets.empty());
  for (DeviceInstanceSet& set : sets) {
    assert(!set.instances.empty());
    auto lane = std::make_unique<DeviceLane>();
    lane->device_id = set.device_id;
    lane->instances = set.instances;
    if (topology_)
      lane->seen_generation.store(topology_->generation(),
                                  std::memory_order_relaxed);
    for (qat::CryptoInstance* inst : set.instances)
      instances_.push_back(inst);
    lanes_.push_back(std::move(lane));
  }
  for (auto& c : inflight_) c.store(0, std::memory_order_relaxed);
}

size_t QatEngineProvider::poll(size_t max) {
  // One pass over every assigned instance (§2.3: a process may hold
  // instances on several endpoints); each instance drains its MPSC
  // response ring in batches.
  size_t got = 0;
  for (qat::CryptoInstance* inst : instances_) {
    got += inst->poll(max - got);
    if (got >= max) break;
  }
  ++stats_.polls;
  stats_.polled_responses += got;
  if (got > stats_.max_poll_batch) stats_.max_poll_batch = got;
  // The deadline sweep piggybacks on the poll cadence: the worker's
  // failover poll timer keeps polling while ops are in flight, which bounds
  // how late an expiry is observed.
  if (config_.op_deadline_us != 0) sweep_deadlines(steady_now_ns());
  // So does the remote channel: pump() drives TX/RX, fires completions
  // (waking parked fibers through their WaitCtx), expires past-deadline
  // inflight ops, and flushes an aged coalescing window.
  if (remote_) remote_->pump();
  return got;
}

uint64_t QatEngineProvider::steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t QatEngineProvider::pending_deadline_ops() const {
  std::lock_guard<std::mutex> lk(pending_mu_);
  return pending_.size();
}

void QatEngineProvider::sweep_deadlines(uint64_t now) {
  std::lock_guard<std::mutex> lk(pending_mu_);
  for (auto it = pending_.begin(); it != pending_.end();) {
    OpStateBase* s = it->get();
    if (s->done.load(std::memory_order_acquire) ||
        s->abandoned.load(std::memory_order_acquire)) {
      it = pending_.erase(it);
      continue;
    }
    if (now >= s->deadline_ns) {
      // Expire: release the heuristic-poller slot here because the response
      // callback (if a late response ever shows up) returns early on the
      // abandoned flag without touching the counter.
      s->abandoned.store(true, std::memory_order_release);
      inflight_[s->cls].fetch_sub(1, std::memory_order_release);
      ++stats_.deadline_expiries;
      obs_counters().deadline_expiry.inc();
      if (s->wctx) s->wctx->notify();
      it = pending_.erase(it);
      continue;
    }
    ++it;
  }
}

bool QatEngineProvider::offload_allowed(qat::OpClass cls) {
  ClassBreaker& b = breakers_[static_cast<int>(cls)];
  const uint8_t st = b.state.load(std::memory_order_acquire);
  if (st == kClosed) return true;  // hot path: one load, no clock read
  if (st == kOpen) {
    if (steady_now_ns() >= b.open_until_ns.load(std::memory_order_acquire)) {
      // Cooldown elapsed: exactly one op wins the CAS and becomes the
      // half-open probe; everyone else keeps falling back until it lands.
      uint8_t expected = kOpen;
      return b.state.compare_exchange_strong(expected, kHalfOpen,
                                             std::memory_order_acq_rel);
    }
    return false;
  }
  return false;  // kHalfOpen: probe in flight
}

void QatEngineProvider::breaker_on_success(qat::OpClass cls) {
  ClassBreaker& b = breakers_[static_cast<int>(cls)];
  if (b.consecutive_failures.load(std::memory_order_relaxed) != 0)
    b.consecutive_failures.store(0, std::memory_order_relaxed);
  if (b.state.load(std::memory_order_acquire) != kClosed) {
    b.state.store(kClosed, std::memory_order_release);
    ++stats_.breaker_closes;
    obs_counters().breaker_close.inc();
    QTLS_INFO << "qat breaker closed for class " << static_cast<int>(cls)
              << " (re-probe succeeded)";
  }
}

void QatEngineProvider::breaker_on_failure(qat::OpClass cls) {
  ClassBreaker& b = breakers_[static_cast<int>(cls)];
  const int fails =
      b.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint8_t st = b.state.load(std::memory_order_acquire);
  if (st == kHalfOpen) {
    // Probe failed: reopen for another cooldown.
    b.open_until_ns.store(
        steady_now_ns() + config_.breaker_cooldown_ms * 1'000'000ULL,
        std::memory_order_release);
    b.state.store(kOpen, std::memory_order_release);
    ++stats_.breaker_opens;
    obs_counters().breaker_open.inc();
  } else if (st == kClosed && fails >= config_.breaker_threshold) {
    b.open_until_ns.store(
        steady_now_ns() + config_.breaker_cooldown_ms * 1'000'000ULL,
        std::memory_order_release);
    b.state.store(kOpen, std::memory_order_release);
    ++stats_.breaker_opens;
    obs_counters().breaker_open.inc();
    QTLS_WARN << "qat breaker open for class " << static_cast<int>(cls)
              << " after " << fails
              << " consecutive failures; degrading to software";
  }
}

// ------------------------------------------------------- remote tier ----

bool QatEngineProvider::remote_tier_available() {
  if (!remote_ || !remote_->alive()) return false;
  ClassBreaker& b = remote_breaker_;
  const uint8_t st = b.state.load(std::memory_order_acquire);
  if (st == kClosed) return true;
  if (st == kOpen) {
    if (steady_now_ns() >= b.open_until_ns.load(std::memory_order_acquire)) {
      uint8_t expected = kOpen;
      return b.state.compare_exchange_strong(expected, kHalfOpen,
                                             std::memory_order_acq_rel);
    }
    return false;
  }
  return false;  // kHalfOpen: probe in flight
}

bool QatEngineProvider::remote_tier_live() const {
  // A half-open tier still counts as live: a probe is in flight and may
  // restore it, so the class must not degrade past it to software yet.
  return remote_ && remote_->alive() &&
         remote_breaker_.state.load(std::memory_order_acquire) != kOpen;
}

void QatEngineProvider::remote_on_success() {
  ClassBreaker& b = remote_breaker_;
  if (b.consecutive_failures.load(std::memory_order_relaxed) != 0)
    b.consecutive_failures.store(0, std::memory_order_relaxed);
  if (b.state.load(std::memory_order_acquire) != kClosed) {
    b.state.store(kClosed, std::memory_order_release);
    ++stats_.remote_breaker_closes;
    obs_counters().remote_breaker_close.inc();
    QTLS_INFO << "remote offload tier recovered (re-probe succeeded)";
  }
}

void QatEngineProvider::remote_on_failure() {
  ClassBreaker& b = remote_breaker_;
  const int fails =
      b.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint8_t st = b.state.load(std::memory_order_acquire);
  const bool open_now =
      st == kHalfOpen ||
      (st == kClosed && fails >= config_.remote_breaker_threshold);
  if (!open_now) return;
  b.open_until_ns.store(
      steady_now_ns() + config_.remote_breaker_cooldown_ms * 1'000'000ULL,
      std::memory_order_release);
  b.state.store(kOpen, std::memory_order_release);
  ++stats_.remote_breaker_opens;
  obs_counters().remote_breaker_open.inc();
  QTLS_WARN << "remote offload tier tripped after " << fails
            << " consecutive failures; ladder skips to software";
}

std::string QatEngineProvider::remote_json() const {
  const char* st = "closed";
  switch (remote_breaker_state()) {
    case BreakerState::kClosed: st = "closed"; break;
    case BreakerState::kOpen: st = "open"; break;
    case BreakerState::kHalfOpen: st = "half_open"; break;
  }
  std::ostringstream os;
  os << "{\"attached\":" << (remote_ ? "true" : "false") << ",\"breaker\":\""
     << st << "\",\"ops\":" << stats_.remote_ops
     << ",\"completed\":" << stats_.remote_completed
     << ",\"expiries\":" << stats_.remote_expiries
     << ",\"failures\":" << stats_.remote_failures
     << ",\"batches\":" << stats_.remote_batches
     << ",\"breaker_opens\":" << stats_.remote_breaker_opens
     << ",\"breaker_closes\":" << stats_.remote_breaker_closes
     << ",\"channel\":" << (remote_ ? remote_->stats_json() : "null") << "}";
  return os.str();
}

namespace {
// Per-op wait shared between the submitting fiber/thread and the channel
// completion (which fires from pump(), possibly on the polling pass).
struct RemoteWait {
  std::atomic<bool> done{false};
  remote::RemoteStatus status = remote::RemoteStatus::kChannelDown;
  Bytes payload;
  asyncx::WaitCtx* wctx = nullptr;
};
}  // namespace

template <typename T>
bool QatEngineProvider::try_remote(qat::OpClass cls, const RemoteSpec<T>& spec,
                                   Result<T>* out) {
  if (!remote_tier_available()) return false;

  asyncx::AsyncJob* job = asyncx::get_current_job();
  const bool async = config_.offload_mode == OffloadMode::kAsync && job;
  asyncx::WaitCtx* wctx = async ? job->wait_ctx() : nullptr;

  ++stats_.remote_ops;
  obs_counters().remote_op.inc();

  auto wait = std::make_shared<RemoteWait>();
  wait->wctx = wctx;

  // Counted like a device submission so the heuristic poller keeps the
  // poll cadence up — poll() is also what pumps the channel.
  inflight_[static_cast<int>(cls)].fetch_add(1, std::memory_order_release);
  remote_inflight_.fetch_add(1, std::memory_order_relaxed);

  const uint64_t deadline_ns =
      config_.remote_op_deadline_us == 0
          ? 0
          : steady_now_ns() + config_.remote_op_deadline_us * 1'000ULL;

  const bool accepted = remote_->submit(
      spec.op, spec.encode(), deadline_ns,
      [wait](remote::RemoteStatus st, BytesView payload) {
        wait->status = st;
        wait->payload.assign(payload.begin(), payload.end());
        wait->done.store(true, std::memory_order_release);
        if (wait->wctx) wait->wctx->notify();
      });
  if (!accepted) {
    inflight_[static_cast<int>(cls)].fetch_sub(1, std::memory_order_release);
    remote_inflight_.fetch_sub(1, std::memory_order_relaxed);
    ++stats_.remote_failures;
    obs_counters().remote_failure.inc();
    remote_on_failure();
    return false;
  }
  // Single ops flush eagerly: a half-built handshake is latency-bound, so
  // it never waits out the coalescing window. The seal-batch path is the
  // one that amortizes (N submits, one flush, one frame).
  remote_->flush();

  if (async) {
    // The worker's poll cadence pumps the channel; its deadline sweep (or
    // channel death) bounds this wait.
    while (!wait->done.load(std::memory_order_acquire)) asyncx::pause_job();
  } else {
    while (!wait->done.load(std::memory_order_acquire)) {
      remote_->pump();
      std::this_thread::yield();
    }
  }
  inflight_[static_cast<int>(cls)].fetch_sub(1, std::memory_order_release);
  remote_inflight_.fetch_sub(1, std::memory_order_relaxed);

  switch (wait->status) {
    case remote::RemoteStatus::kOk: {
      Result<T> decoded = spec.decode(wait->payload);
      if (!decoded.is_ok()) {
        // The server said ok but the payload doesn't parse: a channel-level
        // fault, not an op-level one. Fall down the ladder.
        ++stats_.remote_failures;
        obs_counters().remote_failure.inc();
        remote_on_failure();
        return false;
      }
      ++stats_.remote_completed;
      obs_counters().remote_completed.inc();
      remote_on_success();
      *out = std::move(decoded);
      return true;
    }
    case remote::RemoteStatus::kComputeError:
      // Deterministic input failure — the tier worked; surface the same
      // Status a local compute would have produced. Terminal for the op.
      ++stats_.remote_completed;
      obs_counters().remote_completed.inc();
      remote_on_success();
      *out = remote::decode_error_body(wait->payload);
      return true;
    case remote::RemoteStatus::kDeadlineExpired:
      ++stats_.remote_expiries;
      obs_counters().remote_expiry.inc();
      remote_on_failure();
      return false;
    default:  // kBudgetExhausted, kBadRequest, kChannelDown
      ++stats_.remote_failures;
      obs_counters().remote_failure.inc();
      remote_on_failure();
      return false;
  }
}

bool QatEngineProvider::try_remote_seal_batch(
    qat::OpClass cls, const std::vector<RemoteSpec<Bytes>>& specs,
    const std::vector<std::function<Result<Bytes>()>>& computes,
    const std::vector<Bytes*>& outs, Status* result) {
  if (!remote_tier_available()) return false;
  const size_t n = specs.size();

  asyncx::AsyncJob* job = asyncx::get_current_job();
  const bool async = config_.offload_mode == OffloadMode::kAsync && job;
  asyncx::WaitCtx* wctx = async ? job->wait_ctx() : nullptr;

  const uint64_t deadline_ns =
      config_.remote_op_deadline_us == 0
          ? 0
          : steady_now_ns() + config_.remote_op_deadline_us * 1'000ULL;

  // N submits, ONE flush: the whole batch leaves as a single frame — the
  // remote mirror of the submit_batch() dispatch discipline.
  std::vector<std::shared_ptr<RemoteWait>> waits;
  waits.reserve(n);
  size_t submitted = 0;
  for (size_t i = 0; i < n; ++i) {
    auto wait = std::make_shared<RemoteWait>();
    wait->wctx = wctx;
    ++stats_.remote_ops;
    obs_counters().remote_op.inc();
    inflight_[static_cast<int>(cls)].fetch_add(1, std::memory_order_release);
    remote_inflight_.fetch_add(1, std::memory_order_relaxed);
    if (!remote_->submit(specs[i].op, specs[i].encode(), deadline_ns,
                         [wait](remote::RemoteStatus st, BytesView payload) {
                           wait->status = st;
                           wait->payload.assign(payload.begin(),
                                                payload.end());
                           wait->done.store(true, std::memory_order_release);
                           if (wait->wctx) wait->wctx->notify();
                         })) {
      // Channel died mid-batch: the dead submit never completes; mark it
      // settled here (earlier submits got kChannelDown completions already)
      // and let the settle loop below do the failure accounting.
      inflight_[static_cast<int>(cls)].fetch_sub(1,
                                                 std::memory_order_release);
      remote_inflight_.fetch_sub(1, std::memory_order_relaxed);
      wait->status = remote::RemoteStatus::kChannelDown;
      wait->done.store(true, std::memory_order_release);
    } else {
      ++submitted;
    }
    waits.push_back(std::move(wait));
  }
  if (submitted > 0) {
    remote_->flush();
    ++stats_.remote_batches;
    obs_counters().remote_batch.inc();
  }

  auto all_done = [&] {
    for (const auto& w : waits)
      if (!w->done.load(std::memory_order_acquire)) return false;
    return true;
  };
  if (async) {
    while (!all_done()) asyncx::pause_job();
  } else {
    while (!all_done()) {
      remote_->pump();
      std::this_thread::yield();
    }
  }
  inflight_[static_cast<int>(cls)].fetch_sub(submitted,
                                             std::memory_order_release);
  remote_inflight_.fetch_sub(submitted, std::memory_order_relaxed);

  // Settle per record in caller order; remote-failed records fall back to
  // the inline compute individually (the batch doesn't degrade as a unit).
  for (size_t i = 0; i < n; ++i) {
    RemoteWait& w = *waits[i];
    if (w.status == remote::RemoteStatus::kOk) {
      ++stats_.remote_completed;
      obs_counters().remote_completed.inc();
      remote_on_success();
      record_bytes_copied().add(w.payload.size());
      append(*outs[i], w.payload);
      continue;
    }
    if (w.status == remote::RemoteStatus::kComputeError) {
      ++stats_.remote_completed;
      obs_counters().remote_completed.inc();
      remote_on_success();
      *result = remote::decode_error_body(w.payload);
      return true;  // terminal: a local compute would have failed the same
    }
    if (w.status == remote::RemoteStatus::kDeadlineExpired) {
      ++stats_.remote_expiries;
      obs_counters().remote_expiry.inc();
      remote_on_failure();
    } else {  // kChannelDown / kBudgetExhausted / kBadRequest
      ++stats_.remote_failures;
      obs_counters().remote_failure.inc();
      remote_on_failure();
    }
    ++stats_.sw_fallbacks;
    obs_counters().sw_fallback.inc();
    Result<Bytes> sealed = computes[i]();
    if (!sealed.is_ok()) {
      *result = sealed.status();
      return true;
    }
    record_bytes_copied().add(sealed.value().size());
    append(*outs[i], sealed.value());
  }
  *result = Status::ok();
  return true;
}

// ----------------------------------------------------- device lanes ----

bool QatEngineProvider::lane_allowed(DeviceLane& lane) {
  // The legacy single-device shape has no topology and no failover target:
  // the per-class breakers already own degradation, so the lane is always
  // allowed and the submit path is byte-for-byte the pre-topology one.
  if (lanes_.size() == 1 && !topology_) return true;
  if (topology_ && !topology_->online(lane.device_id)) return false;
  // Open and half-open lanes are excluded here; re-binding goes through the
  // explicit probe phase in choose_lane so one op owns the probe.
  return lane.breaker.state.load(std::memory_order_acquire) == kClosed;
}

QatEngineProvider::DeviceLane* QatEngineProvider::try_probe_lane(
    DeviceLane& lane) {
  if (topology_ && !topology_->online(lane.device_id)) return nullptr;
  if (lane.breaker.state.load(std::memory_order_acquire) != kOpen)
    return nullptr;
  // A topology generation bump (re_add) re-probes immediately; otherwise
  // the cooldown must have elapsed.
  const uint64_t gen = topology_ ? topology_->generation() : 0;
  const bool gen_moved =
      topology_ && gen != lane.seen_generation.load(std::memory_order_acquire);
  if (!gen_moved &&
      steady_now_ns() <
          lane.breaker.open_until_ns.load(std::memory_order_acquire))
    return nullptr;
  uint8_t expected = kOpen;
  if (lane.breaker.state.compare_exchange_strong(expected, kHalfOpen,
                                                 std::memory_order_acq_rel)) {
    lane.seen_generation.store(gen, std::memory_order_release);
    return &lane;
  }
  return nullptr;
}

size_t QatEngineProvider::lane_depth(const DeviceLane& lane) const {
  // Device-wide depth when a topology is attached: spillover exists to shed
  // CONTENTION, and contention on a shared card comes mostly from other
  // workers' instances — a lane-local count can't see it. Standalone
  // providers fall back to their own share of the queue.
  if (topology_) return topology_->queue_depth(lane.device_id);
  size_t depth = 0;
  for (qat::CryptoInstance* inst : lane.instances) depth += inst->inflight();
  return depth;
}

QatEngineProvider::DeviceLane* QatEngineProvider::choose_lane(
    int exclude_device) {
  if (lanes_.size() == 1 && !topology_) return lanes_.front().get();

  // Phase 0: win a pending half-open probe — a tripped lane whose cooldown
  // elapsed, or whose device was re-added (topology generation moved) —
  // affine lane first. Probing AHEAD of healthy lanes is what rebinds a
  // recovered device promptly: if probes only ran when every lane was dark,
  // a worker with one surviving lane would never rediscover the other. The
  // cost is one committed op per cooldown against a still-dead device,
  // which the retry path migrates anyway.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& lp : lanes_) {
      DeviceLane& lane = *lp;
      if (lane.device_id == exclude_device) continue;
      const bool is_preferred = lane.device_id == preferred_device_;
      if ((pass == 0) != is_preferred) continue;
      if (DeviceLane* probed = try_probe_lane(lane)) return probed;
    }
  }

  // Phase 1: closed lanes only, shallowest-depth with affinity preference.
  DeviceLane* preferred = nullptr;
  DeviceLane* best = nullptr;
  size_t best_depth = static_cast<size_t>(-1);
  for (auto& lp : lanes_) {
    DeviceLane& lane = *lp;
    if (lane.device_id == exclude_device) continue;
    if (!lane_allowed(lane)) continue;
    const size_t depth = lane_depth(lane);
    if (depth < best_depth) {
      best_depth = depth;
      best = &lane;
    }
    if (lane.device_id == preferred_device_) preferred = &lane;
  }
  if (preferred) {
    const size_t spill =
        topology_ ? topology_->spill_threshold() : static_cast<size_t>(64);
    if (preferred == best || lane_depth(*preferred) <= best_depth + spill)
      return preferred;
    // Affine device too deep: spill to the shallowest healthy lane.
    ++stats_.lane_spillovers;
    obs_counters().lane_spill.inc();
    return best;
  }
  if (best) {
    // The affine lane was down, tripped, or excluded — count the diversion
    // so load-shift during an outage is visible.
    ++stats_.lane_spillovers;
    obs_counters().lane_spill.inc();
    return best;
  }

  // Everything (except maybe the excluded device) is dark. A retry may
  // still go back to the device that just failed it rather than giving up.
  if (exclude_device >= 0) return choose_lane(-1);
  return nullptr;
}

qat::CryptoInstance* QatEngineProvider::lane_instance(DeviceLane& lane) {
  return lane.instances[lane.rr.fetch_add(1, std::memory_order_relaxed) %
                        lane.instances.size()];
}

void QatEngineProvider::lane_on_success(DeviceLane& lane) {
  if (lanes_.size() == 1 && !topology_) return;
  ClassBreaker& b = lane.breaker;
  if (b.consecutive_failures.load(std::memory_order_relaxed) != 0)
    b.consecutive_failures.store(0, std::memory_order_relaxed);
  if (b.state.load(std::memory_order_acquire) != kClosed) {
    b.state.store(kClosed, std::memory_order_release);
    ++stats_.lane_breaker_closes;
    obs_counters().lane_close.inc();
    QTLS_INFO << "qat lane for device " << lane.device_id
              << " rebound (re-probe succeeded)";
  }
}

void QatEngineProvider::lane_on_failure(DeviceLane& lane) {
  if (lanes_.size() == 1 && !topology_) return;
  ClassBreaker& b = lane.breaker;
  const int fails =
      b.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint8_t st = b.state.load(std::memory_order_acquire);
  const bool open_now =
      st == kHalfOpen || (st == kClosed && fails >= config_.breaker_threshold);
  if (!open_now) return;
  b.open_until_ns.store(
      steady_now_ns() + config_.breaker_cooldown_ms * 1'000'000ULL,
      std::memory_order_release);
  if (topology_)
    lane.seen_generation.store(topology_->generation(),
                               std::memory_order_release);
  b.state.store(kOpen, std::memory_order_release);
  ++stats_.lane_breaker_opens;
  obs_counters().lane_open.inc();
  QTLS_WARN << "qat lane for device " << lane.device_id << " tripped after "
            << fails << " consecutive device failures; shifting load";
}

bool QatEngineProvider::other_lane_available(int device_id) {
  for (auto& lp : lanes_) {
    if (lp->device_id == device_id) continue;
    if (lane_allowed(*lp)) return true;
    // An open lane that could be probed still counts: the class must not
    // degrade to software while another device can be brought back.
    if (lp->breaker.state.load(std::memory_order_acquire) != kClosed &&
        (!topology_ || topology_->online(lp->device_id)))
      return true;
  }
  return false;
}

std::string QatEngineProvider::lanes_json() const {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const DeviceLane& lane = *lanes_[i];
    const char* st = "closed";
    switch (static_cast<BreakerState>(
        lane.breaker.state.load(std::memory_order_acquire))) {
      case BreakerState::kClosed: st = "closed"; break;
      case BreakerState::kOpen: st = "open"; break;
      case BreakerState::kHalfOpen: st = "half_open"; break;
    }
    os << (i ? "," : "") << "{\"device\":" << lane.device_id
       << ",\"breaker\":\"" << st << "\",\"submitted\":"
       << lane.submitted.load(std::memory_order_relaxed)
       << ",\"instances\":" << lane.instances.size() << "}";
  }
  os << ']';
  return os.str();
}

qat::OpKind QatEngineProvider::ec_op_kind(CurveId curve) {
  switch (curve) {
    case CurveId::kP256: return qat::OpKind::kEcP256;
    case CurveId::kP384: return qat::OpKind::kEcP384;
    case CurveId::kB283:
    case CurveId::kK283: return qat::OpKind::kEcBinary283;
    case CurveId::kB409:
    case CurveId::kK409: return qat::OpKind::kEcBinary409;
  }
  return qat::OpKind::kEcP256;
}

template <typename T>
Result<T> QatEngineProvider::offload(qat::OpKind kind,
                                     std::function<Result<T>()> compute,
                                     const RemoteSpec<T>* rspec) {
  using State = TypedOpState<T>;

  const qat::OpClass cls = qat::op_class_of(kind);

  if (!offload_allowed(cls)) {
    // Breaker open: next rung of the ladder is the remote tier, then
    // software — QAT -> remote -> inline, never skipping a live tier.
    if (rspec) {
      Result<T> r = err(Code::kUnavailable, "remote tier unavailable");
      if (try_remote(cls, *rspec, &r)) return r;
    }
    // Degrade to software. The compute closures are self-contained, so
    // running one on the calling thread IS the SoftwareProvider path (same
    // primitives, no device round trip).
    ++stats_.sw_fallbacks;
    obs_counters().sw_fallback.inc();
    return compute();
  }

  asyncx::AsyncJob* job = asyncx::get_current_job();
  const bool async = config_.offload_mode == OffloadMode::kAsync && job;
  asyncx::WaitCtx* wctx = async ? job->wait_ctx() : nullptr;

  const int max_attempts = 1 + std::max(0, config_.max_retries);
  int exclude_device = -1;  // the device the previous attempt failed on
  int last_device = -1;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // Lane choice per attempt (DESIGN.md §12): the affine device unless it
    // is down/tripped/deep, and never the device that just failed this op
    // — a retry migrates to a surviving device when one exists.
    DeviceLane* lane = choose_lane(exclude_device);
    if (!lane) {
      // Every assigned device is offline or tripped. Degrade this op
      // without touching the per-class breaker: the lane probes own
      // recovery, and a class flip would outlive the outage. The remote
      // tier takes the op first when it is live.
      if (rspec) {
        Result<T> r = err(Code::kUnavailable, "remote tier unavailable");
        if (try_remote(cls, *rspec, &r)) return r;
      }
      if (!config_.sw_fallback_on_device_error)
        return err(Code::kUnavailable, "no qat device available");
      ++stats_.sw_fallbacks;
      obs_counters().sw_fallback.inc();
      return compute();
    }
    if (last_device >= 0 && lane->device_id != last_device) {
      ++stats_.device_migrations;
      obs_counters().migration.inc();
    }
    last_device = lane->device_id;

    // Fresh per-attempt state: an abandoned attempt's shared state may still
    // be referenced by a late device response, so it is never reused.
    auto state = std::make_shared<State>();
    state->wctx = wctx;
    state->cls = static_cast<int>(cls);

    // Counted before submission so the heuristic poller sees the request the
    // instant it exists (paper §4.3 counts at crypto-function invocation).
    inflight_[static_cast<int>(cls)].fetch_add(1, std::memory_order_release);

    auto build_request = [&] {
      qat::CryptoRequest req;
      req.request_id =
          next_request_id_.fetch_add(1, std::memory_order_relaxed);
      req.kind = kind;
      // Sampling decision + submit stamp; the device stamps the rest of the
      // pipeline as the request moves through it.
      obs::trace_begin(req.trace);
      state->req_id = req.request_id;
      req.compute = [state, compute] {
        state->result = compute();
        return state->result.is_ok();
      };
      req.on_response = [this, state](const qat::CryptoResponse& resp) {
        if (state->abandoned.load(std::memory_order_acquire))
          return;  // deadline already recovered this op; slot released there
        state->dev_status = resp.status;
        if (resp.trace.sampled) state->trace = resp.trace;
        inflight_[state->cls].fetch_sub(1, std::memory_order_release);
        state->done.store(true, std::memory_order_release);
        // Async event notification (§3.4): kernel-bypass callback if set on
        // the wait context, otherwise the notification FD.
        if (state->wctx) state->wctx->notify();
      };
      return req;
    };

    // Requests round-robin across the lane's instances (§2.3); submission
    // retains the §3.2 failure path: a full request ring pauses the job
    // (async) or backs off (sync) and retries.
    qat::CryptoInstance* target = lane_instance(*lane);
    while (!target->submit(build_request())) {
      ++stats_.submit_retries;
      obs_counters().submit_retry.inc();
      if (async) {
        // Notify immediately so the application reschedules this handler to
        // retry the submission.
        if (wctx) wctx->notify();
        asyncx::pause_job();
      } else {
        target->poll();
        std::this_thread::yield();
      }
    }
    lane->submitted.fetch_add(1, std::memory_order_relaxed);
    ++stats_.submitted;
    obs_counters().submitted.inc();

    const uint64_t deadline_ns =
        config_.op_deadline_us == 0
            ? 0
            : steady_now_ns() + config_.op_deadline_us * 1'000ULL;

    if (async) {
      if (deadline_ns != 0) {
        state->deadline_ns = deadline_ns;
        std::lock_guard<std::mutex> lk(pending_mu_);
        pending_.push_back(state);
      }
      // Pre-processing ends here: pause until the async event arrives. The
      // loop tolerates spurious resumes (e.g. a resume triggered by the
      // retry-notification racing an actual response). A deadline expiry
      // (sweep_deadlines) sets `abandoned` and notifies, ending the wait.
      while (!state->done.load(std::memory_order_acquire) &&
             !state->abandoned.load(std::memory_order_acquire))
        asyncx::pause_job();
    } else {
      ++stats_.sync_blocks;
      // Straight offload (QAT+S): burn the event loop until the response is
      // back — this is precisely Figure 3's blocking. With a deadline set,
      // the spin checks the clock itself (no registry involvement).
      while (!state->done.load(std::memory_order_acquire)) {
        if (config_.self_poll_when_blocking) {
          target->poll();
        } else {
          std::this_thread::yield();  // an external polling thread retrieves
        }
        if (deadline_ns != 0 && steady_now_ns() >= deadline_ns &&
            !state->done.load(std::memory_order_acquire)) {
          state->abandoned.store(true, std::memory_order_release);
          inflight_[state->cls].fetch_sub(1, std::memory_order_release);
          ++stats_.deadline_expiries;
          obs_counters().deadline_expiry.inc();
          break;
        }
      }
    }

    if (state->abandoned.load(std::memory_order_acquire)) {
      // Deadline expired (likely a dropped response). No resubmit: the op
      // may still complete device-side and a duplicate would double-apply.
      // The DEVICE that swallowed it is charged; the class breaker only
      // when no higher tier survives — a healthy lane or a live remote
      // channel must keep the class off software (ops migrate down the
      // ladder, the class doesn't degrade).
      lane_on_failure(*lane);
      if (!other_lane_available(lane->device_id) && !remote_tier_live())
        breaker_on_failure(cls);
      if (rspec) {
        Result<T> r = err(Code::kUnavailable, "remote tier unavailable");
        if (try_remote(cls, *rspec, &r)) return r;
      }
      if (config_.sw_fallback_on_device_error) {
        ++stats_.sw_fallbacks;
        obs_counters().sw_fallback.inc();
        return compute();
      }
      return err(Code::kUnavailable, "qat op deadline expired");
    }

    ++stats_.completed;  // one per retrieved response, on the calling thread
    obs_counters().completed.inc();
    if (state->trace.sampled) {
      // Post-processing resumes here: close the trace and fold the stage
      // deltas into the per-stage histograms.
      obs::stamp_now(state->trace, obs::Stage::kFiberResume);
      obs::record_pipeline(state->trace, state->req_id, state->cls,
                           /*sim=*/false);
    }

    if (!qat::is_device_failure(state->dev_status)) {
      // kSuccess, or kComputeError (a deterministic input failure — the
      // device worked; state->result carries the error to the caller).
      lane_on_success(*lane);
      breaker_on_success(cls);
      return std::move(state->result);
    }

    // Transient device failure (CPA_STATUS_FAIL / reset-in-flight). Charge
    // the lane and steer the retry off this device.
    lane_on_failure(*lane);
    exclude_device = lane->device_id;
    ++stats_.device_errors;
    obs_counters().device_error.inc();
    if (attempt < max_attempts) {
      ++stats_.op_retries;
      obs_counters().retry.inc();
      if (!async) {
        // Capped exponential backoff on the blocking path. The fiber path
        // resubmits immediately instead — it must not block the worker
        // thread, and the resubmission round-robins to another instance.
        const uint64_t backoff_us =
            std::min(config_.retry_backoff_cap_us,
                     config_.retry_backoff_base_us << (attempt - 1));
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
    }
  }

  // Retries exhausted: terminal device failure for this op. The class
  // breaker is only charged when no surviving device AND no live remote
  // tier could take the class — otherwise the per-device lanes and the
  // remote breaker own degradation and the class stays on offload.
  if (!other_lane_available(last_device) && !remote_tier_live())
    breaker_on_failure(cls);
  if (rspec) {
    Result<T> r = err(Code::kUnavailable, "remote tier unavailable");
    if (try_remote(cls, *rspec, &r)) return r;
  }
  if (config_.sw_fallback_on_device_error) {
    ++stats_.sw_fallbacks;
    obs_counters().sw_fallback.inc();
    return compute();
  }
  return err(Code::kUnavailable, "qat device error; retries exhausted");
}

namespace {
// Remote payloads for Bytes-valued ops ARE the result; no parse step.
Result<Bytes> decode_bytes_payload(BytesView b) {
  return Bytes(b.begin(), b.end());
}
}  // namespace

Result<Bytes> QatEngineProvider::rsa_sign(const RsaPrivateKey& key,
                                          BytesView digest) {
  if (!config_.offload_rsa) return fallback_.rsa_sign(key, digest);
  Bytes digest_copy(digest.begin(), digest.end());
  const RsaPrivateKey* key_ptr = &key;  // keys outlive connections
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kRsaSign;
  rspec.encode = [key_ptr, digest_copy] {
    return remote::encode_rsa_op(*key_ptr, digest_copy);
  };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      qat::OpKind::kRsa2048Priv,
      [key_ptr, digest_copy]() -> Result<Bytes> {
        Bytes sig = rsa_sign_pkcs1(*key_ptr, digest_copy);
        if (sig.empty()) return err(Code::kInvalidArgument, "bad digest");
        return sig;
      },
      &rspec);
}

Result<Bytes> QatEngineProvider::rsa_decrypt(const RsaPrivateKey& key,
                                             BytesView ciphertext) {
  if (!config_.offload_rsa) return fallback_.rsa_decrypt(key, ciphertext);
  Bytes ct(ciphertext.begin(), ciphertext.end());
  const RsaPrivateKey* key_ptr = &key;
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kRsaDecrypt;
  rspec.encode = [key_ptr, ct] { return remote::encode_rsa_op(*key_ptr, ct); };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      qat::OpKind::kRsa2048Priv,
      [key_ptr, ct]() -> Result<Bytes> {
        return rsa_decrypt_pkcs1(*key_ptr, ct);
      },
      &rspec);
}

Result<KeyShare> QatEngineProvider::ecdhe_keygen(CurveId curve) {
  if (!config_.offload_ec) return fallback_.ecdhe_keygen(curve);
  // Engine threads need private randomness: derive a one-shot DRBG.
  const uint64_t nonce =
      engine_drbg_nonce_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t seed = config_.drbg_seed ^ (nonce * 0x9e3779b97f4a7c15ULL);
  RemoteSpec<KeyShare> rspec;
  rspec.op = remote::RemoteOp::kEcdheKeygen;
  rspec.encode = [curve, seed] {
    return remote::encode_ecdhe_keygen(curve, seed);
  };
  rspec.decode = [](BytesView body) -> Result<KeyShare> {
    QTLS_ASSIGN_OR_RETURN(remote::WireKeyShare wire,
                          remote::decode_keyshare_body(body));
    KeyShare share;
    share.curve = static_cast<CurveId>(wire.curve);
    share.priv = std::move(wire.priv);
    share.pub_point = std::move(wire.pub_point);
    return share;
  };
  return offload<KeyShare>(
      ec_op_kind(curve),
      [curve, seed]() -> Result<KeyShare> {
        Bytes sb;
        append_u64(sb, seed);
        HmacDrbg rng(HashAlg::kSha256, sb);
        return ecdhe_keygen_impl(curve, rng);
      },
      &rspec);
}

Result<Bytes> QatEngineProvider::ecdhe_derive(const KeyShare& mine,
                                              BytesView peer_point) {
  if (!config_.offload_ec) return fallback_.ecdhe_derive(mine, peer_point);
  KeyShare share = mine;
  Bytes peer(peer_point.begin(), peer_point.end());
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kEcdheDerive;
  rspec.encode = [share, peer] {
    return remote::encode_ecdhe_derive(share.curve, share.priv,
                                       share.pub_point, peer);
  };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      ec_op_kind(mine.curve),
      [share, peer]() -> Result<Bytes> {
        return ecdhe_derive_impl(share, peer);
      },
      &rspec);
}

Result<Bytes> QatEngineProvider::ecdsa_sign(CurveId curve, const Bignum& priv,
                                            BytesView digest) {
  if (!config_.offload_ec) return fallback_.ecdsa_sign(curve, priv, digest);
  const EcCurve* c = prime_curve(curve);
  if (!c)
    return err(Code::kUnimplemented, "ECDSA restricted to prime curves");
  const uint64_t nonce =
      engine_drbg_nonce_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t seed = config_.drbg_seed ^ (nonce * 0xc2b2ae3d27d4eb4fULL);
  Bignum priv_copy = priv;
  Bytes digest_copy(digest.begin(), digest.end());
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kEcdsaSign;
  rspec.encode = [curve, priv_copy, digest_copy, seed] {
    return remote::encode_ecdsa_sign(curve, priv_copy.to_bytes_be(),
                                     digest_copy, seed);
  };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      ec_op_kind(curve),
      [c, priv_copy, digest_copy, seed]() -> Result<Bytes> {
        Bytes sb;
        append_u64(sb, seed);
        HmacDrbg rng(HashAlg::kSha256, sb);
        return qtls::ecdsa_sign(*c, priv_copy, digest_copy, rng).encode();
      },
      &rspec);
}

Result<Bytes> QatEngineProvider::prf_tls12(HashAlg alg, BytesView secret,
                                           const std::string& label,
                                           BytesView seed, size_t out_len) {
  if (!config_.offload_prf)
    return fallback_.prf_tls12(alg, secret, label, seed, out_len);
  Bytes secret_copy(secret.begin(), secret.end());
  Bytes seed_copy(seed.begin(), seed.end());
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kPrfTls12;
  rspec.encode = [alg, secret_copy, label, seed_copy, out_len] {
    return remote::encode_prf_tls12(alg, secret_copy, label, seed_copy,
                                    static_cast<uint32_t>(out_len));
  };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      qat::OpKind::kPrfTls12,
      [alg, secret_copy, label, seed_copy, out_len]() -> Result<Bytes> {
        return tls12_prf(alg, secret_copy, label, seed_copy, out_len);
      },
      &rspec);
}

Result<Bytes> QatEngineProvider::cipher_seal(const CbcHmacKeys& keys,
                                             uint64_t seq, BytesView header,
                                             BytesView iv, BytesView fragment) {
  if (!config_.offload_cipher)
    return fallback_.cipher_seal(keys, seq, header, iv, fragment);
  CbcHmacKeys keys_copy = keys;
  Bytes header_copy(header.begin(), header.end());
  Bytes iv_copy(iv.begin(), iv.end());
  Bytes frag_copy(fragment.begin(), fragment.end());
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kCipherSeal;
  rspec.encode = [keys_copy, seq, header_copy, iv_copy, frag_copy] {
    return remote::encode_cipher_seal(keys_copy, seq, header_copy, iv_copy,
                                      frag_copy);
  };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      qat::OpKind::kCipher16k,
      [keys_copy, seq, header_copy, iv_copy, frag_copy]() -> Result<Bytes> {
        return cbc_hmac_seal(keys_copy, seq, header_copy, iv_copy, frag_copy);
      },
      &rspec);
}

Result<Bytes> QatEngineProvider::cipher_open(const CbcHmacKeys& keys,
                                             uint64_t seq,
                                             BytesView header_without_len,
                                             BytesView iv,
                                             BytesView ciphertext) {
  if (!config_.offload_cipher)
    return fallback_.cipher_open(keys, seq, header_without_len, iv, ciphertext);
  CbcHmacKeys keys_copy = keys;
  Bytes header_copy(header_without_len.begin(), header_without_len.end());
  Bytes iv_copy(iv.begin(), iv.end());
  Bytes ct_copy(ciphertext.begin(), ciphertext.end());
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kCipherOpen;
  rspec.encode = [keys_copy, seq, header_copy, iv_copy, ct_copy] {
    return remote::encode_cipher_open(keys_copy, seq, header_copy, iv_copy,
                                      ct_copy);
  };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      qat::OpKind::kCipher16k,
      [keys_copy, seq, header_copy, iv_copy, ct_copy]() -> Result<Bytes> {
        return cbc_hmac_open(keys_copy, seq, header_copy, iv_copy, ct_copy);
      },
      &rspec);
}

Result<Bytes> QatEngineProvider::aead_seal(BytesView key, BytesView nonce,
                                           BytesView aad,
                                           BytesView plaintext) {
  if (!config_.offload_cipher)
    return fallback_.aead_seal(key, nonce, aad, plaintext);
  Bytes k(key.begin(), key.end());
  Bytes n(nonce.begin(), nonce.end());
  Bytes a(aad.begin(), aad.end());
  Bytes pt(plaintext.begin(), plaintext.end());
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kAeadSeal;
  rspec.encode = [k, n, a, pt] { return remote::encode_aead_op(k, n, a, pt); };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      qat::OpKind::kCipher16k,
      [k, n, a, pt]() -> Result<Bytes> { return gcm_seal(k, n, a, pt); },
      &rspec);
}

Result<Bytes> QatEngineProvider::aead_open(BytesView key, BytesView nonce,
                                           BytesView aad,
                                           BytesView ciphertext) {
  if (!config_.offload_cipher)
    return fallback_.aead_open(key, nonce, aad, ciphertext);
  Bytes k(key.begin(), key.end());
  Bytes n(nonce.begin(), nonce.end());
  Bytes a(aad.begin(), aad.end());
  Bytes ct(ciphertext.begin(), ciphertext.end());
  RemoteSpec<Bytes> rspec;
  rspec.op = remote::RemoteOp::kAeadOpen;
  rspec.encode = [k, n, a, ct] { return remote::encode_aead_op(k, n, a, ct); };
  rspec.decode = decode_bytes_payload;
  return offload<Bytes>(
      qat::OpKind::kCipher16k,
      [k, n, a, ct]() -> Result<Bytes> { return gcm_open(k, n, a, ct); },
      &rspec);
}

Status QatEngineProvider::run_seal_batch(
    const std::vector<std::function<Result<Bytes>()>>& computes,
    const std::vector<Bytes*>& outs,
    const std::vector<RemoteSpec<Bytes>>* rspecs) {
  using State = TypedOpState<Bytes>;
  const qat::OpClass cls = qat::op_class_of(qat::OpKind::kCipher16k);
  const size_t n = computes.size();

  if (!offload_allowed(cls)) {
    // Breaker open: the remote tier takes the whole batch as one frame
    // when it is live; otherwise the batch degrades to software on the
    // calling thread (the closures are self-contained).
    if (rspecs) {
      Status remote_result = Status::ok();
      if (try_remote_seal_batch(cls, *rspecs, computes, outs,
                                &remote_result))
        return remote_result;
    }
    for (size_t i = 0; i < n; ++i) {
      ++stats_.sw_fallbacks;
      obs_counters().sw_fallback.inc();
      QTLS_ASSIGN_OR_RETURN(Bytes sealed, computes[i]());
      record_bytes_copied().add(sealed.size());
      append(*outs[i], sealed);
    }
    return Status::ok();
  }

  // The whole batch rides one lane — a single submit_batch() dispatch is the
  // point of batching, so per-record lane choice would defeat it. Record
  // retries migrate individually through the single-op runner below.
  DeviceLane* lane = choose_lane(-1);
  if (!lane) {
    // Every device offline or tripped: the remote tier takes the batch
    // first; otherwise degrade without touching the per-class breaker
    // (lane probes own recovery).
    if (rspecs) {
      Status remote_result = Status::ok();
      if (try_remote_seal_batch(cls, *rspecs, computes, outs,
                                &remote_result))
        return remote_result;
    }
    if (!config_.sw_fallback_on_device_error)
      return err(Code::kUnavailable, "no qat device available");
    for (size_t i = 0; i < n; ++i) {
      ++stats_.sw_fallbacks;
      obs_counters().sw_fallback.inc();
      QTLS_ASSIGN_OR_RETURN(Bytes sealed, computes[i]());
      record_bytes_copied().add(sealed.size());
      append(*outs[i], sealed);
    }
    return Status::ok();
  }

  asyncx::AsyncJob* job = asyncx::get_current_job();
  const bool async = config_.offload_mode == OffloadMode::kAsync && job;
  asyncx::WaitCtx* wctx = async ? job->wait_ctx() : nullptr;

  // One shared state per record; every response callback decrements the
  // inflight slot and notifies the (single) waiting fiber.
  std::vector<std::shared_ptr<State>> states;
  states.reserve(n);
  std::vector<qat::CryptoRequest> reqs;
  reqs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto state = std::make_shared<State>();
    state->wctx = wctx;
    state->cls = static_cast<int>(cls);
    inflight_[static_cast<int>(cls)].fetch_add(1, std::memory_order_release);

    qat::CryptoRequest req;
    req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    req.kind = qat::OpKind::kCipher16k;
    obs::trace_begin(req.trace);
    state->req_id = req.request_id;
    const auto& compute = computes[i];
    req.compute = [state, compute] {
      state->result = compute();
      return state->result.is_ok();
    };
    req.on_response = [this, state](const qat::CryptoResponse& resp) {
      if (state->abandoned.load(std::memory_order_acquire)) return;
      state->dev_status = resp.status;
      if (resp.trace.sampled) state->trace = resp.trace;
      inflight_[state->cls].fetch_sub(1, std::memory_order_release);
      state->done.store(true, std::memory_order_release);
      if (state->wctx) state->wctx->notify();
    };
    states.push_back(std::move(state));
    reqs.push_back(std::move(req));
  }

  // The whole span goes to one instance as a single submit_batch() dispatch
  // (one engine wakeup for N records); a full request ring accepts a prefix
  // and the remainder retries after the loop turns (§3.2).
  qat::CryptoInstance* target = lane_instance(*lane);
  size_t accepted = 0;
  while (accepted < n) {
    accepted +=
        target->submit_batch(std::span<qat::CryptoRequest>(reqs).subspan(
            accepted));
    if (accepted < n) {
      ++stats_.submit_retries;
      obs_counters().submit_retry.inc();
      if (async) {
        if (wctx) wctx->notify();
        asyncx::pause_job();
      } else {
        target->poll();
        std::this_thread::yield();
      }
    }
  }
  lane->submitted.fetch_add(n, std::memory_order_relaxed);
  stats_.submitted += n;
  obs_counters().submitted.add(n);
  ++stats_.seal_batches;
  stats_.seal_batch_ops += n;
  if (n > stats_.max_seal_batch) stats_.max_seal_batch = n;
  obs_counters().seal_batch.inc();
  obs_counters().seal_batch_op.add(n);

  const uint64_t deadline_ns =
      config_.op_deadline_us == 0
          ? 0
          : steady_now_ns() + config_.op_deadline_us * 1'000ULL;

  auto settled = [](const State& s) {
    return s.done.load(std::memory_order_acquire) ||
           s.abandoned.load(std::memory_order_acquire);
  };
  auto all_settled = [&] {
    for (const auto& s : states)
      if (!settled(*s)) return false;
    return true;
  };

  if (async) {
    if (deadline_ns != 0) {
      std::lock_guard<std::mutex> lk(pending_mu_);
      for (auto& s : states) {
        s->deadline_ns = deadline_ns;
        pending_.push_back(s);
      }
    }
    // Every response (and any deadline expiry in sweep_deadlines) notifies
    // this fiber; the loop tolerates spurious resumes.
    while (!all_settled()) asyncx::pause_job();
  } else {
    ++stats_.sync_blocks;
    while (!all_settled()) {
      if (config_.self_poll_when_blocking) {
        target->poll();
      } else {
        std::this_thread::yield();
      }
      if (deadline_ns != 0 && steady_now_ns() >= deadline_ns) {
        for (auto& s : states) {
          if (settled(*s)) continue;
          s->abandoned.store(true, std::memory_order_release);
          inflight_[s->cls].fetch_sub(1, std::memory_order_release);
          ++stats_.deadline_expiries;
          obs_counters().deadline_expiry.inc();
        }
      }
    }
  }

  // Settle per record, preserving wire order (outs[i] append order is the
  // caller's record order regardless of device completion order).
  for (size_t i = 0; i < n; ++i) {
    State& s = *states[i];
    if (s.abandoned.load(std::memory_order_acquire)) {
      // Deadline expired: no resubmit (a late response may still land
      // device-side), mirror the single-op path — charge the lane, and the
      // class only when no surviving device exists.
      lane_on_failure(*lane);
      if (!other_lane_available(lane->device_id)) breaker_on_failure(cls);
      if (!config_.sw_fallback_on_device_error)
        return err(Code::kUnavailable, "qat op deadline expired");
      ++stats_.sw_fallbacks;
      obs_counters().sw_fallback.inc();
      QTLS_ASSIGN_OR_RETURN(Bytes sealed, computes[i]());
      record_bytes_copied().add(sealed.size());
      append(*outs[i], sealed);
      continue;
    }

    ++stats_.completed;
    obs_counters().completed.inc();
    if (s.trace.sampled) {
      obs::stamp_now(s.trace, obs::Stage::kFiberResume);
      obs::record_pipeline(s.trace, s.req_id, s.cls, /*sim=*/false);
    }

    if (!qat::is_device_failure(s.dev_status)) {
      lane_on_success(*lane);
      breaker_on_success(cls);
      QTLS_ASSIGN_OR_RETURN(Bytes sealed, std::move(s.result));
      record_bytes_copied().add(sealed.size());
      append(*outs[i], sealed);
      continue;
    }

    // Transient device failure on this record: charge the lane, then retry
    // through the single-op runner, which owns migration/backoff/fallback.
    lane_on_failure(*lane);
    ++stats_.device_errors;
    obs_counters().device_error.inc();
    ++stats_.op_retries;
    obs_counters().retry.inc();
    QTLS_ASSIGN_OR_RETURN(
        Bytes sealed, offload<Bytes>(qat::OpKind::kCipher16k, computes[i]));
    record_bytes_copied().add(sealed.size());
    append(*outs[i], sealed);
  }
  return Status::ok();
}

Status QatEngineProvider::cipher_seal_batch(const CbcHmacKeys& keys,
                                            std::span<CipherSealJob> jobs) {
  if (jobs.empty()) return Status::ok();
  if (!config_.offload_cipher) return fallback_.cipher_seal_batch(keys, jobs);
  if (jobs.size() == 1) {
    CipherSealJob& job = jobs.front();
    QTLS_ASSIGN_OR_RETURN(
        Bytes sealed,
        cipher_seal(keys, job.seq, job.header, job.iv, job.fragment));
    record_bytes_copied().add(sealed.size());
    append(*job.out, sealed);
    return Status::ok();
  }

  struct In {
    uint64_t seq;
    Bytes header, iv, fragment;
  };
  auto keys_copy = std::make_shared<CbcHmacKeys>(keys);
  std::vector<std::function<Result<Bytes>()>> computes;
  std::vector<Bytes*> outs;
  std::vector<RemoteSpec<Bytes>> rspecs;
  computes.reserve(jobs.size());
  outs.reserve(jobs.size());
  rspecs.reserve(jobs.size());
  for (CipherSealJob& job : jobs) {
    auto in = std::make_shared<In>(
        In{job.seq, Bytes(job.header.begin(), job.header.end()),
           Bytes(job.iv.begin(), job.iv.end()),
           Bytes(job.fragment.begin(), job.fragment.end())});
    computes.push_back([keys_copy, in]() -> Result<Bytes> {
      return cbc_hmac_seal(*keys_copy, in->seq, in->header, in->iv,
                           in->fragment);
    });
    RemoteSpec<Bytes> rspec;
    rspec.op = remote::RemoteOp::kCipherSeal;
    rspec.encode = [keys_copy, in] {
      return remote::encode_cipher_seal(*keys_copy, in->seq, in->header,
                                        in->iv, in->fragment);
    };
    rspec.decode = decode_bytes_payload;
    rspecs.push_back(std::move(rspec));
    outs.push_back(job.out);
  }
  return run_seal_batch(computes, outs, &rspecs);
}

Status QatEngineProvider::aead_seal_batch(BytesView key,
                                          std::span<AeadSealJob> jobs) {
  if (jobs.empty()) return Status::ok();
  if (!config_.offload_cipher) return fallback_.aead_seal_batch(key, jobs);
  if (jobs.size() == 1) {
    AeadSealJob& job = jobs.front();
    QTLS_ASSIGN_OR_RETURN(Bytes sealed,
                          aead_seal(key, job.nonce, job.aad, job.plaintext));
    record_bytes_copied().add(sealed.size());
    append(*job.out, sealed);
    return Status::ok();
  }

  struct In {
    Bytes nonce, aad, plaintext;
  };
  auto key_copy = std::make_shared<Bytes>(key.begin(), key.end());
  std::vector<std::function<Result<Bytes>()>> computes;
  std::vector<Bytes*> outs;
  std::vector<RemoteSpec<Bytes>> rspecs;
  computes.reserve(jobs.size());
  outs.reserve(jobs.size());
  rspecs.reserve(jobs.size());
  for (AeadSealJob& job : jobs) {
    auto in = std::make_shared<In>(
        In{Bytes(job.nonce.begin(), job.nonce.end()),
           Bytes(job.aad.begin(), job.aad.end()),
           Bytes(job.plaintext.begin(), job.plaintext.end())});
    computes.push_back([key_copy, in]() -> Result<Bytes> {
      return gcm_seal(*key_copy, in->nonce, in->aad, in->plaintext);
    });
    RemoteSpec<Bytes> rspec;
    rspec.op = remote::RemoteOp::kAeadSeal;
    rspec.encode = [key_copy, in] {
      return remote::encode_aead_op(*key_copy, in->nonce, in->aad,
                                    in->plaintext);
    };
    rspec.decode = decode_bytes_payload;
    rspecs.push_back(std::move(rspec));
    outs.push_back(job.out);
  }
  return run_seal_batch(computes, outs, &rspecs);
}

}  // namespace qtls::engine
