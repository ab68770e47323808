// The heuristic polling scheme (paper §3.3/§4.3), verbatim logic:
//
//  Efficiency: coalesce responses — poll when the number of inflight
//  requests R_total reaches a threshold; a larger threshold (default 48)
//  applies while any asymmetric op is in flight (they take much longer),
//  else the smaller one (default 24).
//
//  Timeliness: each active TLS connection has at most one async crypto op
//  in flight, so when R_total == TC_active every active connection is
//  stalled on the accelerator — poll immediately or the event loop would
//  have nothing left to do.
//
//  Failover: if no heuristic poll triggered within an interval while
//  requests are in flight, force one (paper §4.3's 5 ms timer).
#pragma once

#include <cstdint>

#include "engine/qat_engine.h"

namespace qtls::server {

struct HeuristicPollerConfig {
  size_t asym_threshold = 48;   // qat_heuristic_poll_asym_threshold
  size_t sym_threshold = 24;    // qat_heuristic_poll_sym_threshold
  uint64_t failover_interval_ms = 5;
};

struct HeuristicPollerStats {
  uint64_t polls = 0;
  uint64_t retrieved = 0;
  uint64_t max_batch = 0;  // largest single-trigger retrieval (coalescing)
  uint64_t efficiency_triggers = 0;
  uint64_t timeliness_triggers = 0;
  uint64_t failover_triggers = 0;
};

class HeuristicPoller {
 public:
  HeuristicPoller(engine::QatEngineProvider* engine,
                  HeuristicPollerConfig config = {})
      : engine_(engine), config_(config) {}

  // Called wherever a crypto op may have been submitted or TC_active may
  // have changed (§4.3). `active_tls_connections` is TC_active =
  // TC_alive - TC_idle. Returns the number of responses retrieved.
  size_t maybe_poll(size_t active_tls_connections, uint64_t now_ms) {
    switch (trigger(active_tls_connections)) {
      case Trigger::kEfficiency:
        ++stats_.efficiency_triggers;
        return do_poll(now_ms);
      case Trigger::kTimeliness:
        ++stats_.timeliness_triggers;
        return do_poll(now_ms);
      case Trigger::kNone:
        break;
    }
    return 0;
  }

  // Whether maybe_poll() would poll now. With polled delivery its inputs
  // (R_total, TC_active) move only on the polling thread, so a poller that
  // parks while this is false needs no response doorbell: no response can
  // change the answer.
  bool would_poll(size_t active_tls_connections) const {
    return trigger(active_tls_connections) != Trigger::kNone;
  }

  // Failover check, called from a coarse timer (§4.3).
  size_t failover_poll(uint64_t now_ms) {
    if (engine_->inflight_total() == 0) return 0;
    if (now_ms - last_poll_ms_ < config_.failover_interval_ms) return 0;
    ++stats_.failover_triggers;
    return do_poll(now_ms);
  }

  // Milliseconds until failover_poll() fires: 0 when it is due now,
  // UINT64_MAX while nothing is in flight. A parked poller sleeps at most
  // this long, which keeps the §4.3 bound on a lost response.
  uint64_t failover_due_in_ms(uint64_t now_ms) const {
    if (engine_->inflight_total() == 0) return UINT64_MAX;
    const uint64_t since = now_ms - last_poll_ms_;
    return since >= config_.failover_interval_ms
               ? 0
               : config_.failover_interval_ms - since;
  }

  const HeuristicPollerStats& stats() const { return stats_; }
  const HeuristicPollerConfig& config() const { return config_; }

 private:
  enum class Trigger : uint8_t { kNone, kEfficiency, kTimeliness };

  Trigger trigger(size_t active_tls_connections) const {
    const size_t total = engine_->inflight_total();
    if (total == 0) return Trigger::kNone;

    const bool asym_inflight = engine_->inflight(qat::OpClass::kAsym) > 0;
    const size_t threshold =
        asym_inflight ? config_.asym_threshold : config_.sym_threshold;

    if (total >= threshold) return Trigger::kEfficiency;
    if (active_tls_connections > 0 && total >= active_tls_connections)
      return Trigger::kTimeliness;
    return Trigger::kNone;
  }

  size_t do_poll(uint64_t now_ms) {
    // One trigger = one batched pass over all of the engine's instances;
    // every ready response comes back in this single call (the coalescing
    // §3.3 argues for), wait-free on the response-ring consumer side.
    ++stats_.polls;
    const size_t got = engine_->poll();
    stats_.retrieved += got;
    if (got > stats_.max_batch) stats_.max_batch = got;
    last_poll_ms_ = now_ms;
    return got;
  }

  engine::QatEngineProvider* engine_;
  HeuristicPollerConfig config_;
  HeuristicPollerStats stats_;
  uint64_t last_poll_ms_ = 0;
};

}  // namespace qtls::server
