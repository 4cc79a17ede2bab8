// The load generator: drives one or more connections from one thread.
//
// Open loop: request k of a task is due at start + k * period and is sent
// as soon as the loop reaches it, unless `window` requests are already in
// flight; its latency runs from the due time, so a stall is charged to
// every request that queued behind it, and the gap between due and actual
// send is recorded as generator lag. Closed loop: the task keeps `window`
// requests in flight until its stop time; the due time is the actual send
// time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "inputs.h"
#include "recorder.h"
#include "wire.h"

namespace ah::server {
class ServerStack;
}

namespace perfbench {

/// One request as sent and answered.
struct Sent {
  std::int64_t due_ns = 0;
  std::int64_t done_ns = 0;  ///< Reply arrival; 0 = never answered.
  Cls cls = Cls::kDist;
  std::uint8_t backend = 0;
  bool ok = false;           ///< Reply decoded as OK.
  std::uint32_t gen = 0;     ///< Confirmed generation of its backend at send.
  Dist dist = ah::kInfDist;  ///< `d` value or `p` length.
  std::uint64_t hash = 0;    ///< `b`/`m` fingerprint.
  std::uint32_t count = 0;   ///< Distances answered.
  std::int32_t path = -1;    ///< Index into Task::paths.
};

/// One connection's traffic in one phase.
struct Task {
  Conn* conn = nullptr;
  const Inputs* inputs = nullptr;
  std::uint32_t stream = 0;
  bool bulk = false;
  /// Backend name per WorkloadSpec::backends index; empty = unprefixed.
  std::vector<std::string> prefix;
  std::uint64_t count = 0;     ///< Requests to send at most.
  std::int64_t start_ns = 0;
  std::int64_t period_ns = 0;  ///< > 0: open loop.
  /// Requests in flight: closed loop, kept there; open loop, at most (the
  /// server's per-client admission cap, so a stall holds requests back in
  /// the generator, as lag, instead of having the server shed them).
  std::size_t window = 1;
  std::int64_t stop_ns = 0;    ///< Closed loop: no sends after this.
  /// Churn: confirmed generation per backend, read at send time.
  const std::atomic<std::uint32_t>* gens = nullptr;

  // Results.
  std::vector<Sent> sent;
  std::vector<std::vector<NodeId>> paths;
  bool dropped = false;  ///< The connection failed mid-phase.
  std::string first_error;  ///< First reply that failed to decode as OK.

  // Loop state.
  std::uint64_t next = 0;
  std::uint64_t answered = 0;
  std::deque<std::uint64_t> fifo;  ///< v1: indices awaiting replies.
  std::uint64_t id_base = 0;
};

struct LoopStats {
  Recorder lag_ns;
  std::size_t in_flight_max = 0;
};

/// Runs every task to completion on the calling thread: all requests sent
/// and answered, or `deadline_ns` passed (outstanding requests are then
/// left unanswered). Samples the stack's admission in-flight count when
/// `stack` is set.
void RunTasks(std::vector<Task*> tasks, std::int64_t deadline_ns,
              LoopStats* stats, ah::server::ServerStack* stack = nullptr);

}  // namespace perfbench
