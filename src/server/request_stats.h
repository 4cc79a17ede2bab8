// Serving-side telemetry: a lock-free log-linear latency histogram (the
// p50/p99 type the throughput bench reuses per thread count) and the
// per-request-class counters the stack exports through the `stats` reply.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "server/protocol.h"

namespace ah::server {

/// Fixed-footprint latency histogram over microseconds: 8 sub-buckets per
/// power of two (log-linear, ≤ ~12.5% relative bucket width), covering
/// [0, 2^63) us. Record() is a single relaxed atomic increment, so any
/// number of threads may record into one histogram; quantile reads are
/// approximate under concurrent writes (exact once writers are done).
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample (negative values clamp to 0). Thread-safe.
  void Record(double micros);

  /// Adds every bucket of `other` into this histogram (per-thread
  /// histograms merge into one before reporting).
  void Merge(const LatencyHistogram& other);

  std::uint64_t Count() const;

  /// Nearest-rank quantile, q in [0, 1]; returns the upper edge of the
  /// containing bucket (exact for samples < 8us). 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  static constexpr int kSubBits = 3;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kNumBuckets = 62 * kSub;

  static std::size_t BucketIndex(std::uint64_t v);
  /// Smallest value mapping to bucket `index`.
  static std::uint64_t BucketLowerBound(std::size_t index);

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// Thread-safe counters + per-class latency histograms for one serving
/// stack. Shed/timeout counts live in AdmissionController (single source);
/// this layer tracks what was actually answered.
class RequestStats {
 public:
  RequestStats() : start_(std::chrono::steady_clock::now()) {}

  /// One successfully answered request (cache hits included). A batch
  /// counts as one request of kind kBatch regardless of its size.
  void RecordOk(RequestKind kind, double micros);
  /// One request rejected with a parse/validation/internal error.
  void RecordError();

  std::uint64_t OkCount() const {
    return ok_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t ErrorCount() const {
    return errors_.load(std::memory_order_relaxed);
  }
  const LatencyHistogram& Histogram(RequestKind kind) const {
    return histograms_[static_cast<std::size_t>(kind)];
  }

  double UptimeSeconds() const;
  /// Mean successfully-answered requests/sec since construction.
  double Qps() const;

 private:
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> ok_total_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::array<LatencyHistogram, static_cast<std::size_t>(RequestKind::kQuit) + 1>
      histograms_;
};

}  // namespace ah::server
