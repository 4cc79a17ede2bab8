// Per-request latency recording with nanosecond resolution, and the metric
// sheet every number of the benchmark is reported through.
//
// Quantiles are nearest-rank over all samples: the q-quantile of n sorted
// samples is sample number ceil(q * n) (1-based). Each quantile metric
// carries its sample count and the number of samples beyond its rank, so a
// reader can see how much of the distribution a p99 actually rests on.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock; the vDSO read costs ~20 ns).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 1-based nearest rank of quantile q over n samples (n > 0).
inline std::size_t NearestRank(double q, std::size_t n) {
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(raw, 1.0)),
                                 1, n);
}

/// Raw samples (any integer unit, normally ns) with exact quantiles.
class Recorder {
 public:
  void Add(std::int64_t v) {
    samples_.push_back(v);
    sorted_ = false;
  }
  std::size_t Count() const { return samples_.size(); }

  /// Nearest-rank quantile; 0 when empty.
  std::int64_t Quantile(double q) {
    if (samples_.empty()) return 0;
    Sort();
    return samples_[NearestRank(q, samples_.size()) - 1];
  }

  /// Samples ranked after the quantile's rank.
  std::size_t Beyond(double q) const {
    return samples_.empty() ? 0
                            : samples_.size() - NearestRank(q, samples_.size());
  }

  double Mean() const {
    if (samples_.empty()) return 0;
    double sum = 0;
    for (const std::int64_t v : samples_) sum += static_cast<double>(v);
    return sum / static_cast<double>(samples_.size());
  }

 private:
  void Sort() {
    if (!sorted_) std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }

  std::vector<std::int64_t> samples_;
  bool sorted_ = true;
};

/// One reported number. Quantile metrics set `samples`/`beyond`.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  bool is_quantile = false;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Ordered collection of metrics plus the validity rules: a quantile must
/// be non-zero and rest on at least kMinBeyond samples beyond its rank.
class MetricSheet {
 public:
  static constexpr std::size_t kMinBeyond = 10;

  void Add(std::string name, std::string unit, double value) {
    metrics_.push_back(Metric{std::move(name), std::move(unit), value});
  }

  /// Adds quantile q of `rec` scaled by `scale` (e.g. 1e-3 for ns -> us).
  void AddQuantile(std::string name, std::string unit, Recorder& rec,
                   double q, double scale) {
    Metric m{std::move(name), std::move(unit),
             static_cast<double>(rec.Quantile(q)) * scale, true, rec.Count(),
             rec.Beyond(q)};
    metrics_.push_back(std::move(m));
  }

  /// Names of quantile metrics that break the validity rules.
  std::vector<std::string> Invalid() const {
    std::vector<std::string> bad;
    for (const Metric& m : metrics_) {
      if (m.is_quantile && (m.value <= 0 || m.beyond < kMinBeyond)) {
        bad.push_back(m.name);
      }
    }
    return bad;
  }

  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
