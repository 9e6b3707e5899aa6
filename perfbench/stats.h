// Summary statistics shared by the benchmark and its self-test: tail
// percentile selection, misses from failed requests, backlog detection and
// the output digest.
#ifndef KELPIE_PERFBENCH_STATS_H_
#define KELPIE_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace perfbench {

/// Percentiles a tail may be reported at, ascending.
inline constexpr double kTailLadder[] = {0.75,  0.9,   0.95,  0.99,
                                         0.995, 0.999, 0.9999};

/// Samples a reported tail must leave beyond it.
inline constexpr size_t kTailMinBeyond = 10;

/// Nearest-rank quantile of an ascending sample: the value at 0-based index
/// ceil(q * n) - 1, clamped to the sample. q = 0.5 of {1, 2, 3, 4} is 2.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Samples strictly beyond the nearest-rank q-quantile.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t at = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(at, n);
}

struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  /// The highest ladder percentile with >= kTailMinBeyond samples beyond
  /// it. With fewer than 40 samples no ladder step qualifies and the tail
  /// is the maximum (tail_q = 1).
  double tail = 0.0;
  double tail_q = 1.0;
};

/// Summarizes `values` (any order). Infinite values (misses) sort last and
/// make every quantile that reaches them infinite.
inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = Quantile(values, 0.5);
  s.tail = values.back();
  s.tail_q = 1.0;
  for (double q : kTailLadder) {
    if (SamplesBeyond(values.size(), q) >= kTailMinBeyond) {
      s.tail = Quantile(values, q);
      s.tail_q = q;
    }
  }
  return s;
}

/// Geometric mean of positive `values`; 0 for an empty sample.
inline double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Latencies of one open-loop phase with every failed request (shed,
/// deadline, error, wrong bytes, never answered) counted as a miss: an
/// infinite latency, so it exceeds any limit.
inline std::vector<double> WithMisses(std::vector<double> latencies,
                                      size_t failed) {
  latencies.insert(latencies.end(), failed,
                   std::numeric_limits<double>::infinity());
  return latencies;
}

/// True when an open-loop phase built a growing backlog: requests due in the
/// last quarter of the schedule waited markedly longer (median more than
/// twice, and more than half the limit longer) than those due in the first
/// quarter. `latencies` are in schedule (due-time) order.
inline bool GrowingBacklog(const std::vector<double>& latencies,
                           double limit) {
  const size_t n = latencies.size();
  if (n < 8) return false;
  const size_t quarter = n / 4;
  std::vector<double> first(latencies.begin(), latencies.begin() + quarter);
  std::vector<double> last(latencies.end() - quarter, latencies.end());
  std::sort(first.begin(), first.end());
  std::sort(last.begin(), last.end());
  const double a = Quantile(first, 0.5);
  const double b = Quantile(last, 0.5);
  return b > 2.0 * a && b - a > 0.5 * limit;
}

/// A fixed offered rate meets the latency limit when its tail, with misses,
/// is within the limit and the phase built no growing backlog.
inline bool RateMeetsLimit(const std::vector<double>& latencies,
                           size_t failed, double limit) {
  if (latencies.empty() && failed == 0) return false;
  const Summary s = Summarize(WithMisses(latencies, failed));
  return s.tail <= limit && !GrowingBacklog(latencies, limit);
}

/// FNV-1a 64 over a byte stream; order-sensitive.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
    // Separator so ("ab","c") and ("a","bc") differ.
    h_ ^= 0xff;
    h_ *= 0x100000001b3ull;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench

#endif  // KELPIE_PERFBENCH_STATS_H_
