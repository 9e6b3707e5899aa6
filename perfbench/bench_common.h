// Shared plumbing of the benchmark workloads: arguments, the result record
// and its JSON line, registry readers and small clock helpers.
#ifndef KELPIE_PERFBENCH_BENCH_COMMON_H_
#define KELPIE_PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "host_speed.h"
#include "kgraph/dataset.h"
#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run (model files, cache file, trace).
  std::string work_dir;
  /// Expected output digest (hex) for this seed; empty = not checked.
  std::string expect_digest;
};

/// Dataset of every workload: the FB15k-237 stand-in at scale 0.55.
inline constexpr double kDatasetScale = 0.55;

/// Seed of the dataset and of the trained model the explain and serve
/// workloads use, whatever the workload seed: how many post-trainings an
/// extraction needs differs between the models of different seeds by up to
/// 2x. The workload seed draws their predictions and schedules.
inline constexpr uint64_t kInputSeed = 1;

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run reports. Operations are counted as attempted;
/// an operation whose output check fails counts as failed.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, std::string unit) {
    e2e_[name] = {value, std::move(unit)};
  }
  /// An end-to-end time or rate scaled to the reference host speed
  /// (host_speed.h); the unscaled value goes into a note.
  void EndToEndScaled(const std::string& name, double scaled, double unscaled,
                      std::string unit) {
    EndToEnd(name, scaled, std::move(unit));
    unscaled_ += " " + name + " " + kelpie::metrics::FormatDouble(unscaled);
  }
  void Layer(const std::string& name, double value, std::string unit) {
    layer_[name] = {value, std::move(unit)};
  }
  /// Adds a layer value to what is already recorded under `name`.
  void AddLayer(const std::string& name, double value, std::string unit) {
    Metric& m = layer_[name];
    m.value += value;
    m.unit = std::move(unit);
  }
  /// Counts one operation; `ok` false counts it as failed and logs `what`.
  void Op(bool ok, const std::string& what);
  /// An output check of an operation already counted: a failed check
  /// counts as a failed operation and makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// A human-readable line printed above the result.
  void Note(std::string line) { notes_.push_back(std::move(line)); }

  Digest& digest() { return digest_; }
  const Digest& digest() const { return digest_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  const std::map<std::string, Metric>& e2e() const { return e2e_; }
  const std::map<std::string, Metric>& layer() const { return layer_; }
  const std::vector<std::string>& notes() const { return notes_; }
  /// "name value" pairs of the unscaled end-to-end figures.
  const std::string& unscaled() const { return unscaled_; }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::vector<std::string> notes_;
  std::string unscaled_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  Digest digest_;
};

/// The set-up, every timed operation and the output checks of one workload.
void RunTrain(const Args& args, Report& report);
void RunExplain(const Args& args, Report& report);
void RunServe(const Args& args, Report& report);

// ---- Registry readers (the program's exported counters). ----

inline uint64_t CounterTotal(std::string_view family) {
  return kelpie::metrics::Registry::Global().CounterFamilyTotal(family);
}

inline uint64_t CounterValue(std::string_view family,
                             const kelpie::metrics::Labels& labels) {
  return kelpie::metrics::Registry::Global()
      .GetCounter(family, labels)
      .Value();
}

/// Count and sum of a histogram family's unlabelled series. `bounds` only
/// matters if the program has not registered the family yet.
struct HistogramReading {
  uint64_t count = 0;
  double sum = 0.0;
  std::vector<uint64_t> buckets;  // non-cumulative, last = +Inf
  std::vector<double> bounds;

  HistogramReading operator-(const HistogramReading& before) const;
  /// Sum of two readings of one family (an empty reading adds nothing).
  HistogramReading operator+(const HistogramReading& other) const;
  double Mean() const { return count > 0 ? sum / count : 0.0; }
  /// Quantile estimated by linear interpolation inside the bucket that
  /// holds it (the registry keeps bucket counts, not samples).
  double Quantile(double q) const;
};
HistogramReading ReadHistogram(std::string_view family,
                               std::vector<double> bounds);

/// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

/// Median of a small sample.
double Median(std::vector<double> values);

/// Writes the collected trace spans (JSON forest) to `path`.
void WriteTrace(const std::string& path);

/// Request lines of the serve line protocol for `t`.
std::string ScoreRequestLine(uint64_t id, const kelpie::Dataset& dataset,
                             const kelpie::Triple& t);
std::string ExplainRequestLine(uint64_t id, const kelpie::Dataset& dataset,
                               const kelpie::Triple& t);

}  // namespace perfbench

#endif  // KELPIE_PERFBENCH_BENCH_COMMON_H_
