#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/trace.h"

namespace perfbench {

void Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    notes_.push_back("FAILED: " + what);
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  correct_ = false;
  notes_.push_back("CHECK FAILED: " + what);
}

HistogramReading HistogramReading::operator-(
    const HistogramReading& before) const {
  HistogramReading d = *this;
  d.count -= before.count;
  d.sum -= before.sum;
  for (size_t i = 0; i < d.buckets.size() && i < before.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  return d;
}

HistogramReading HistogramReading::operator+(
    const HistogramReading& other) const {
  if (buckets.empty()) return other;
  HistogramReading s = *this;
  s.count += other.count;
  s.sum += other.sum;
  for (size_t i = 0; i < s.buckets.size() && i < other.buckets.size(); ++i) {
    s.buckets[i] += other.buckets[i];
  }
  return s;
}

double HistogramReading::Quantile(double q) const {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket > 0.0 && seen + in_bucket >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      // The +Inf bucket has no upper edge; report its lower edge.
      if (i >= bounds.size()) return lo;
      const double hi = bounds[i];
      return lo + (hi - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

HistogramReading ReadHistogram(std::string_view family,
                               std::vector<double> bounds) {
  kelpie::metrics::Histogram& h =
      kelpie::metrics::Registry::Global().GetHistogram(family,
                                                       std::move(bounds));
  HistogramReading r;
  r.count = h.Count();
  r.sum = h.Sum();
  r.bounds = h.bounds();
  for (size_t i = 0; i <= r.bounds.size(); ++i) {
    r.buckets.push_back(h.BucketCount(i));
  }
  return r;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return perfbench::Quantile(values, 0.5);
}

void WriteTrace(const std::string& path) {
  std::ofstream out(path);
  out << kelpie::trace::Collector::Global().ToJson() << "\n";
}

namespace {

std::string TripleFields(const kelpie::Dataset& dataset,
                         const kelpie::Triple& t) {
  return "\"head\":\"" +
         kelpie::metrics::JsonEscape(dataset.entities().NameOf(t.head)) +
         "\",\"relation\":\"" +
         kelpie::metrics::JsonEscape(dataset.relations().NameOf(t.relation)) +
         "\",\"tail\":\"" +
         kelpie::metrics::JsonEscape(dataset.entities().NameOf(t.tail)) +
         "\"";
}

}  // namespace

std::string ScoreRequestLine(uint64_t id, const kelpie::Dataset& dataset,
                             const kelpie::Triple& t) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"score\"," +
         TripleFields(dataset, t) + "}";
}

std::string ExplainRequestLine(uint64_t id, const kelpie::Dataset& dataset,
                               const kelpie::Triple& t) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"explain\"," +
         TripleFields(dataset, t) + "}";
}

}  // namespace perfbench
