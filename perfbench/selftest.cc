// Self-test of the benchmark's own machinery:
//  - tail-percentile selection and the sample counts behind it, and the
//    geometric mean;
//  - failed (shed) requests counted as misses against the latency limit,
//    and growing-backlog detection;
//  - extractions through the timing proxy are byte-identical to
//    extractions without it, for ComplEx and ConvE;
//  - host-speed slices: timed operations exclude the slices that ran
//    inside them, and the scale comes from the slices around an operation.
// Exits 0 when every check passes. Run it with `python3 perfbench/run.py
// --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/kelpie.h"
#include "datagen/datasets.h"
#include "models/factory.h"
#include "serve/line_protocol.h"
#include "stats.h"
#include "timing_model.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestTailSelection() {
  using perfbench::Summarize;
  // Fewer than 40 samples: p75 leaves fewer than 10 beyond; tail = max.
  perfbench::Summary s = Summarize(Ramp(19));
  Expect(s.tail_q == 1.0 && s.tail == 19.0 && s.p50 == 10.0,
         "n=19: tail is the maximum, p50 the 10th value");
  s = Summarize(Ramp(39));
  Expect(s.tail_q == 1.0 && s.tail == 39.0,
         "n=39: p75 leaves 9 beyond, so the tail is the maximum");
  s = Summarize(Ramp(40));
  Expect(s.tail_q == 0.75 && s.tail == 30.0, "n=40: tail is p75 (10 beyond)");
  s = Summarize(Ramp(100));
  Expect(s.tail_q == 0.9 && s.tail == 90.0, "n=100: tail is p90 (10 beyond)");
  s = Summarize(Ramp(999));
  Expect(s.tail_q == 0.95 && s.tail == 950.0,
         "n=999: p99 leaves only 9 beyond, so the tail is p95");
  s = Summarize(Ramp(1000));
  Expect(s.tail_q == 0.99 && s.tail == 990.0,
         "n=1000: tail is p99 (10 beyond), p99.5 leaves 5");
  s = Summarize(Ramp(10000));
  Expect(s.tail_q == 0.999 && s.tail == 9990.0,
         "n=10000: tail is p99.9 (10 beyond)");
  Expect(perfbench::SamplesBeyond(1000, 0.99) == 10 &&
             perfbench::SamplesBeyond(1000, 0.995) == 5 &&
             perfbench::SamplesBeyond(7, 0.5) == 3,
         "samples beyond the nearest-rank quantile");
  Expect(s.count == 10000, "sample count is reported");
  Expect(std::fabs(perfbench::GeometricMean({1.0, 4.0, 16.0}) - 4.0) < 1e-12 &&
             perfbench::GeometricMean({}) == 0.0,
         "geometric mean");
}

void TestMisses() {
  std::vector<double> fast(1000, 0.0002);  // 0.2 ms each
  Expect(perfbench::RateMeetsLimit(fast, 0, 1e-3),
         "all fast, none failed: meets the limit");
  Expect(perfbench::RateMeetsLimit(fast, 9, 1e-3),
         "9 shed of 1009: p99 leaves 10 beyond, still within the limit");
  Expect(!perfbench::RateMeetsLimit(fast, 11, 1e-3),
         "11 shed of 1011: the shed requests are misses, the tail is infinite");
  Expect(std::isinf(
             perfbench::Summarize(perfbench::WithMisses(fast, 20)).tail),
         "misses sort last with infinite latency");
  Expect(!perfbench::RateMeetsLimit({}, 5, 1e-3),
         "nothing answered: the rate is not met");
  std::vector<double> growing;
  for (int i = 0; i < 1000; ++i) growing.push_back(1e-4 + i * 2e-6);
  Expect(!perfbench::RateMeetsLimit(growing, 0, 1e-3) &&
             perfbench::GrowingBacklog(growing, 1e-3),
         "latency growing through the phase is a backlog");
}

void TestHostSlices() {
  namespace host = perfbench::host;
  using host::Reference;
  Expect(host::Scale(Reference::kCompute) == 1.0 &&
             host::LocalScale(Reference::kCompute, {0, 0.0, 1.0}) == 1.0,
         "no slices yet: the scale is 1");
  host::StartSlicing();
  const host::OpTimer timer;
  const double slices_before = host::ThreadSliceSeconds();
  const auto start = perfbench::Clock::now();
  while (perfbench::SecondsSince(start) < 0.55) {
  }
  const double net_s = timer.Seconds();
  const double wall_s = perfbench::SecondsSince(start);
  const host::Interval at = timer.Done();
  host::StopSlicing();
  const double sliced_s = host::ThreadSliceSeconds() - slices_before;
  Expect(sliced_s > 0.0 && sliced_s < 0.3,
         "the timer ran slices on the busy thread");
  Expect(std::fabs(net_s + sliced_s - wall_s) < 1e-3,
         "an operation's time excludes the slices inside it");
  const double local = host::LocalScale(Reference::kCompute, at);
  Expect(std::fabs(local * host::MeanSliceS(Reference::kCompute) /
                       host::NominalSliceS(Reference::kCompute) -
                   1.0) < 0.5,
         "the local scale is near the run's");
  const double echo_s = host::RunSlice(Reference::kLoopback);
  host::StopLoopback();
  Expect(echo_s > 0.0 && echo_s < 1.0, "a loopback slice round-trips");
}

void TestProxyIdentity(kelpie::ModelKind kind) {
  const kelpie::Dataset dataset =
      kelpie::MakeBenchmark(kelpie::BenchmarkDataset::kFb15k237, 0.55, 3);
  kelpie::TrainConfig config = kelpie::DefaultConfig(kind, dataset);
  config.epochs = 3;  // identity does not need a converged model
  auto model = kelpie::CreateModel(kind, dataset, config);
  kelpie::Rng rng(11);
  Expect(model->Train(dataset, rng).ok(), "train for the proxy test");
  perfbench::TimingModel proxy(*model);
  const std::string name(kelpie::ModelKindName(kind));
  for (size_t i = 0; i < 2 && i < dataset.test().size(); ++i) {
    const kelpie::Triple& p = dataset.test()[i];
    for (bool sufficient : {false, true}) {
      std::string bytes[2];
      size_t post_trainings[2] = {0, 0};
      const kelpie::LinkPredictionModel* use[2] = {model.get(), &proxy};
      for (int k = 0; k < 2; ++k) {
        kelpie::Kelpie kelpie(*use[k], dataset, kelpie::KelpieOptions{});
        std::vector<kelpie::EntityId> conversion;
        kelpie::Explanation x =
            sufficient ? kelpie.ExplainSufficient(
                             p, kelpie::PredictionTarget::kTail, &conversion)
                       : kelpie.ExplainNecessary(p);
        bytes[k] =
            kelpie::serve::ExplainResponseLine(0, x, conversion, dataset);
        post_trainings[k] = x.post_trainings;
      }
      Expect(bytes[0] == bytes[1] && post_trainings[0] == post_trainings[1],
             name + (sufficient ? " sufficient" : " necessary") +
                 " extraction through the proxy is byte-identical");
    }
  }
  const perfbench::ModelCallTotals t = proxy.Totals();
  Expect(t.post_train_calls > 0 && t.sweeps > 0 &&
             t.rows_swept == t.sweeps * dataset.num_entities(),
         name + " proxy counted post-trainings and sweeps");
}

}  // namespace

int main() {
  TestTailSelection();
  TestMisses();
  TestHostSlices();
  TestProxyIdentity(kelpie::ModelKind::kComplEx);
  TestProxyIdentity(kelpie::ModelKind::kConvE);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
