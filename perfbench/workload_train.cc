// `train` workload: train ComplEx (three times), then ConvE, from scratch at
// the default TrainConfig, and filter-evaluate each on the test split (one
// thread).
// The ml optimizer step and the models training loops do the work; core
// and serve do none.
#include <cmath>
#include <optional>
#include <sstream>

#include "bench_common.h"
#include "common/trace.h"
#include "datagen/datasets.h"
#include "eval/evaluator.h"
#include "models/factory.h"
#include "models/model_store.h"
#include "workload_util.h"

namespace perfbench {

namespace {

using kelpie::ModelKind;

constexpr int kComplExTrainings = 3;
/// Set-up is dataset generation only, about 2 ms; it is timed in batches of
/// kSetupsPerBatch (a few hundred ms each), and setup_s is the median over
/// kSetupBatches batches of the mean time of one set-up.
constexpr int kSetupsPerBatch = 100;
constexpr int kSetupBatches = 5;
/// Evaluations after each training. One takes under a millisecond and its
/// time follows the host's cache and memory traffic more than a training
/// does, so job3 is the median of all ComplEx evaluations of the run: three
/// windows of about 0.7 s, seconds apart.
constexpr int kEvaluations = 1001;

struct TrainedModel {
  double train_s = 0.0;
  host::Interval train_at;
  std::vector<double> evaluations_s;
  /// The evaluation loop, whose own slices scale its evaluations.
  host::Interval evaluations_at;
  size_t epochs = 0;
  double eval_s = 0.0;
  uint64_t ranks = 0;
};

/// Trains `kind` from scratch and evaluates it; records timings, layer
/// readings (of this training) and output checks.
TrainedModel TrainAndEvaluate(const Args& args, const kelpie::Dataset& dataset,
                              ModelKind kind, Report& report) {
  const std::string m = ModelLabel(kind);
  const kelpie::TrainConfig config = kelpie::DefaultConfig(kind, dataset);
  std::unique_ptr<kelpie::LinkPredictionModel> model =
      kelpie::CreateModel(kind, dataset, config);
  kelpie::Rng rng(ModelSeed(args.seed, kind));

  const uint64_t epochs_before = CounterTotal("kelpie_train_epochs_total");
  const uint64_t recoveries_before =
      CounterTotal("kelpie_train_recoveries_total");
  const HistogramReading epoch_hist_before =
      ReadHistogram("kelpie_train_epoch_seconds", {});

  kelpie::Status status;
  TrainedModel out;
  {
    kelpie::trace::Span span("bench.models.train." + m);
    const host::OpTimer timer;
    status = model->Train(dataset, rng);
    out.train_s = timer.Seconds();
    out.train_at = timer.Done();
  }
  const kelpie::TrainReport& train_report = model->last_train_report();
  out.epochs = train_report.epochs_run;
  report.Op(status.ok() &&
                train_report.completeness == kelpie::Completeness::kComplete,
            "train " + m + ": " + status.ToString());
  report.Check(ModelIsFinite(*model, dataset),
               "train " + m + ": non-finite parameters or scores");

  const HistogramReading epoch_hist =
      ReadHistogram("kelpie_train_epoch_seconds", {}) - epoch_hist_before;
  const uint64_t epochs = CounterTotal("kelpie_train_epochs_total") -
                          epochs_before;
  report.Layer("models.train_s." + m, out.train_s, "s");
  report.Layer("ml.epochs." + m, static_cast<double>(epochs), "count");
  report.Layer("ml.epoch_s." + m, epoch_hist.Mean(), "s");
  // Both trainers sweep every entity row once per query, two queries per
  // training fact per epoch (tail + head, or fact + reciprocal).
  report.Layer("models.rows_swept." + m,
                  static_cast<double>(epochs) * 2.0 *
                      static_cast<double>(dataset.train().size()) *
                      static_cast<double>(dataset.num_entities()),
                  "rows-computed");
  report.AddLayer(
      "ml.recoveries",
      static_cast<double>(CounterTotal("kelpie_train_recoveries_total") -
                          recoveries_before),
      "count");

  const uint64_t ranks_before = CounterTotal("kelpie_eval_ranks_total");
  kelpie::EvalResult eval;
  std::vector<double> eval_s;
  // An evaluation is short enough that the cache a slice leaves behind
  // shows in it: the slices run between evaluations, not inside them, and
  // they alone scale the evaluations (not the training's, which run in a
  // different cache state).
  host::StopSlicing();
  const host::OpTimer loop;
  for (int i = 0; i < kEvaluations; ++i) {
    kelpie::trace::Span span("bench.eval.evaluate." + m);
    kelpie::EvalOptions options;
    options.num_threads = 1;
    const host::OpTimer timer;
    eval = kelpie::EvaluateTest(*model, dataset, options);
    eval_s.push_back(timer.Seconds());
    host::Pace(host::Reference::kCompute, eval_s.back());
  }
  out.evaluations_at = loop.Done();
  host::StartSlicing();
  out.eval_s = Median(eval_s);
  out.evaluations_s = eval_s;
  out.ranks = (CounterTotal("kelpie_eval_ranks_total") - ranks_before) /
              kEvaluations;
  report.Op(out.ranks == 2 * dataset.test().size() && std::isfinite(eval.Mrr()),
            "evaluate " + m);
  report.Layer("eval.evaluate_s." + m, out.eval_s, "s");

  // Output bytes: the parameters and the filtered-rank metrics.
  report.digest().Add(ParameterBytes(*model));
  report.digest().Add(kelpie::metrics::FormatDouble(eval.Mrr()) + " " +
                      kelpie::metrics::FormatDouble(eval.HitsAt1()));

  // The saved file reloads to the same parameter bytes.
  const std::string path = ModelPath(args, kind);
  kelpie::Status saved = kelpie::SaveModel(*model, kind, path);
  const auto load_start = Clock::now();
  auto loaded = kelpie::LoadModel(path);
  report.AddLayer("models.load_s", SecondsSince(load_start), "s");
  report.Check(saved.ok() && loaded.ok() &&
                   ParameterBytes(**loaded) == ParameterBytes(*model),
               "model file round trip " + m);
  return out;
}

}  // namespace

void RunTrain(const Args& args, Report& report) {
  host::StartSlicing();
  std::optional<kelpie::Dataset> dataset;
  std::vector<double> setups;
  std::vector<host::Interval> setups_at;
  for (int b = 0; b < kSetupBatches; ++b) {
    const host::OpTimer timer;
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      dataset.emplace(kelpie::MakeBenchmark(
          kelpie::BenchmarkDataset::kFb15k237, kDatasetScale, args.seed));
    }
    setups.push_back(timer.Seconds() / kSetupsPerBatch);
    setups_at.push_back(timer.Done());
  }
  report.Layer("datagen.generate_s", Median(setups), "s");

  auto& collector = kelpie::trace::Collector::Global();
  double untraced_complex_s = 0.0;
  if (args.trace) {
    // Tracing overhead: the same ComplEx training untraced, then traced.
    collector.Disable();
    Report scratch;
    untraced_complex_s =
        TrainAndEvaluate(args, *dataset, ModelKind::kComplEx, scratch).train_s;
    collector.Enable();
  }

  // ComplEx trains kComplExTrainings times from scratch (the same bytes each
  // time), so its median does not rest on one 3-second reading; ConvE's
  // 13-second training is steady once.
  // Unscaled and scaled (host_speed.h) readings of each kind.
  std::vector<double> complex_s, conve_s, complex_eval_ms;
  std::vector<double> complex_x, conve_x, complex_eval_x;
  double fact_epochs = 0.0, train_s = 0.0, train_x = 0.0, eval_s = 0.0;
  uint64_t ranks = 0;
  std::vector<TrainedModel> trained;
  for (int i = 0; i <= kComplExTrainings; ++i) {
    const ModelKind kind =
        i < kComplExTrainings ? ModelKind::kComplEx : ModelKind::kConvE;
    trained.push_back(TrainAndEvaluate(args, *dataset, kind, report));
  }
  host::StopSlicing();
  auto scaled = [](double s, const host::Interval& at) {
    return s * host::LocalScale(host::Reference::kCompute, at);
  };
  for (size_t i = 0; i < trained.size(); ++i) {
    const TrainedModel& t = trained[i];
    const bool complex = i < kComplExTrainings;
    (complex ? complex_s : conve_s).push_back(1e3 * t.train_s);
    (complex ? complex_x : conve_x)
        .push_back(1e3 * scaled(t.train_s, t.train_at));
    if (complex) {
      const double loop_scale = host::LocalScale(
          host::Reference::kCompute, t.evaluations_at, /*margin_s=*/0.0);
      for (double s : t.evaluations_s) {
        complex_eval_ms.push_back(1e3 * s);
        complex_eval_x.push_back(1e3 * s * loop_scale);
      }
    }
    fact_epochs += static_cast<double>(t.epochs * dataset->train().size());
    train_s += t.train_s;
    train_x += scaled(t.train_s, t.train_at);
    eval_s += t.eval_s;
    ranks += t.ranks;
  }
  std::vector<double> setups_x;
  for (size_t b = 0; b < setups.size(); ++b) {
    setups_x.push_back(scaled(setups[b], setups_at[b]));
  }

  const Summary job1 = Summarize(complex_s);
  const Summary job2 = Summarize(conve_s);
  const Summary job1_x = Summarize(complex_x);
  const Summary job2_x = Summarize(conve_x);
  report.EndToEndScaled("setup_s", Median(setups_x), Median(setups), "s");
  report.EndToEndScaled("job1_ms", job1_x.p50, job1.p50, "ms");
  report.EndToEndScaled("job1_tail_ms", job1_x.tail, job1.tail, "ms");
  report.EndToEndScaled("job2_ms", job2_x.p50, job2.p50, "ms");
  report.EndToEndScaled("job2_tail_ms", job2_x.tail, job2.tail, "ms");
  report.EndToEndScaled("job3_ms", Median(complex_eval_x),
                        Median(complex_eval_ms), "ms");
  report.EndToEndScaled("throughput_per_s", fact_epochs / train_x,
                        fact_epochs / train_s, "1/s");
  report.Note("job1 = ComplEx Train(), job2 = ConvE Train(), job3 = "
              "filtered evaluation of ComplEx on the test split (median of " +
              std::to_string(kEvaluations) + " after each of the " +
              std::to_string(kComplExTrainings) +
              " trainings); throughput_per_s = training fact-epochs per "
              "second of Train()");
  report.Note(SummaryLine("job1: ComplEx Train()", job1, 1e-3, "s"));
  report.Note(SummaryLine("job2: ConvE Train()", job2, 1e-3, "s"));

  report.Layer("eval.ranks", static_cast<double>(ranks), "count");
  report.Layer("eval.rank_us", 1e6 * eval_s / static_cast<double>(ranks),
               "us");
  if (args.trace) {
    const double traced_complex_s = 1e-3 * job1.p50;
    report.Layer("trace.overhead_share",
                 (traced_complex_s - untraced_complex_s) / untraced_complex_s,
                 "share");
  }
}

}  // namespace perfbench
