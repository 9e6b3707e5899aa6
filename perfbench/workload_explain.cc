// `explain` workload: for a trained ComplEx model, extract a necessary
// explanation for each of the model's predictions for held-out queries
// (about 120), and a sufficient one for a seeded sample of them, at the CLI
// defaults (|C| = 10, one
// thread per extraction, a fresh Kelpie per extraction as a one-shot
// `kelpie explain` has). Four clients run the extractions in a closed loop.
// Training happens in set-up. models::PostTrainMimic and the core builder
// do the work.
//
// Each extraction's time is divided by the size of its input: the training
// facts of the entities whose mimics it post-trains (the source entity for
// a necessary extraction, the conversion set for a sufficient one). That
// size comes from the dataset alone, so a change in how many post-trainings
// an extraction does moves the figures.
//
// How many post-trainings an extraction needs depends on the model: the
// share of predictions whose search stops early differs from one trained
// model to the next by up to 2x. So the dataset and the model are the same
// for every seed (those of kInputSeed), and the seed draws the predictions
// and their conversion sets.
//
// The traced run also explains a few ConvE predictions, for the per-layer
// readings of both models.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bench_common.h"
#include "common/trace.h"
#include "core/kelpie.h"
#include "eval/ranking.h"
#include "serve/line_protocol.h"
#include "timing_model.h"
#include "workload_util.h"
#include "xp/pipeline.h"

namespace perfbench {

namespace {

using kelpie::ModelKind;
using kelpie::PredictionTarget;

/// Concurrent clients of the closed loop: three, leaving a vCPU of the four
/// to the harness and the host's own work.
constexpr size_t kClients = 3;
/// ComplEx predictions explained both ways per second of --seconds. At the
/// seed code one costs 0.05-4 s of extraction (necessary plus sufficient),
/// 0.8 s on average.
constexpr double kPredictionsPerSecond = 1.34;
/// At most this many necessary extractions per sufficient one. A necessary
/// extraction costs a tenth of a sufficient one on average, and its cost
/// spreads wider (a search that stops at once or one that visits hundreds
/// of candidates), so it takes more samples to steady.
constexpr size_t kNecessaryPerSufficient = 3;
/// Predictions the traced run explains both ways, per model (ComplEx also
/// necessarily for kNecessaryPerSufficient times as many). A ConvE
/// extraction costs tens of seconds.
constexpr size_t kTracedComplExPredictions = 12;
constexpr size_t kConvEPredictions = 1;

struct Prediction {
  kelpie::Triple triple;
  PredictionTarget target = PredictionTarget::kTail;
  /// The conversion set of the sufficient extraction, drawn from the seed.
  std::vector<kelpie::EntityId> conversion;
  /// Training facts of the source entity, and of the conversion set.
  double source_facts = 0.0;
  double conversion_facts = 0.0;
};

/// The model's prediction for the query of `fact` on the `target` side: the
/// best-scoring entity that makes no known fact, or the fact's own answer
/// if that scores higher (a correct prediction). Filtered rank 1 either way.
kelpie::Triple TopPrediction(const kelpie::LinkPredictionModel& model,
                             const kelpie::Dataset& dataset,
                             const kelpie::Triple& fact,
                             PredictionTarget target) {
  std::vector<float> scores(dataset.num_entities());
  const bool tail = target == PredictionTarget::kTail;
  if (tail) {
    model.ScoreAllTails(fact.head, fact.relation, scores);
  } else {
    model.ScoreAllHeads(fact.relation, fact.tail, scores);
  }
  const auto& known = tail ? dataset.KnownTails(fact.head, fact.relation)
                           : dataset.KnownHeads(fact.relation, fact.tail);
  kelpie::EntityId best = kelpie::PredictedEntity(fact, target);
  for (size_t e = 0; e < scores.size(); ++e) {
    const auto id = static_cast<kelpie::EntityId>(e);
    if (known.count(id) > 0 || id == kelpie::SourceEntity(fact, target)) {
      continue;
    }
    if (scores[e] > scores[best]) best = id;
  }
  kelpie::Triple prediction = fact;
  (tail ? prediction.tail : prediction.head) = best;
  return prediction;
}

/// `count` of the model's predictions for held-out queries (test, then
/// validation facts, on the tail and the head side), in a seeded order,
/// one per query, each with a seeded conversion set.
std::vector<Prediction> SamplePredictions(
    const kelpie::LinkPredictionModel& model, const kelpie::Dataset& dataset,
    size_t count, kelpie::Rng& rng) {
  std::vector<std::pair<kelpie::Triple, PredictionTarget>> queries;
  for (const auto* split : {&dataset.test(), &dataset.valid()}) {
    for (const kelpie::Triple& fact : *split) {
      queries.emplace_back(fact, PredictionTarget::kTail);
      queries.emplace_back(fact, PredictionTarget::kHead);
    }
  }
  rng.Shuffle(queries);
  const size_t conversion_size =
      kelpie::RelevanceEngineOptions{}.conversion_set_size;
  auto degree = [&](kelpie::EntityId e) {
    return static_cast<double>(dataset.train_graph().Degree(e));
  };
  std::vector<Prediction> out;
  std::unordered_set<uint64_t> seen;
  for (const auto& [fact, target] : queries) {
    if (out.size() >= count) break;
    const kelpie::EntityId source = kelpie::SourceEntity(fact, target);
    const uint64_t query = (static_cast<uint64_t>(source) << 33) |
                           (static_cast<uint64_t>(fact.relation) << 1) |
                           (target == PredictionTarget::kTail ? 0 : 1);
    if (degree(source) == 0.0 || !seen.insert(query).second) continue;
    Prediction p{TopPrediction(model, dataset, fact, target), target, {},
                 degree(source), 0.0};
    p.conversion = kelpie::SampleConversionEntities(
        model, dataset, p.triple, target, conversion_size, rng);
    for (kelpie::EntityId c : p.conversion) p.conversion_facts += degree(c);
    if (p.conversion_facts > 0.0) out.push_back(std::move(p));
  }
  return out;
}

struct Job {
  size_t model = 0;  // index into the run's models
  size_t prediction = 0;
  bool sufficient = false;
};

struct JobResult {
  double seconds = 0.0;
  host::Interval at;
  bool complete = false;
  bool facts_ok = false;
  bool accepted = false;
  size_t visited = 0;
  ModelCallTotals calls;
  std::string bytes;
};

/// One extraction through a fresh Kelpie; through a fresh timing proxy when
/// `timed`.
JobResult Extract(kelpie::LinkPredictionModel& model,
                  const kelpie::Dataset& dataset, const Prediction& p,
                  bool sufficient, const std::string& label, bool timed) {
  std::optional<TimingModel> proxy;
  if (timed) proxy.emplace(model);
  kelpie::Kelpie kelpie(timed ? *proxy : model, dataset,
                        kelpie::KelpieOptions{});
  kelpie::Explanation x;
  JobResult out;
  {
    kelpie::trace::Span span(std::string("bench.core.explain_") +
                             (sufficient ? "sufficient." : "necessary.") +
                             label);
    const host::OpTimer timer;
    x = sufficient
            ? kelpie.ExplainSufficientWithSet(p.triple, p.target, p.conversion)
            : kelpie.ExplainNecessary(p.triple, p.target);
    out.seconds = timer.Seconds();
    out.at = timer.Done();
  }
  out.complete = x.completeness == kelpie::Completeness::kComplete &&
                 x.divergent_candidates == 0;
  out.facts_ok = FactsAreSourceTrainingFacts(x, p.triple, p.target, dataset);
  out.accepted = x.accepted;
  out.visited = x.visited_candidates;
  if (proxy) out.calls = proxy->Totals();
  out.bytes = kelpie::serve::ExplainResponseLine(
      0, x, sufficient ? p.conversion : std::vector<kelpie::EntityId>{},
      dataset);
  return out;
}

/// Runs every job on kClients threads, in list order, one model's jobs at a
/// time: an extraction then always shares the machine with extractions of
/// its own model.
std::vector<JobResult> RunJobs(
    const std::vector<Job>& jobs,
    const std::vector<std::unique_ptr<kelpie::LinkPredictionModel>>& models,
    const std::vector<ModelKind>& kinds,
    const std::vector<std::vector<Prediction>>& predictions,
    const kelpie::Dataset& dataset, bool timed) {
  std::vector<JobResult> results(jobs.size());
  for (size_t begin = 0, end = 0; begin < jobs.size(); begin = end) {
    end = begin;
    while (end < jobs.size() && jobs[end].model == jobs[begin].model) ++end;
    std::atomic<size_t> next{begin};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, end] {
        host::StartSlicing();
        for (size_t j = next++; j < end; j = next++) {
          const Job& job = jobs[j];
          results[j] = Extract(*models[job.model], dataset,
                               predictions[job.model][job.prediction],
                               job.sufficient, ModelLabel(kinds[job.model]),
                               timed);
        }
        host::StopSlicing();
      });
    }
    for (std::thread& t : clients) t.join();
  }
  return results;
}

}  // namespace

void RunExplain(const Args& args, Report& report) {
  auto& collector = kelpie::trace::Collector::Global();
  collector.Disable();

  // ---- Set-up: dataset, models trained, saved and loaded, sample.
  std::vector<ModelKind> kinds = {ModelKind::kComplEx};
  if (args.trace) kinds.push_back(ModelKind::kConvE);
  const auto setup_start = Clock::now();
  Args input_args = args;
  input_args.seed = kInputSeed;
  TrainedSetup setup =
      SetUpTrained(input_args, kinds, report);
  const kelpie::Dataset& dataset = *setup.dataset;
  report.Layer("datagen.generate_s", setup.generate_s, "s");
  report.Layer("models.load_s", setup.load_s, "s");

  size_t sufficient_counts[] = {
      args.trace ? kTracedComplExPredictions
                 : std::max<size_t>(1, static_cast<size_t>(std::lround(
                                           args.seconds *
                                           kPredictionsPerSecond))),
      kConvEPredictions};
  const auto sample_start = Clock::now();
  std::vector<std::vector<Prediction>> predictions;
  for (size_t i = 0; i < kinds.size(); ++i) {
    // The predictions and their conversion sets are the same for every
    // seed, the seed draws the order of the work list: the extractions'
    // costs per input fact spread over 10x, and with a sample of 40 (what a
    // run holds) drawn per seed, the geometric mean moved by 20% and the
    // tail by 36% between seeds.
    kelpie::Rng rng(ModelSeed(kInputSeed, kinds[i]) ^ 0x5eed);
    predictions.push_back(SamplePredictions(
        *setup.models[i], dataset,
        kNecessaryPerSufficient * sufficient_counts[i], rng));
    report.Op(predictions.back().size() >= sufficient_counts[i],
              "sample " + std::to_string(sufficient_counts[i]) +
                  " predictions of " + ModelLabel(kinds[i]) + " (found " +
                  std::to_string(predictions.back().size()) + ")");
    sufficient_counts[i] =
        std::min(sufficient_counts[i], predictions.back().size());
    if (kinds[i] == ModelKind::kConvE) {
      // The traced run's few ConvE extractions are its cheapest by input
      // size: a ConvE extraction of a hub costs minutes, and the run must
      // end within the benchmark's time limit.
      std::stable_sort(predictions.back().begin(), predictions.back().end(),
                       [](const Prediction& a, const Prediction& b) {
                         return a.source_facts + a.conversion_facts <
                                b.source_facts + b.conversion_facts;
                       });
      predictions.back().resize(sufficient_counts[i]);
    }
  }
  const double sample_s = SecondsSince(sample_start);
  report.EndToEndScaled(
      "setup_s",
      setup.setup_scaled_s +
          sample_s * host::Scale(host::Reference::kCompute),
      setup.setup_s + sample_s, "s");
  report.Note("setup_s = the set-up (dataset, ComplEx trained, saved and "
              "loaded) plus sampling; " +
              std::to_string(SecondsSince(setup_start)) + " s in all");

  // The fixed work list, the most expensive kind first so the clients
  // finish together: sufficient, then necessary, per model, each kind in a
  // seeded order.
  std::vector<Job> jobs;
  kelpie::Rng job_order(args.seed * 31 + 7);
  for (size_t i = 0; i < kinds.size(); ++i) {
    for (bool sufficient : {true, false}) {
      std::vector<Job> kind;
      const size_t n =
          sufficient ? sufficient_counts[i] : predictions[i].size();
      for (size_t p = 0; p < n; ++p) kind.push_back({i, p, sufficient});
      job_order.Shuffle(kind);
      jobs.insert(jobs.end(), kind.begin(), kind.end());
    }
  }

  std::vector<JobResult> untraced;
  if (args.trace) {
    // Tracing overhead and the proxy's byte identity: the same ComplEx
    // work list on the plain model first (the self-test covers ConvE's).
    std::vector<Job> complex_jobs;
    for (const Job& job : jobs) {
      if (job.model == 0) complex_jobs.push_back(job);
    }
    untraced = RunJobs(complex_jobs, setup.models, kinds, predictions,
                       dataset, /*timed=*/false);
    collector.Enable();
  }
  const EngineCounters engine_before = EngineCounters::Read();
  const std::vector<JobResult> results = RunJobs(
      jobs, setup.models, kinds, predictions, dataset, /*timed=*/args.trace);
  const EngineCounters engine_delta = EngineCounters::Read() - engine_before;

  // Extraction times are scaled to the reference host speed in the
  // untraced run (host_speed.h); the raw_ fields keep them unscaled.
  struct PerModel {
    std::vector<double> necessary_s, sufficient_s;
    // Milliseconds per input training fact.
    std::vector<double> necessary_ms, sufficient_ms;
    std::vector<double> necessary_raw_ms, sufficient_raw_ms;
    // Per prediction explained both ways: both extractions' seconds and
    // input facts.
    std::vector<double> prediction_s, prediction_raw_s, prediction_facts;
    double wall_s = 0.0, wall_raw_s = 0.0, untraced_s = 0.0;
    double input_facts = 0.0;
    ModelCallTotals calls;
  };
  std::vector<PerModel> per(kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) {
    per[i].prediction_s.assign(sufficient_counts[i], 0.0);
    per[i].prediction_raw_s.assign(sufficient_counts[i], 0.0);
    per[i].prediction_facts.assign(sufficient_counts[i], 0.0);
  }
  double accepted = 0.0, visited = 0.0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const JobResult& r = results[j];
    const Prediction& p = predictions[job.model][job.prediction];
    const std::string what =
        std::string(job.sufficient ? "sufficient " : "necessary ") +
        ModelLabel(kinds[job.model]) + " " +
        (p.target == PredictionTarget::kTail ? "tail " : "head ") +
        dataset.TripleToString(p.triple);
    report.Op(r.complete, "explain " + what);
    report.Check(r.facts_ok, "explanation facts of " + what);
    if (j < untraced.size()) {
      report.Check(r.bytes == untraced[j].bytes,
                   "extraction through the timing proxy differs: " + what);
    }
    report.digest().Add(r.bytes);
    accepted += r.accepted ? 1.0 : 0.0;
    visited += static_cast<double>(r.visited);
    PerModel& m = per[job.model];
    const double facts =
        job.sufficient ? p.conversion_facts : p.source_facts;
    const double seconds =
        r.seconds *
        (args.trace ? 1.0 : host::LocalScale(host::Reference::kCompute, r.at));
    (job.sufficient ? m.sufficient_s : m.necessary_s).push_back(seconds);
    (job.sufficient ? m.sufficient_ms : m.necessary_ms)
        .push_back(1e3 * seconds / facts);
    (job.sufficient ? m.sufficient_raw_ms : m.necessary_raw_ms)
        .push_back(1e3 * r.seconds / facts);
    if (job.prediction < m.prediction_s.size()) {
      m.prediction_s[job.prediction] += seconds;
      m.prediction_raw_s[job.prediction] += r.seconds;
      m.prediction_facts[job.prediction] += facts;
    }
    m.wall_s += seconds;
    m.wall_raw_s += r.seconds;
    if (j < untraced.size()) m.untraced_s += untraced[j].seconds;
    m.input_facts += facts;
    m.calls += r.calls;
  }

  if (!args.trace) {
    const PerModel& m = per[0];
    const Summary job1 = Summarize(m.necessary_ms);
    const Summary job2 = Summarize(m.sufficient_ms);
    // The typical extraction is the geometric mean: an extraction's search
    // either stops early or visits every candidate, and which one depends on
    // the prediction and its conversion set, so the costs are spread
    // bimodally and their median jumps between seeds.
    report.EndToEndScaled("job1_ms", GeometricMean(m.necessary_ms),
                          GeometricMean(m.necessary_raw_ms), "ms");
    report.EndToEndScaled("job1_tail_ms", job1.tail,
                          Summarize(m.necessary_raw_ms).tail, "ms");
    report.EndToEndScaled("job2_ms", GeometricMean(m.sufficient_ms),
                          GeometricMean(m.sufficient_raw_ms), "ms");
    report.EndToEndScaled("job2_tail_ms", job2.tail,
                          Summarize(m.sufficient_raw_ms).tail, "ms");
    std::vector<double> prediction_ms, prediction_raw_ms;
    for (size_t p = 0; p < m.prediction_s.size(); ++p) {
      prediction_ms.push_back(1e3 * m.prediction_s[p] / m.prediction_facts[p]);
      prediction_raw_ms.push_back(1e3 * m.prediction_raw_s[p] /
                                  m.prediction_facts[p]);
    }
    report.EndToEndScaled("job3_ms", GeometricMean(prediction_ms),
                          GeometricMean(prediction_raw_ms), "ms");
    report.EndToEndScaled("throughput_per_s", m.input_facts / m.wall_s,
                          m.input_facts / m.wall_raw_s, "1/s");
    report.Note("job1 = a necessary extraction of a ComplEx prediction, in "
                "ms per training fact of its source entity; job2 = a "
                "sufficient extraction, in ms per training fact of its "
                "conversion set; job3 = a prediction's two extractions, in ms "
                "per input fact of both; throughput_per_s = input facts per "
                "second of extraction time");
    report.Note(SummaryLine("job1 (ms per source fact)", job1, 1.0, "ms") +
                ", geometric mean " +
                std::to_string(GeometricMean(m.necessary_ms)) + " ms");
    report.Note(SummaryLine("job2 (ms per conversion fact)", job2, 1.0, "ms") +
                ", geometric mean " +
                std::to_string(GeometricMean(m.sufficient_ms)) + " ms");
    report.Note(SummaryLine("necessary (s)", Summarize(m.necessary_s), 1.0,
                            "s"));
    report.Note(SummaryLine("sufficient (s)", Summarize(m.sufficient_s), 1.0,
                            "s"));
    report.Note("ComplEx extractions per second of extraction time: " +
                std::to_string(static_cast<double>(m.necessary_s.size() +
                                                   m.sufficient_s.size()) /
                               m.wall_s));
    return;
  }

  // ---- Per-layer readings (traced run).
  // core.prefilter_s: the Pre-Filter call each extraction makes, timed on
  // its own with the same arguments.
  std::vector<double> prefilter_s(kinds.size(), 0.0);
  for (const Job& job : jobs) {
    const Prediction& p = predictions[job.model][job.prediction];
    kelpie::PreFilter prefilter(dataset, kelpie::PreFilterOptions{});
    kelpie::trace::Span span("bench.core.prefilter");
    const auto start = Clock::now();
    (void)prefilter.MostPromisingFacts(p.triple, p.target);
    prefilter_s[job.model] += SecondsSince(start);
  }
  report.Layer("core.prefilter_s", prefilter_s[0] + prefilter_s[1], "s");

  const double traced_s = per[0].wall_s, untraced_s = per[0].untraced_s;
  for (size_t i = 0; i < kinds.size(); ++i) {
    const std::string m = ModelLabel(kinds[i]);
    const ModelCallTotals& t = per[i].calls;
    const double wall = per[i].wall_s;
    report.Layer("models.post_train_calls." + m,
                 static_cast<double>(t.post_train_calls), "count");
    report.Layer("models.post_train_s." + m, t.post_train_s, "s");
    report.Layer("models.post_train_us." + m,
                 t.post_train_calls > 0
                     ? 1e6 * t.post_train_s /
                           static_cast<double>(t.post_train_calls)
                     : 0.0,
                 "us");
    report.Layer("models.post_train_facts." + m,
                 static_cast<double>(t.post_train_facts), "count");
    report.Layer("eval.rank_sweeps." + m, static_cast<double>(t.sweeps),
                 "count");
    report.Layer("eval.rank_sweep_s." + m, t.sweep_s, "s");
    report.Layer("eval.rows_swept." + m, static_cast<double>(t.rows_swept),
                 "rows");
    const double self_s = wall - t.post_train_s - t.sweep_s;
    report.Layer("core.self_s." + m, self_s, "s");
    report.Layer("explain.post_train_share." + m, t.post_train_s / wall,
                 "share");
    report.Layer("explain.rank_sweep_share." + m, t.sweep_s / wall, "share");
    report.Layer("explain.prefilter_share." + m, prefilter_s[i] / wall,
                 "share");
    report.Layer("explain.core_self_share." + m, self_s / wall, "share");
    report.Layer("explain.necessary_p50_s." + m, Median(per[i].necessary_s),
                 "s");
    report.Layer("explain.sufficient_p50_s." + m, Median(per[i].sufficient_s),
                 "s");
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s extraction time %.3f s: models.post_train_s %.1f%%, "
                  "eval.rank_sweep_s %.1f%%, core.self_s %.1f%% (of which "
                  "core.prefilter_s %.2f%%)",
                  m.c_str(), wall, 100.0 * t.post_train_s / wall,
                  100.0 * t.sweep_s / wall, 100.0 * self_s / wall,
                  100.0 * prefilter_s[i] / wall);
    report.Note(line);
  }
  report.Layer("trace.overhead_share", (traced_s - untraced_s) / untraced_s,
               "share");
  report.Layer("core.candidates_visited", visited, "count");
  report.Layer("core.accepted_share",
               accepted / static_cast<double>(results.size()), "share");
  engine_delta.Report(report);
}

}  // namespace perfbench
