#include "workload_util.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "datagen/datasets.h"
#include "models/model_store.h"

namespace perfbench {

std::string ModelLabel(kelpie::ModelKind kind) {
  return kind == kelpie::ModelKind::kComplEx ? "complex" : "conve";
}

uint64_t ModelSeed(uint64_t seed, kelpie::ModelKind kind) {
  return seed * 1000003ull + static_cast<uint64_t>(kind) + 1;
}

bool ModelIsFinite(const kelpie::LinkPredictionModel& model,
                   const kelpie::Dataset& dataset) {
  for (size_t e = 0; e < model.num_entities(); ++e) {
    for (float v : model.EntityEmbedding(static_cast<kelpie::EntityId>(e))) {
      if (!std::isfinite(v)) return false;
    }
  }
  std::vector<float> scores(model.num_entities());
  for (const kelpie::Triple& t : dataset.test()) {
    model.ScoreAllTails(t.head, t.relation, scores);
    for (float v : scores) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

std::string ParameterBytes(const kelpie::LinkPredictionModel& model) {
  std::ostringstream out;
  kelpie::Status saved = model.SaveParameters(out);
  return saved.ok() ? out.str() : std::string();
}

bool FactsAreSourceTrainingFacts(const kelpie::Explanation& x,
                                 const kelpie::Triple& prediction,
                                 kelpie::PredictionTarget target,
                                 const kelpie::Dataset& dataset) {
  const kelpie::EntityId source = kelpie::SourceEntity(prediction, target);
  std::unordered_set<uint64_t> train;
  for (const kelpie::Triple& t : dataset.train()) train.insert(t.Key());
  for (const kelpie::Triple& f : x.facts) {
    if (train.count(f.Key()) == 0) return false;
    if (f.head != source && f.tail != source) return false;
  }
  return true;
}

std::string SummaryLine(const std::string& name, const Summary& s,
                        double scale, const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: p50 %.6g %s, tail p%g %.6g %s (n=%zu)", name.c_str(),
                s.p50 * scale, unit.c_str(), 100.0 * s.tail_q, s.tail * scale,
                unit.c_str(), s.count);
  return line;
}

EngineCounters EngineCounters::Read() {
  const char* pt = "kelpie_engine_post_trainings_total";
  const char* rc = "kelpie_engine_rank_cache_total";
  EngineCounters c;
  c.homologous = CounterValue(pt, {{"kind", "homologous"}});
  c.necessary = CounterValue(pt, {{"kind", "necessary"}});
  c.sufficient = CounterValue(pt, {{"kind", "sufficient"}});
  c.hit = CounterValue(rc, {{"event", "hit"}});
  c.miss = CounterValue(rc, {{"event", "miss"}});
  c.wait = CounterValue(rc, {{"event", "wait"}});
  c.diverged = CounterTotal("kelpie_engine_diverged_post_trainings_total");
  c.work_units = CounterTotal("kelpie_builder_committed_work_units_total");
  return c;
}

EngineCounters EngineCounters::operator-(const EngineCounters& b) const {
  EngineCounters d;
  d.homologous = homologous - b.homologous;
  d.necessary = necessary - b.necessary;
  d.sufficient = sufficient - b.sufficient;
  d.hit = hit - b.hit;
  d.miss = miss - b.miss;
  d.wait = wait - b.wait;
  d.diverged = diverged - b.diverged;
  d.work_units = work_units - b.work_units;
  return d;
}

void EngineCounters::Report(perfbench::Report& report) const {
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  report.Layer("core.post_trainings.homologous", count(homologous), "count");
  report.Layer("core.post_trainings.necessary", count(necessary), "count");
  report.Layer("core.post_trainings.sufficient", count(sufficient), "count");
  const uint64_t lookups = hit + miss + wait;
  report.Layer("core.rank_cache_hit_ratio",
               lookups > 0 ? count(hit) / count(lookups) : 0.0, "ratio");
  report.Layer("core.diverged", count(diverged), "count");
  report.Layer("core.work_units", count(work_units), "count");
}

std::string ModelPath(const Args& args, kelpie::ModelKind kind) {
  return args.work_dir + "/" + ModelLabel(kind) + ".model";
}

namespace {

/// Trains, saves and loads each kind on `dataset`; adds the load time to
/// `load_s`.
std::vector<std::unique_ptr<kelpie::LinkPredictionModel>> TrainSaveLoad(
    const Args& args, const kelpie::Dataset& dataset,
    const std::vector<kelpie::ModelKind>& kinds, Report& report,
    double* load_s) {
  std::vector<std::unique_ptr<kelpie::LinkPredictionModel>> trained;
  std::vector<kelpie::Status> status(kinds.size());
  for (kelpie::ModelKind kind : kinds) {
    trained.push_back(kelpie::CreateModel(
        kind, dataset, kelpie::DefaultConfig(kind, dataset)));
  }
  auto train = [&](size_t i) {
    kelpie::Rng rng(ModelSeed(args.seed, kinds[i]));
    status[i] = trained[i]->Train(dataset, rng);
  };
  if (kinds.size() == 1) {
    train(0);  // on the calling thread, whose host slices time the set-up
  } else {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kinds.size(); ++i) threads.emplace_back(train, i);
    for (std::thread& t : threads) t.join();
  }

  std::vector<std::unique_ptr<kelpie::LinkPredictionModel>> loaded;
  for (size_t i = 0; i < kinds.size(); ++i) {
    const std::string m = ModelLabel(kinds[i]);
    report.Op(status[i].ok() && trained[i]->last_train_report().completeness ==
                                    kelpie::Completeness::kComplete,
              "train " + m + ": " + status[i].ToString());
    report.Check(ModelIsFinite(*trained[i], dataset),
                 "train " + m + ": non-finite parameters or scores");
    const std::string bytes = ParameterBytes(*trained[i]);
    report.digest().Add(bytes);
    kelpie::Status saved =
        kelpie::SaveModel(*trained[i], kinds[i], ModelPath(args, kinds[i]));
    const auto start = Clock::now();
    auto model = kelpie::LoadModel(ModelPath(args, kinds[i]));
    *load_s += SecondsSince(start);
    const bool ok =
        saved.ok() && model.ok() && ParameterBytes(**model) == bytes;
    report.Check(ok, "model file round trip " + m);
    loaded.push_back(ok ? std::move(model).value() : std::move(trained[i]));
  }
  return loaded;
}

}  // namespace

TrainedSetup SetUpTrained(const Args& args,
                          const std::vector<kelpie::ModelKind>& kinds,
                          Report& report) {
  TrainedSetup out;
  host::StartSlicing();
  const host::OpTimer timer;
  out.dataset = std::make_unique<kelpie::Dataset>(kelpie::MakeBenchmark(
      kelpie::BenchmarkDataset::kFb15k237, kDatasetScale, args.seed));
  out.generate_s = timer.Seconds();
  out.models = TrainSaveLoad(args, *out.dataset, kinds, report, &out.load_s);
  out.setup_s = timer.Seconds();
  host::StopSlicing();
  out.setup_scaled_s =
      out.setup_s * host::LocalScale(host::Reference::kCompute, timer.Done());
  return out;
}

}  // namespace perfbench
