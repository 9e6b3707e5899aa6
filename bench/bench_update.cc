// Benchmark of incremental KG updates (DESIGN.md §16): wall time of
// `kelpie update` (ApplyKgUpdate, bounded post-training of the affected
// rows only) against retraining from scratch on the same updated graph.
//
// With --json=PATH a machine-readable summary (BENCH_update.json in CI) is
// written. It is compared report-only against bench/baseline.json — the
// gate (tools/bench_compare.py --fail-below) covers only the
// kernel/sweep/warm-cache ratio sections.
#include "bench/bench_util.h"

#include <cstdint>
#include <string>
#include <vector>

#include "xp/update.h"

namespace {

using namespace kelpie;
using namespace kelpie::bench;

struct UpdateTiming {
  std::string name;  // "incremental_update" | "full_retrain"
  std::string model;
  size_t affected = 0;
  double ms = 0.0;
  double speedup_vs_retrain = 1.0;
};

/// A delta touching a handful of entities: remove the first `k` training
/// triples with distinct heads, and for each removed head add one novel
/// fact with the same relation but a previously-unseen tail.
xp::KgDelta MakeDelta(const Dataset& dataset, size_t k) {
  xp::KgDelta delta;
  std::vector<bool> head_used(dataset.num_entities(), false);
  for (const Triple& t : dataset.train()) {
    if (delta.remove.size() >= k) break;
    if (head_used[static_cast<size_t>(t.head)]) continue;
    head_used[static_cast<size_t>(t.head)] = true;
    delta.remove.push_back(t);
    for (size_t tail = 0; tail < dataset.num_entities(); ++tail) {
      Triple candidate(t.head, t.relation, static_cast<EntityId>(tail));
      if (!dataset.IsKnown(candidate)) {
        delta.add.push_back(candidate);
        break;
      }
    }
  }
  return delta;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseArgs(argc, argv);
  Dataset dataset = MakeBenchmark(BenchmarkDataset::kFb15k237,
                                  options.dataset_scale(), options.seed);
  std::printf("update bench: %s (%zu entities, %zu train facts)\n",
              dataset.name().c_str(), dataset.num_entities(),
              dataset.train().size());

  // Incremental update vs full retrain, on ComplEx (RowAdagrad on both
  // embedding tables).
  const ModelKind kind = ModelKind::kComplEx;
  const xp::KgDelta delta = MakeDelta(dataset, /*k=*/8);
  auto model = CreateAndTrain(kind, dataset, options.seed + 1);

  xp::UpdateOptions update_options;
  update_options.seed = options.seed + 2;
  Stopwatch timer;
  Result<xp::UpdateReport> report =
      xp::ApplyKgUpdate(*model, dataset, delta, update_options);
  const double incremental_ms = timer.ElapsedSeconds() * 1e3;
  if (!report.ok()) {
    std::fprintf(stderr, "[bench] update failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  const Dataset updated =
      dataset.WithModifiedTraining(delta.remove, delta.add);
  timer.Restart();
  auto retrained = CreateAndTrain(kind, updated, options.seed + 1);
  const double retrain_ms = timer.ElapsedSeconds() * 1e3;

  std::vector<UpdateTiming> update_timings;
  UpdateTiming inc;
  inc.name = "incremental_update";
  inc.model = std::string(ModelKindName(kind));
  inc.affected = report->affected.size();
  inc.ms = incremental_ms;
  inc.speedup_vs_retrain =
      incremental_ms > 0.0 ? retrain_ms / incremental_ms : 0.0;
  update_timings.push_back(inc);
  UpdateTiming full;
  full.name = "full_retrain";
  full.model = inc.model;
  full.affected = dataset.num_entities();
  full.ms = retrain_ms;
  update_timings.push_back(full);

  std::printf("\nIncremental update vs full retrain (%s, %zu affected)\n\n",
              inc.model.c_str(), inc.affected);
  PrintRow({"Path", "Rows", "ms", "speedup"}, 20);
  PrintRule(4, 20);
  for (const UpdateTiming& u : update_timings) {
    PrintRow({u.name, std::to_string(u.affected), FormatDouble(u.ms, 1),
              FormatDouble(u.speedup_vs_retrain, 1) + "x"},
             20);
  }

  if (!options.json_path.empty()) {
    std::FILE* f = std::fopen(options.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[bench] cannot open %s for writing\n",
                   options.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"update\": [\n");
    for (size_t i = 0; i < update_timings.size(); ++i) {
      const UpdateTiming& u = update_timings[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"model\": \"%s\", "
                   "\"affected\": %zu, \"ms\": %.1f, "
                   "\"speedup_vs_retrain\": %.1f}%s\n",
                   u.name.c_str(), u.model.c_str(), u.affected, u.ms,
                   u.speedup_vs_retrain,
                   i + 1 < update_timings.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
