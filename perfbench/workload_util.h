// Helpers shared by the workloads: model seeds and labels, output checks,
// and the set-up step that trains and saves the models a workload serves
// or explains.
#ifndef KELPIE_PERFBENCH_WORKLOAD_UTIL_H_
#define KELPIE_PERFBENCH_WORKLOAD_UTIL_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "core/explanation.h"
#include "models/factory.h"

namespace perfbench {

/// "complex" / "conve": the suffix of per-model metric names.
std::string ModelLabel(kelpie::ModelKind kind);

/// Training seed of `kind` under workload seed `seed`.
uint64_t ModelSeed(uint64_t seed, kelpie::ModelKind kind);

/// Every entity row, and every score of a sweep per test query, is finite.
bool ModelIsFinite(const kelpie::LinkPredictionModel& model,
                   const kelpie::Dataset& dataset);

/// The model's serialized parameters.
std::string ParameterBytes(const kelpie::LinkPredictionModel& model);

/// Every fact of `x` is a training fact featuring the prediction's source
/// entity.
bool FactsAreSourceTrainingFacts(const kelpie::Explanation& x,
                                 const kelpie::Triple& prediction,
                                 kelpie::PredictionTarget target,
                                 const kelpie::Dataset& dataset);

/// "name: p50 X unit, tail (pQ of N) Y unit" with values scaled by `scale`.
std::string SummaryLine(const std::string& name, const Summary& s,
                        double scale, const std::string& unit);

/// The dataset and the trained models a workload explains or serves.
struct TrainedSetup {
  std::unique_ptr<kelpie::Dataset> dataset;
  /// The models as loaded back from their files, in the order of `kinds`.
  std::vector<std::unique_ptr<kelpie::LinkPredictionModel>> models;
  /// Seconds of the whole set-up (unscaled, and scaled to the reference
  /// host speed), of dataset generation, and of loading the model files.
  double setup_s = 0.0;
  double setup_scaled_s = 0.0;
  double generate_s = 0.0;
  double load_s = 0.0;
};

/// Generates the dataset, trains each kind at its default config (one
/// thread per model), saves it under `work_dir` and loads it back the way
/// the CLI does. Counts each training as an operation with its checks.
TrainedSetup SetUpTrained(const Args& args,
                          const std::vector<kelpie::ModelKind>& kinds,
                          Report& report);

/// The Relevance Engine's and builder's exported counters, read together so
/// a workload can report deltas.
struct EngineCounters {
  uint64_t homologous = 0, necessary = 0, sufficient = 0;
  uint64_t hit = 0, miss = 0, wait = 0;
  uint64_t diverged = 0, work_units = 0;

  static EngineCounters Read();
  EngineCounters operator-(const EngineCounters& before) const;
  /// Writes the core.* layer metrics of this delta.
  void Report(perfbench::Report& report) const;
};

/// Path of the saved model of `kind` written by SetUpTrained.
std::string ModelPath(const Args& args, kelpie::ModelKind kind);

}  // namespace perfbench

#endif  // KELPIE_PERFBENCH_WORKLOAD_UTIL_H_
