// Kelpie repository benchmark: one workload per process.
//
//   perfbench --workload train|explain|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--expect-digest HEX]
//
// Prints human-readable notes, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (names
// as listed in BENCHMARK.json). perfbench/run.py builds this binary and is
// the entry point to use.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"ok_share", "share"},     {"job1_ms", "ms"},
    {"job1_tail_ms", "ms"},    {"job2_ms", "ms"},
    {"job2_tail_ms", "ms"},    {"job3_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"datagen.generate_s", "s"},
    {"models.load_s", "s"},
    {"models.train_s.complex", "s"},
    {"models.train_s.conve", "s"},
    {"ml.epoch_s.complex", "s"},
    {"ml.epoch_s.conve", "s"},
    {"ml.epochs.complex", "count"},
    {"ml.epochs.conve", "count"},
    {"models.rows_swept.complex", "rows-computed"},
    {"models.rows_swept.conve", "rows-computed"},
    {"ml.recoveries", "count"},
    {"eval.evaluate_s.complex", "s"},
    {"eval.evaluate_s.conve", "s"},
    {"eval.ranks", "count"},
    {"eval.rank_us", "us"},
    {"models.post_train_calls.complex", "count"},
    {"models.post_train_calls.conve", "count"},
    {"models.post_train_s.complex", "s"},
    {"models.post_train_s.conve", "s"},
    {"models.post_train_us.complex", "us"},
    {"models.post_train_us.conve", "us"},
    {"models.post_train_facts.complex", "count"},
    {"models.post_train_facts.conve", "count"},
    {"eval.rank_sweeps.complex", "count"},
    {"eval.rank_sweeps.conve", "count"},
    {"eval.rank_sweep_s.complex", "s"},
    {"eval.rank_sweep_s.conve", "s"},
    {"eval.rows_swept.complex", "rows"},
    {"eval.rows_swept.conve", "rows"},
    {"core.prefilter_s", "s"},
    {"core.self_s.complex", "s"},
    {"core.self_s.conve", "s"},
    {"core.post_trainings.homologous", "count"},
    {"core.post_trainings.necessary", "count"},
    {"core.post_trainings.sufficient", "count"},
    {"core.rank_cache_hit_ratio", "ratio"},
    {"core.candidates_visited", "count"},
    {"core.work_units", "count"},
    {"core.accepted_share", "share"},
    {"core.diverged", "count"},
    {"explain.post_train_share.complex", "share"},
    {"explain.post_train_share.conve", "share"},
    {"explain.rank_sweep_share.complex", "share"},
    {"explain.rank_sweep_share.conve", "share"},
    {"explain.prefilter_share.complex", "share"},
    {"explain.prefilter_share.conve", "share"},
    {"explain.core_self_share.complex", "share"},
    {"explain.core_self_share.conve", "share"},
    {"explain.necessary_p50_s.complex", "s"},
    {"explain.necessary_p50_s.conve", "s"},
    {"explain.sufficient_p50_s.complex", "s"},
    {"explain.sufficient_p50_s.conve", "s"},
    {"serve.score_p50_ms", "ms"},
    {"serve.score_tail_ms", "ms"},
    {"serve.score_max_rate", "1/s"},
    {"serve.mixed_score_ms.p50", "ms"},
    {"serve.mixed_score_ms.tail", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.tail", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.execute_us.score", "us"},
    {"serve.inproc_score_us", "us"},
    {"serve.tcp_overhead_us", "us"},
    {"serve.execute_ms.explain", "ms"},
    {"core.relevance_cache_hit_ratio", "ratio"},
    {"core.relevance_cache_bytes", "bytes"},
    {"serve.requests.ok", "count"},
    {"serve.requests.shed", "count"},
    {"serve.requests.deadline", "count"},
    {"serve.requests.error", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.repeat_share", "share"},
    {"trace.overhead_share", "share"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|explain|serve --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--expect-digest HEX]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--expect-digest") {
      args.expect_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.work_dir.empty()) Usage("--work-dir is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

void PrintResult(const Args& args, const Report& report) {
  for (const std::string& note : report.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# digest %016" PRIx64 "\n", report.digest().value());
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  const uint64_t attempted = std::max<uint64_t>(report.attempted(), 1);
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " +
          std::to_string(std::min(report.failed(), attempted));
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name, double value, const std::string& unit) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(name) +
            "\": {\"value\": " + kelpie::metrics::FormatDouble(value) +
            ", \"unit\": \"" + unit + "\"}";
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      auto it = report.layer().find(spec.name);
      // A layer the workload does not exercise did no work: 0.
      emit(spec.name, it == report.layer().end() ? 0.0 : it->second.value,
           spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      auto it = report.e2e().find(spec.name);
      KELPIE_CHECK(it != report.e2e().end())
          << "workload did not report " << spec.name;
      emit(spec.name, it->second.value, spec.unit);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  if (args.trace) kelpie::trace::Collector::Global().Enable();
  perfbench::host::Enable(!args.trace);

  Report report;
  if (args.workload == "train") {
    perfbench::RunTrain(args, report);
  } else if (args.workload == "explain") {
    perfbench::RunExplain(args, report);
  } else if (args.workload == "serve") {
    perfbench::RunServe(args, report);
  } else {
    Usage("unknown workload");
  }

  if (!args.expect_digest.empty()) {
    char actual[32];
    std::snprintf(actual, sizeof(actual), "%016" PRIx64,
                  report.digest().value());
    report.Op(true, "digest");
    report.Check(args.expect_digest == actual,
                 "output digest " + std::string(actual) + " != expected " +
                     args.expect_digest);
  }
  perfbench::host::StopLoopback();
  report.Note(perfbench::host::Note());
  if (!args.trace) {
    report.Note("unscaled:" + report.unscaled());
    const double attempted =
        static_cast<double>(std::max<uint64_t>(report.attempted(), 1));
    const double failed = static_cast<double>(
        std::min<uint64_t>(report.failed(), report.attempted()));
    report.EndToEnd("ok_share", (attempted - failed) / attempted, "share");
    report.EndToEnd("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  } else {
    perfbench::WriteTrace(args.work_dir + "/trace.json");
  }
  PrintResult(args, report);
  std::fflush(stdout);
  return 0;
}
