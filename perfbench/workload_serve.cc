// `serve` workload: an in-process serve::Server (pool 2) behind
// serve::TcpServer on loopback, with a relevance-cache file and a ComplEx
// model trained and saved in set-up. One generator thread drives it over
// two connections with a fixed schedule:
//   1. rounds of score requests: at three fixed offered rates in an open
//      loop, and in a closed loop (one request in flight per connection);
//   2. a mixed phase: scores at the lowest rate plus necessary explains at a
//      fixed rate, a fixed share of which repeat an earlier prediction of
//      the run (cache reads); the rest are new (post-train, cache writes);
//   3. more closed-loop score rounds.
// Open-loop latency is timed from each request's due time. The end-to-end
// metrics are the closed-loop score round trip and rate (the front end,
// queue and batching), the mixed phase's explain latency, and its score
// latency under that explain load; the fixed-rate score readings are
// per-layer (see README.md for why). The dataset and the model are those of
// kInputSeed whatever the workload seed, as in the explain workload; the
// seed draws the schedule and the predictions.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "bench_common.h"
#include "common/trace.h"
#include "core/kelpie.h"
#include "core/relevance_cache.h"
#include "load_client.h"
#include "serve/line_protocol.h"
#include "serve/server.h"
#include "serve/tcp_server.h"
#include "workload_util.h"

namespace perfbench {

namespace {

using kelpie::ModelKind;

/// Offered score rates (requests per second), ascending, each >= 2x the
/// previous. The lowest is well under the front end's capacity, and low
/// enough that scores sharing the mixed phase with explains are not shed.
constexpr double kScoreRates[] = {250.0, 1000.0, 4000.0};
/// Index of the middle rate, whose latencies are score_p50_ms and
/// score_tail_ms.
constexpr size_t kMiddleRate = 1;
/// Latency limit of the score tail at which a rate counts as sustained.
constexpr double kScoreLimitS = 1e-3;
/// Each rate runs in this many rounds of kScoreSamples requests, the rounds
/// of all rates interleaved. A round's tail is its p95 (15 samples beyond);
/// a rate's tail is the median over its rounds, so one scheduling stall of
/// the host does not decide it.
constexpr size_t kScoreRounds = 3;
constexpr size_t kScoreSamples = 300;
/// Each round also runs a round of kClosedScores scores in a closed loop,
/// so does each mixed round, and kClosedRoundsAfter more follow the mixed
/// phase. A closed round's tail is its p95 (20 beyond); the figures are
/// medians over all closed rounds, which are spread over the run so that a
/// host stall of a few seconds does not decide them.
constexpr size_t kClosedScores = 400;
constexpr size_t kClosedRoundsAfter = 8;
/// The mixed phase runs in this many rounds, each followed by a closed
/// score round, so that the host's speed is read across it.
constexpr size_t kMixedRounds = 4;
/// After the mixed phase, kRepeatRounds closed-loop rounds of necessary
/// explains of every new prediction the mixed phase explained:
/// relevance-cache reads through the front end.
constexpr size_t kRepeatRounds = 4;
/// Necessary explains per second in the mixed phase.
constexpr double kExplainRate = 8.0;
/// Share of the mixed phase's explains that repeat an earlier prediction.
constexpr double kRepeatShare = 0.25;
/// A repeat only picks predictions due at least this long before it, so it
/// reads a finished cache entry instead of waiting on one in flight.
constexpr double kRepeatMinAgeS = 1.5;
/// Seconds of --seconds left for the closed-loop score rounds.
constexpr double kClosedReserveS = 1.0;
constexpr size_t kConnections = 2;
/// Seconds a phase may run past its last due time to collect responses.
constexpr double kDrainS = 20.0;
/// Closed-loop in-process score calls for serve.inproc_score_us.
constexpr size_t kInprocCalls = 2000;

enum class Kind { kScore, kExplain };

struct Request {
  Kind kind = Kind::kScore;
  kelpie::Triple triple;
  bool repeat = false;
};

struct Phase {
  std::vector<Request> requests;
  std::vector<PlannedRequest> plan;
  /// Index into kScoreRates of a fixed-rate score phase; the other phases
  /// have none.
  std::optional<size_t> rate;
  /// A closed-loop phase instead of one on the due times.
  bool closed = false;
  /// A mixed-phase round, or a closed round of repeated explains.
  bool mixed = false;
  bool repeats = false;
};

/// Appends the first `count` of `requests`, evenly spaced at `rate`, to
/// `phase`.
void AddStream(Phase& phase, double rate, size_t count,
               const std::vector<Request>& requests) {
  for (size_t i = 0; i < count; ++i) {
    PlannedRequest p;
    p.due_s = (static_cast<double>(i) + 0.5) / rate;
    phase.plan.push_back(p);
    phase.requests.push_back(requests[i]);
  }
}

/// Sorts a phase by due time, assigns connections round-robin and ids.
void Finalize(Phase& phase, const kelpie::Dataset& dataset, uint64_t* next_id) {
  std::vector<size_t> idx(phase.plan.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return phase.plan[a].due_s < phase.plan[b].due_s;
  });
  Phase sorted;
  for (size_t k = 0; k < idx.size(); ++k) {
    PlannedRequest p = phase.plan[idx[k]];
    const Request& r = phase.requests[idx[k]];
    p.connection = k % kConnections;
    const uint64_t id = (*next_id)++;
    p.line = r.kind == Kind::kScore ? ScoreRequestLine(id, dataset, r.triple)
                                    : ExplainRequestLine(id, dataset, r.triple);
    sorted.plan.push_back(std::move(p));
    sorted.requests.push_back(r);
  }
  phase = std::move(sorted);
}

/// Fresh predictions of `model`: for training facts with distinct heads,
/// the best-scoring tail of (head, relation) that is not a known fact. The
/// heads' degree is at most the 75th percentile: a hub's explain holds a
/// dispatcher for up to seconds, and with both held the scores queued
/// behind them overflow the queue bound and are shed (see README.md).
std::vector<kelpie::Triple> NewPredictions(
    const kelpie::LinkPredictionModel& model, const kelpie::Dataset& dataset,
    size_t count, kelpie::Rng& rng) {
  std::vector<double> degrees;
  for (size_t e = 0; e < dataset.num_entities(); ++e) {
    const size_t d =
        dataset.train_graph().Degree(static_cast<kelpie::EntityId>(e));
    if (d > 0) degrees.push_back(static_cast<double>(d));
  }
  std::sort(degrees.begin(), degrees.end());
  const double max_degree = Quantile(degrees, 0.75);
  std::vector<kelpie::Triple> facts = dataset.train();
  rng.Shuffle(facts);
  std::vector<kelpie::Triple> out;
  std::vector<uint64_t> seen;
  std::vector<float> scores(dataset.num_entities());
  for (const kelpie::Triple& f : facts) {
    if (out.size() >= count) break;
    if (static_cast<double>(dataset.train_graph().Degree(f.head)) >
        max_degree) {
      continue;
    }
    // One prediction per source entity: concurrent explains of one entity
    // would share (and wait on) each other's post-trainings.
    const uint64_t key = static_cast<uint64_t>(f.head);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    model.ScoreAllTails(f.head, f.relation, scores);
    const auto& known = dataset.KnownTails(f.head, f.relation);
    kelpie::EntityId best = kelpie::kNoEntity;
    for (size_t e = 0; e < scores.size(); ++e) {
      const auto id = static_cast<kelpie::EntityId>(e);
      if (id == f.head || known.count(id) > 0) continue;
      if (best == kelpie::kNoEntity || scores[e] > scores[best]) best = id;
    }
    if (best != kelpie::kNoEntity) out.emplace_back(f.head, f.relation, best);
  }
  return out;
}

bool IsOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

struct PhaseOutcome {
  std::vector<double> ok_latency_s;  // due-time order, answered ok only
  std::vector<double> round_trip_s;
  size_t failed = 0;
  double achieved_rate = 0.0;
};

/// Checks every response of a phase against the in-process expectation and
/// counts each request as an operation.
PhaseOutcome CheckPhase(const Phase& phase, const PhaseTimings& t,
                   const std::vector<std::string>& expected, Kind kind,
                   Report& report) {
  PhaseOutcome out;
  double first_due = 1e300, last_done = 0.0;
  size_t ok_count = 0;
  for (size_t i = 0; i < phase.plan.size(); ++i) {
    if (phase.requests[i].kind != kind) continue;
    const bool answered = t.latency_s[i] >= 0.0;
    const bool ok = answered && IsOk(t.response[i]);
    report.Op(ok, "request " + phase.plan[i].line + " -> " +
                      (answered ? t.response[i] : "no response"));
    if (ok) {
      report.Check(t.response[i] == expected[i],
                   "served bytes differ from in-process for " +
                       phase.plan[i].line);
    }
    if (!ok || t.response[i] != expected[i]) {
      ++out.failed;
      continue;
    }
    ++ok_count;
    out.ok_latency_s.push_back(t.latency_s[i]);
    out.round_trip_s.push_back(t.round_trip_s[i]);
    first_due = std::min(first_due, phase.plan[i].due_s);
    last_done =
        std::max(last_done, phase.plan[i].due_s + t.latency_s[i]);
  }
  if (ok_count > 1 && last_done > first_due) {
    out.achieved_rate = static_cast<double>(ok_count) / (last_done - first_due);
  }
  return out;
}

/// "a b c" of `v` in ascending order.
std::string SortedList(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::string out;
  for (double x : v) out += (out.empty() ? "" : " ") + std::to_string(x);
  return out;
}

}  // namespace

void RunServe(const Args& args, Report& report) {
  auto& collector = kelpie::trace::Collector::Global();
  collector.Disable();

  // ---- Set-up: dataset, trained + saved ComplEx, schedule, cache, server,
  // client.
  Args input_args = args;
  input_args.seed = kInputSeed;
  TrainedSetup setup =
      SetUpTrained(input_args, {ModelKind::kComplEx}, report);
  const auto setup_start = Clock::now();
  const kelpie::Dataset& dataset = *setup.dataset;
  const kelpie::LinkPredictionModel& model = *setup.models[0];
  report.Layer("datagen.generate_s", setup.generate_s, "s");

  // The fixed schedule, drawn from the seed.
  kelpie::Rng rng(args.seed * 7919 + 17);
  auto random_fact = [&] {
    const auto& train = dataset.train();
    return train[rng.UniformUint64(train.size())];
  };
  auto score_requests = [&](size_t n) {
    std::vector<Request> scores(n);
    for (Request& r : scores) r.triple = random_fact();
    return scores;
  };
  uint64_t next_id = 1;
  auto closed_round = [&] {
    Phase closed;
    AddStream(closed, 1.0, kClosedScores, score_requests(kClosedScores));
    Finalize(closed, dataset, &next_id);
    closed.closed = true;
    return closed;
  };
  double scores_s = 0.0;
  std::vector<Phase> phases;
  for (size_t round = 0; round < kScoreRounds; ++round) {
    for (size_t k = 0; k < std::size(kScoreRates); ++k) {
      Phase phase;
      AddStream(phase, kScoreRates[k], kScoreSamples,
                score_requests(kScoreSamples));
      Finalize(phase, dataset, &next_id);
      phase.rate = k;
      phases.push_back(std::move(phase));
      scores_s += kScoreSamples / kScoreRates[k];
    }
    phases.push_back(closed_round());
  }
  const double mixed_s =
      std::max(1.0, args.seconds - scores_s - kClosedReserveS);
  size_t repeats = 0, explains = 0;
  std::vector<kelpie::Triple> explained_fresh;
  {
    const size_t n_scores = static_cast<size_t>(kScoreRates[0] * mixed_s);
    const std::vector<Request> scores = score_requests(n_scores);
    const size_t n_explains = static_cast<size_t>(kExplainRate * mixed_s);
    // The explains (new predictions in order, and which repeat) are the
    // same for every seed, as in the explain workload: an explain's cost
    // varies 100x with the prediction, and with the explains drawn per
    // seed their median spread by 19% over ten seeds. The seed draws the
    // score requests.
    kelpie::Rng explain_rng(kInputSeed * 7919 + 17);
    const std::vector<kelpie::Triple> fresh =
        NewPredictions(model, dataset, n_explains, explain_rng);
    report.Op(!fresh.empty(), "predictions to explain");
    if (fresh.empty()) return;
    std::vector<Request> explain_requests;
    size_t next_fresh = 0;
    for (size_t j = 0; j < n_explains; ++j) {
      Request r;
      r.kind = Kind::kExplain;
      const double due = (static_cast<double>(j) + 0.5) / kExplainRate;
      const size_t eligible = static_cast<size_t>(std::max(
          0.0, std::floor((due - kRepeatMinAgeS) * kExplainRate + 0.5)));
      const bool want_repeat = explain_rng.UniformDouble() < kRepeatShare;
      const bool can_repeat = std::min(eligible, j) > 0;
      if (can_repeat && (want_repeat || next_fresh >= fresh.size())) {
        r.triple = explain_requests[explain_rng.UniformUint64(
                                        std::min(eligible, j))]
                       .triple;
        r.repeat = true;
        ++repeats;
      } else if (next_fresh < fresh.size()) {
        r.triple = fresh[next_fresh++];
      } else {
        r.triple = fresh.back();  // the pool ran out: ask again
        r.repeat = true;
        ++repeats;
      }
      explain_requests.push_back(r);
    }
    explains = explain_requests.size();
    explained_fresh.assign(fresh.begin(), fresh.begin() + next_fresh);
    // One schedule over mixed_s, cut into rounds by due time: a repeat's
    // prediction is due at least kRepeatMinAgeS before it, in its own round
    // or an earlier (finished) one.
    const double round_s = mixed_s / kMixedRounds;
    for (size_t r = 0; r < kMixedRounds; ++r) {
      Phase phase;
      auto add = [&](double rate, const std::vector<Request>& stream) {
        for (size_t i = 0; i < stream.size(); ++i) {
          const double due = (static_cast<double>(i) + 0.5) / rate;
          if (due < r * round_s || due >= (r + 1) * round_s) continue;
          PlannedRequest p;
          p.due_s = due - r * round_s;
          phase.plan.push_back(p);
          phase.requests.push_back(stream[i]);
        }
      };
      add(kScoreRates[0], scores);
      add(kExplainRate, explain_requests);
      Finalize(phase, dataset, &next_id);
      phase.mixed = true;
      phases.push_back(std::move(phase));
      phases.push_back(closed_round());
    }
  }
  for (size_t c = 0; c < kClosedRoundsAfter; ++c) {
    phases.push_back(closed_round());
    if (c % (kClosedRoundsAfter / kRepeatRounds) != 0) continue;
    std::vector<Request> again(explained_fresh.size());
    for (size_t i = 0; i < again.size(); ++i) {
      again[i].kind = Kind::kExplain;
      again[i].triple = explained_fresh[i];
      again[i].repeat = true;
    }
    Phase phase;
    AddStream(phase, 1.0, again.size(), again);
    Finalize(phase, dataset, &next_id);
    phase.closed = true;
    phase.repeats = true;
    phases.push_back(std::move(phase));
  }
  kelpie::serve::ServerOptions options;
  options.pool_size = 2;
  kelpie::RelevanceCacheOptions cache_options;
  cache_options.path = args.work_dir + "/relevance.cache";
  std::filesystem::remove(cache_options.path);  // every run starts cold
  cache_options.fingerprint =
      kelpie::ComputeModelFingerprint(model, options.kelpie.engine.seed);
  std::shared_ptr<kelpie::RelevanceCache> cache =
      kelpie::RelevanceCache::Open(cache_options);
  options.kelpie.engine.relevance_cache = cache;
  const auto pool_start = Clock::now();
  auto server = kelpie::serve::Server::Create(
      ModelPath(args, ModelKind::kComplEx), dataset, options);
  report.Layer("models.load_s", setup.load_s + SecondsSince(pool_start), "s");
  if (!server.ok()) {
    report.Op(false, "server: " + server.status().ToString());
    return;
  }
  kelpie::serve::TcpServer front(**server, kelpie::serve::TcpServerOptions{});
  kelpie::Status started = front.Start();
  if (!started.ok()) {
    report.Op(false, "tcp front end: " + started.ToString());
    return;
  }
  std::thread front_thread([&front] { front.Run(); });
  LoadClient client;
  kelpie::Status connected = client.Connect(front.port(), kConnections);
  auto stop_serving = [&] {
    client.Close();
    front.Shutdown();
    front_thread.join();
    (*server)->Stop();
  };

  report.Op(connected.ok(), "connect: " + connected.ToString());
  const double rest_s = SecondsSince(setup_start);
  report.EndToEndScaled(
      "setup_s",
      setup.setup_scaled_s + rest_s * host::Scale(host::Reference::kCompute),
      setup.setup_s + rest_s, "s");
  report.Note("setup_s = the set-up (dataset, ComplEx trained, saved and "
              "loaded) plus schedule, cache, server and connections");
  if (!connected.ok()) {
    stop_serving();
    return;
  }

  // ---- Traced runs first replay a closed-loop round untraced, for the
  // tracing overhead.
  const size_t first_closed = std::size(kScoreRates);
  double untraced_closed_p50_s = 0.0;
  if (args.trace) {
    Phase replay = phases[first_closed];
    for (PlannedRequest& p : replay.plan) {
      // Same requests under fresh ids, outside the digest.
      const size_t at = p.line.find("\"id\":") + 5;
      p.line.replace(at, p.line.find(',') - at, std::to_string(next_id++));
    }
    PhaseTimings t = client.RunClosed(replay.plan, kDrainS);
    std::vector<double> lat;
    for (double l : t.latency_s) {
      if (l >= 0.0) lat.push_back(l);
    }
    untraced_closed_p50_s = Summarize(lat).p50;
    collector.Enable();
  }

  // ---- Timed phases.
  auto request_outcomes = [] {
    std::vector<uint64_t> totals;
    for (const char* outcome : {"ok", "shed", "deadline", "error"}) {
      uint64_t total = 0;
      for (const char* op : {"score", "explain"}) {
        total += CounterValue("kelpie_serve_requests_total",
                              {{"op", op}, {"outcome", outcome}});
      }
      totals.push_back(total);
    }
    return totals;
  };
  const std::vector<uint64_t> outcomes_before = request_outcomes();
  const EngineCounters engine_before = EngineCounters::Read();
  std::vector<PhaseTimings> timings;
  std::vector<double> phase_s;
  std::vector<host::Interval> phase_at;
  std::vector<HistogramReading> queue_wait, batch, execute;
  auto histograms = [&] {
    queue_wait.push_back(ReadHistogram("kelpie_serve_queue_wait_seconds", {}));
    batch.push_back(ReadHistogram("kelpie_serve_batch_size", {}));
    execute.push_back(ReadHistogram("kelpie_serve_execute_seconds", {}));
  };
  for (const Phase& phase : phases) {
    histograms();
    const host::OpTimer timer;
    timings.push_back(phase.closed ? client.RunClosed(phase.plan, kDrainS)
                                   : client.Run(phase.plan, kDrainS));
    phase_s.push_back(timer.Seconds());
    phase_at.push_back(timer.Done());
    // Reference slices between the phases, none during one (the generator
    // keeps the schedule): at least one compute and two loopback slices
    // after each.
    host::Pace(host::Reference::kCompute, phase_s.back(), 1);
    host::Pace(host::Reference::kLoopback, phase_s.back(), 2);
  }
  histograms();
  const EngineCounters engine_delta = EngineCounters::Read() - engine_before;
  const std::vector<uint64_t> outcomes_after = request_outcomes();
  const kelpie::RelevanceCacheStats cache_stats = cache->stats();

  // Closed-loop in-process scores: the serve stack without TCP.
  std::vector<double> inproc_s;
  if (args.trace) {
    for (size_t i = 0; i < kInprocCalls; ++i) {
      kelpie::serve::ScoreRequest request{random_fact(), {}};
      const auto start = Clock::now();
      (void)(*server)->Submit(request).get();
      inproc_s.push_back(SecondsSince(start));
    }
  }
  stop_serving();

  // ---- Output checks against in-process calls on the same requests.
  std::map<uint64_t, kelpie::Explanation> explained;  // by triple key
  std::vector<std::vector<std::string>> expected(phases.size());
  for (size_t p = 0; p < phases.size(); ++p) {
    const Phase& phase = phases[p];
    for (size_t i = 0; i < phase.plan.size(); ++i) {
      const Request& r = phase.requests[i];
      const uint64_t id = kelpie::serve::PeekLineId(phase.plan[i].line);
      if (r.kind == Kind::kScore) {
        expected[p].push_back(
            kelpie::serve::ScoreResponseLine(id, model.Score(r.triple)));
        continue;
      }
      auto it = explained.find(r.triple.Key());
      if (it == explained.end()) {
        kelpie::Kelpie kelpie(model, dataset, kelpie::KelpieOptions{});
        it = explained
                 .emplace(r.triple.Key(), kelpie.ExplainNecessary(r.triple))
                 .first;
        report.Check(FactsAreSourceTrainingFacts(
                         it->second, r.triple, kelpie::PredictionTarget::kTail,
                         dataset),
                     "explanation facts of " +
                         dataset.TripleToString(r.triple));
      }
      expected[p].push_back(
          kelpie::serve::ExplainResponseLine(id, it->second, {}, dataset));
    }
  }
  for (size_t p = 0; p < phases.size(); ++p) {
    for (const std::string& response : timings[p].response) {
      report.digest().Add(response);
    }
  }

  // ---- Metrics.
  // Per rate: every round's outcome; and every closed-loop round's p50,
  // tail and rate.
  std::vector<std::vector<PhaseOutcome>> rounds(std::size(kScoreRates));
  // Closed-loop readings unscaled, and scaled (_x) by the loopback slices
  // around their round (host_speed.h).
  std::vector<double> closed_p50_ms, closed_tail_ms, closed_rate;
  std::vector<double> closed_p50_x, closed_tail_x, closed_rate_x;
  std::vector<double> repeat_p50_ms, repeat_p50_x;
  auto loopback_scale = [&](size_t p) {
    return host::LocalScale(host::Reference::kLoopback, phase_at[p]);
  };
  std::vector<double> mixed_explain_ms, mixed_score_ms;
  for (size_t p = 0; p < phases.size(); ++p) {
    if (phases[p].mixed) {
      for (Kind kind : {Kind::kExplain, Kind::kScore}) {
        const PhaseOutcome o =
            CheckPhase(phases[p], timings[p], expected[p], kind, report);
        for (double l : o.ok_latency_s) {
          (kind == Kind::kExplain ? mixed_explain_ms : mixed_score_ms)
              .push_back(1e3 * l);
        }
      }
      continue;
    }
    if (phases[p].repeats) {
      const PhaseOutcome o = CheckPhase(phases[p], timings[p], expected[p],
                                        Kind::kExplain, report);
      repeat_p50_ms.push_back(1e3 * Summarize(o.ok_latency_s).p50);
      repeat_p50_x.push_back(repeat_p50_ms.back() * loopback_scale(p));
      continue;
    }
    PhaseOutcome o =
        CheckPhase(phases[p], timings[p], expected[p], Kind::kScore, report);
    if (phases[p].rate) {
      rounds[*phases[p].rate].push_back(std::move(o));
      continue;
    }
    const Summary s = Summarize(o.ok_latency_s);
    closed_p50_ms.push_back(1e3 * s.p50);
    closed_tail_ms.push_back(1e3 * s.tail);
    closed_rate.push_back(static_cast<double>(o.ok_latency_s.size()) /
                          phase_s[p]);
    closed_p50_x.push_back(closed_p50_ms.back() * loopback_scale(p));
    closed_tail_x.push_back(closed_tail_ms.back() * loopback_scale(p));
    closed_rate_x.push_back(closed_rate.back() / loopback_scale(p));
  }
  report.Note("closed-loop score rounds: p50 " + SortedList(closed_p50_ms) +
              " ms; tail (p95 of " + std::to_string(kClosedScores) + ") " +
              SortedList(closed_tail_ms) + " ms; requests/s " +
              SortedList(closed_rate));
  double max_rate = 0.0;
  std::vector<double> mid_latency_ms, mid_round_trip_s, mid_tails_ms;
  for (size_t k = 0; k < std::size(kScoreRates); ++k) {
    std::vector<double> tails_ms, achieved, pooled_ms;
    size_t meets = 0, failed = 0;
    for (const PhaseOutcome& o : rounds[k]) {
      if (RateMeetsLimit(o.ok_latency_s, o.failed, kScoreLimitS)) ++meets;
      tails_ms.push_back(
          1e3 * Summarize(WithMisses(o.ok_latency_s, o.failed)).tail);
      achieved.push_back(o.achieved_rate);
      failed += o.failed;
      for (double l : o.ok_latency_s) pooled_ms.push_back(1e3 * l);
      if (k == kMiddleRate) {
        mid_round_trip_s.insert(mid_round_trip_s.end(), o.round_trip_s.begin(),
                                o.round_trip_s.end());
      }
    }
    const bool sustained = 2 * meets > rounds[k].size();
    if (sustained) max_rate = Median(achieved);
    if (k == kMiddleRate) {
      mid_latency_ms = pooled_ms;
      mid_tails_ms = tails_ms;
    }
    std::sort(tails_ms.begin(), tails_ms.end());
    std::string line = SummaryLine("score_ms at " +
                                       std::to_string(static_cast<int>(
                                           kScoreRates[k])) +
                                       "/s",
                                   Summarize(pooled_ms), 1.0, "ms");
    line += "; round tails";
    for (double t : tails_ms) line += " " + std::to_string(t);
    line += " ms; " + std::to_string(meets) + "/" +
            std::to_string(rounds[k].size()) + " rounds within the limit, " +
            std::to_string(failed) + " failed" +
            (sustained ? ", sustained" : "");
    report.Note(line);
  }
  const Summary score = Summarize(mid_latency_ms);
  // Failed requests count in ok_share, not in these latencies.
  const Summary explain = Summarize(mixed_explain_ms);
  const Summary mixed_score = Summarize(mixed_score_ms);
  // The explains run on the server's threads, not where the slices run:
  // they are scaled by the run's compute slices.
  const double compute_scale = host::Scale(host::Reference::kCompute);
  report.EndToEndScaled("job1_ms", Median(closed_p50_x), Median(closed_p50_ms),
                        "ms");
  report.EndToEndScaled("job1_tail_ms", Median(closed_tail_x),
                        Median(closed_tail_ms), "ms");
  report.EndToEndScaled("job2_ms", explain.p50 * compute_scale, explain.p50,
                        "ms");
  report.EndToEndScaled("job2_tail_ms", explain.tail * compute_scale,
                        explain.tail, "ms");
  report.EndToEndScaled("job3_ms", Median(repeat_p50_x), Median(repeat_p50_ms),
                        "ms");
  report.EndToEndScaled("throughput_per_s", Median(closed_rate_x),
                        Median(closed_rate), "1/s");
  report.Note("job1 = a score round trip over TCP in a closed loop on " +
              std::to_string(kConnections) +
              " connections (median over the rounds); job2 = a necessary "
              "explain in the mixed phase, from its due time, new and "
              "repeated predictions alike; job3 = a repeated necessary "
              "explain (relevance-cache reads) in a closed loop, median "
              "over the rounds' p50; throughput_per_s = "
              "closed-loop scores answered per second");
  report.Note(SummaryLine("job2: explain in the mixed phase", explain, 1.0,
                          "ms"));
  report.Note("score at the middle rate: p50 " + std::to_string(score.p50) +
              " ms over " + std::to_string(score.count) + " requests; tail " +
              std::to_string(Median(mid_tails_ms)) +
              " ms = median of the rounds' p95; score_max_rate " +
              std::to_string(max_rate) + "/s");
  report.Note("job3: repeated explain round p50s " + SortedList(repeat_p50_ms) +
              " ms");
  report.Note(SummaryLine("score in the mixed phase", mixed_score, 1.0,
                          "ms"));

  if (!args.trace) return;

  // ---- Per-layer readings (traced run).
  // Registry histograms over the middle-rate rounds.
  HistogramReading mid_wait, mid_batch, mid_exec;
  for (size_t p = 0; p < phases.size(); ++p) {
    if (phases[p].rate != kMiddleRate) continue;
    mid_wait = mid_wait + (queue_wait[p + 1] - queue_wait[p]);
    mid_batch = mid_batch + (batch[p + 1] - batch[p]);
    mid_exec = mid_exec + (execute[p + 1] - execute[p]);
  }
  report.Layer("serve.queue_wait_ms.p50", 1e3 * mid_wait.Quantile(0.5), "ms");
  report.Layer("serve.queue_wait_ms.tail",
               1e3 * mid_wait.Quantile(0.95),
               "ms");
  report.Layer("serve.batch_size_mean", mid_batch.Mean(), "count");
  report.Layer("serve.score_p50_ms", score.p50, "ms");
  report.Layer("serve.score_tail_ms", Median(mid_tails_ms), "ms");
  report.Layer("serve.score_max_rate", max_rate, "1/s");
  report.Layer("serve.mixed_score_ms.p50", mixed_score.p50, "ms");
  report.Layer("serve.mixed_score_ms.tail", mixed_score.tail, "ms");
  report.Layer("serve.execute_us.score", 1e6 * mid_exec.Mean(), "us");
  const double inproc_p50 = Summarize(inproc_s).p50;
  report.Layer("serve.inproc_score_us", 1e6 * inproc_p50, "us");
  report.Layer("serve.tcp_overhead_us",
               1e6 * (Summarize(mid_round_trip_s).p50 - inproc_p50),
               "us");
  std::vector<double> explain_exec;
  for (const auto& span : collector.Finished()) {
    if (span.name == "serve.explain") {
      explain_exec.push_back(span.duration_seconds);
    }
  }
  report.Layer("serve.execute_ms.explain", 1e3 * Summarize(explain_exec).p50,
               "ms");
  const uint64_t lookups = cache_stats.hits + cache_stats.misses;
  report.Layer("core.relevance_cache_hit_ratio",
               lookups > 0 ? static_cast<double>(cache_stats.hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               "ratio");
  report.Layer("core.relevance_cache_bytes",
               static_cast<double>(cache_stats.bytes), "bytes");
  const char* outcome_names[] = {"ok", "shed", "deadline", "error"};
  for (size_t k = 0; k < std::size(outcome_names); ++k) {
    report.Layer(std::string("serve.requests.") + outcome_names[k],
                 static_cast<double>(outcomes_after[k] - outcomes_before[k]),
                 "count");
  }
  std::vector<double> lag_ms;
  for (const PhaseTimings& t : timings) {
    for (double l : t.lag_s) lag_ms.push_back(1e3 * l);
  }
  report.Layer("serve.generator_lag_ms", Summarize(lag_ms).tail, "ms");
  report.Layer("serve.repeat_share",
               explains > 0 ? static_cast<double>(repeats) /
                                  static_cast<double>(explains)
                            : 0.0,
               "share");
  engine_delta.Report(report);
  report.Layer("trace.overhead_share",
               (1e-3 * Median(closed_p50_ms) - untraced_closed_p50_s) /
                   untraced_closed_p50_s,
               "share");
}

}  // namespace perfbench
