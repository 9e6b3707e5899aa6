#include "ml/train_guard.h"

#include <cmath>
#include <limits>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "ml/checkpoint.h"

namespace kelpie {

namespace {

/// Per-training-run metric handles, resolved once at RunGuardedEpochs entry
/// (registry lookup is a cold, locked path; epoch-loop updates are not).
struct TrainMetrics {
  metrics::Counter& epochs;
  metrics::Counter& recoveries;
  metrics::Gauge& loss_last;
  metrics::Histogram& epoch_seconds;

  static TrainMetrics Resolve() {
    metrics::Registry& registry = metrics::Registry::Global();
    return TrainMetrics{
        registry.GetCounter(
            "kelpie_train_epochs_total", {},
            metrics::Determinism::kDeterministic,
            "Training epochs executed, including retried (discarded) ones."),
        registry.GetCounter(
            "kelpie_train_recoveries_total", {},
            metrics::Determinism::kDeterministic,
            "Divergence recoveries (rewind + lr backoff) during training."),
        registry.GetGauge(
            "kelpie_train_loss_last", {},
            metrics::Determinism::kDeterministic,
            "Loss proxy of the most recently executed epoch."),
        registry.GetHistogram(
            "kelpie_train_epoch_seconds",
            metrics::ExponentialBuckets(0.001, 4.0, 12), {},
            metrics::Determinism::kWallClock,
            "Wall-clock seconds per training epoch."),
    };
  }
};

bool AllFinite(const std::vector<std::span<float>>& spans) {
  for (std::span<float> s : spans) {
    for (float v : s) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

void TakeSnapshot(const std::vector<std::span<float>>& spans,
                  std::vector<std::vector<float>>& snapshot) {
  snapshot.resize(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    snapshot[i].assign(spans[i].begin(), spans[i].end());
  }
}

void RestoreSnapshot(const std::vector<std::vector<float>>& snapshot,
                     const std::vector<std::span<float>>& spans) {
  for (size_t i = 0; i < spans.size(); ++i) {
    std::copy(snapshot[i].begin(), snapshot[i].end(), spans[i].begin());
  }
}

/// Attempts a checkpoint restore (resume or warm start, per the
/// checkpointer's mode) and applies it to the live trainer state. Returns
/// the epoch the loop should start at (0 when nothing was restored or on
/// warm start). Every failure path degrades to scratch.
size_t MaybeRestoreCheckpoint(const GuardConfig& config,
                              const GuardedTrainHooks& hooks,
                              const std::vector<std::span<float>>& params,
                              TrainReport& report, float& lr_scale,
                              int& recoveries_left) {
  TrainCheckpointer* ckpt = config.checkpointer;
  if (ckpt == nullptr) return 0;
  std::optional<CheckpointState> state = ckpt->TryRestore();
  if (!state.has_value()) return 0;

  bool shapes_ok = state->params.size() == params.size();
  for (size_t i = 0; shapes_ok && i < params.size(); ++i) {
    shapes_ok = state->params[i].size() == params[i].size();
  }
  if (shapes_ok && hooks.save_counters) {
    shapes_ok = state->counters.size() == hooks.save_counters().size();
  }
  if (!shapes_ok) {
    ckpt->NoteShapeMismatch();
    KELPIE_LOG(Warning) << "checkpoint " << ckpt->FilePath()
                        << ": parameter shapes disagree with this model; "
                        << "restarting training from scratch";
    return 0;
  }

  for (size_t i = 0; i < params.size(); ++i) {
    std::copy(state->params[i].begin(), state->params[i].end(),
              params[i].begin());
  }
  if (hooks.restore_counters && !state->counters.empty()) {
    hooks.restore_counters(state->counters);
  }
  if (ckpt->options().mode != CheckpointMode::kResume) {
    // Warm start: base parameters and optimizer state only; the epoch
    // counter, RNG stream and recovery ledger start fresh.
    return 0;
  }
  if (hooks.restore_rng) hooks.restore_rng(state->rng);
  report = state->report;
  // Completeness describes *this* run: a checkpoint written by a drained
  // (cancelled) run must not make its successful resume report Cancelled.
  report.completeness = Completeness::kComplete;
  lr_scale = state->lr_scale;
  recoveries_left = static_cast<int>(state->recoveries_left);
  size_t start = static_cast<size_t>(state->next_epoch);
  return start < config.epochs ? start : config.epochs;
}

/// Persists the last committed state. A failed save costs durability, not
/// the run: it is logged and training continues.
void SaveCheckpoint(const GuardConfig& config, const GuardedTrainHooks& hooks,
                    uint64_t next_epoch, float lr_scale, int recoveries_left,
                    const TrainReport& report,
                    const std::vector<std::vector<float>>& committed_params,
                    const std::vector<uint64_t>& counters) {
  TrainCheckpointer* ckpt = config.checkpointer;
  if (ckpt == nullptr || !ckpt->saves_enabled()) return;
  CheckpointState state;
  state.next_epoch = next_epoch;
  state.lr_scale = lr_scale;
  state.recoveries_left = recoveries_left;
  state.report = report;
  if (hooks.save_rng) state.rng = hooks.save_rng();
  state.counters = counters;
  state.params = committed_params;
  Status saved = ckpt->Save(state);
  if (!saved.ok()) {
    KELPIE_LOG(Warning) << "checkpoint save to " << ckpt->FilePath()
                        << " failed (training continues without durability): "
                        << saved.ToString();
  }
}

}  // namespace

Result<TrainReport> RunGuardedEpochs(const GuardConfig& config,
                                     const GuardedTrainHooks& hooks) {
  TrainReport report;
  TrainMetrics train_metrics = TrainMetrics::Resolve();
  trace::Span train_span("train");

  if (!config.check_finite) {
    // Guardrails off: plain epoch loop, no finiteness scans, no recovery.
    // Checkpointing and cooperative cancellation still apply — crash safety
    // is orthogonal to divergence protection. The observability updates per
    // epoch are two relaxed stores and one histogram observe — noise
    // against an epoch of gradient math.
    std::vector<std::span<float>> params = hooks.params();
    float lr_scale = 1.0f;
    int recoveries_left = config.max_recoveries;
    const size_t start_epoch = MaybeRestoreCheckpoint(
        config, hooks, params, report, lr_scale, recoveries_left);
    std::vector<std::vector<float>> committed;
    std::vector<uint64_t> counters;
    auto persist = [&](size_t next_epoch) {
      TakeSnapshot(params, committed);
      if (hooks.save_counters) counters = hooks.save_counters();
      SaveCheckpoint(config, hooks, next_epoch, lr_scale, recoveries_left,
                     report, committed, counters);
    };
    for (size_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
      if (config.cancel.cancelled()) {
        report.completeness = Completeness::kCancelled;
        persist(epoch);
        return report;
      }
      Stopwatch epoch_timer;
      const double loss = hooks.run_epoch(epoch, /*lr_scale=*/1.0f);
      train_metrics.epoch_seconds.Observe(epoch_timer.ElapsedSeconds());
      train_metrics.epochs.Increment();
      train_metrics.loss_last.Set(loss);
      ++report.epochs_run;
      if (config.checkpointer != nullptr &&
          (config.checkpointer->ShouldSave(epoch + 1) ||
           epoch + 1 == config.epochs)) {
        persist(epoch + 1);
      }
      if (failpoint::Fire("train.interrupt", epoch)) {
        return Status::Aborted("train.interrupt failpoint fired after epoch " +
                               std::to_string(epoch));
      }
    }
    return report;
  }

  std::vector<std::span<float>> params = hooks.params();
  float lr_scale = 1.0f;
  int recoveries_left = config.max_recoveries;
  const size_t start_epoch = MaybeRestoreCheckpoint(
      config, hooks, params, report, lr_scale, recoveries_left);

  std::vector<std::vector<float>> snapshot;
  std::vector<uint64_t> counters;
  TakeSnapshot(params, snapshot);
  if (hooks.save_counters) counters = hooks.save_counters();

  for (size_t epoch = start_epoch; epoch < config.epochs;) {
    if (config.cancel.cancelled()) {
      // Drain: the last committed epoch stands; flush it so the run can be
      // resumed, and report the truncation honestly.
      report.completeness = Completeness::kCancelled;
      report.lr_scale = lr_scale;
      SaveCheckpoint(config, hooks, epoch, lr_scale, recoveries_left, report,
                     snapshot, counters);
      return report;
    }

    Stopwatch epoch_timer;
    double loss = hooks.run_epoch(epoch, lr_scale);
    train_metrics.epoch_seconds.Observe(epoch_timer.ElapsedSeconds());
    train_metrics.epochs.Increment();
    train_metrics.loss_last.Set(loss);
    ++report.epochs_run;

    if (failpoint::Fire("train.diverge", epoch) && !params.empty() &&
        !params[0].empty()) {
      params[0][0] = std::numeric_limits<float>::quiet_NaN();
    }

    const char* reason = nullptr;
    if (!std::isfinite(loss)) {
      reason = "non-finite loss";
    } else if (!AllFinite(params)) {
      reason = "non-finite parameters";
    }

    if (reason == nullptr) {
      // Epoch committed: this state is the new rewind target. At this
      // boundary snapshot == live parameters, so persisting the snapshot
      // persists both the model and the last-good recovery target.
      TakeSnapshot(params, snapshot);
      if (hooks.save_counters) counters = hooks.save_counters();
      ++epoch;
      if (config.checkpointer != nullptr &&
          (config.checkpointer->ShouldSave(epoch) ||
           epoch == config.epochs)) {
        SaveCheckpoint(config, hooks, epoch, lr_scale, recoveries_left,
                       report, snapshot, counters);
      }
      if (failpoint::Fire("train.interrupt", epoch - 1)) {
        return Status::Aborted("train.interrupt failpoint fired after epoch " +
                               std::to_string(epoch - 1));
      }
      continue;
    }

    if (!config.recover_on_divergence || recoveries_left <= 0) {
      RestoreSnapshot(snapshot, params);
      if (hooks.restore_counters) hooks.restore_counters(counters);
      std::string msg = "training diverged at epoch " + std::to_string(epoch) +
                        " (" + reason + ")";
      if (config.recover_on_divergence) {
        msg += " after " + std::to_string(config.max_recoveries) +
               " recovery attempts";
      } else {
        msg += "; recovery disabled";
      }
      return Status::Aborted(std::move(msg));
    }

    RestoreSnapshot(snapshot, params);
    if (hooks.restore_counters) hooks.restore_counters(counters);
    train_metrics.recoveries.Increment();
    --recoveries_left;
    lr_scale *= config.lr_backoff;
    ++report.recoveries;
    report.events.push_back(
        {epoch, lr_scale, reason});
    KELPIE_LOG(Warning) << "training diverged at epoch " << epoch << " ("
                        << reason << "); rewound to last finite state, "
                        << "retrying with lr_scale=" << lr_scale << " ("
                        << recoveries_left << " recoveries left)";
    // The updated recovery ledger (and the rewound state it protects) is
    // itself worth surviving a crash.
    SaveCheckpoint(config, hooks, epoch, lr_scale, recoveries_left, report,
                   snapshot, counters);
  }

  report.lr_scale = lr_scale;
  return report;
}

}  // namespace kelpie
