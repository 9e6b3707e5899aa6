#ifndef KELPIE_ML_TRAIN_GUARD_H_
#define KELPIE_ML_TRAIN_GUARD_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "common/status.h"
#include "math/rng.h"

namespace kelpie {

class TrainCheckpointer;

/// Guardrail knobs for one training run. Trainers populate this from the
/// robustness fields of TrainConfig (models/model.h); keeping a separate
/// struct here avoids an upward dependency from the ML substrate onto the
/// model layer.
struct GuardConfig {
  size_t epochs = 0;
  /// Off = plain epoch loop: no finiteness scans, no snapshots, no recovery.
  bool check_finite = true;
  /// On divergence, rewind and retry instead of aborting.
  bool recover_on_divergence = true;
  /// Rewind-and-retry budget per training run.
  int max_recoveries = 3;
  /// Learning-rate scale multiplier applied on each recovery.
  float lr_backoff = 0.5f;
  /// Optional crash-safe checkpointing (ml/checkpoint.h). Non-owning; when
  /// set, the guard restores state before the first epoch (resume or
  /// warm-start, per the checkpointer's mode) and persists state at commit
  /// boundaries, after recoveries, on cancellation and at completion.
  TrainCheckpointer* checkpointer = nullptr;
  /// Cooperative cancellation, checked at epoch boundaries: the in-flight
  /// epoch finishes and commits, a final checkpoint is flushed (when
  /// configured), and the guard returns a report with
  /// `completeness == kCancelled` — training's drain semantics, mirroring
  /// serve's SIGTERM drain.
  CancelToken cancel;
};

/// How a training run hands cancellation and checkpointing into Train().
/// Default-constructed = no checkpointing, never cancelled — exactly the
/// pre-checkpoint behavior.
struct TrainControl {
  TrainCheckpointer* checkpointer = nullptr;
  CancelToken cancel;
};

/// One divergence-recovery incident during a guarded training run.
struct RecoveryEvent {
  /// Epoch (0-based) whose result was discarded.
  size_t epoch = 0;
  /// Learning-rate scale in effect for the retry (after backoff).
  float lr_scale = 1.0f;
  /// Human-readable cause ("non-finite loss", "non-finite parameters").
  std::string reason;
};

/// Outcome of a guarded training run; models retain the report of their
/// last Train() call for callers that want to inspect recovery behavior.
struct TrainReport {
  /// Total epoch executions, including discarded (retried) ones. A resumed
  /// run restores this from the checkpoint, so the final report matches an
  /// uninterrupted run's.
  size_t epochs_run = 0;
  /// Number of rewind-and-retry recoveries performed.
  int recoveries = 0;
  /// Final learning-rate scale (1.0 unless backoff was triggered).
  float lr_scale = 1.0f;
  /// kComplete when all epochs ran; kCancelled when a cooperative cancel
  /// drained the run at an epoch boundary (the parameters are the last
  /// committed state and, with a checkpointer, a final checkpoint holds it).
  Completeness completeness = Completeness::kComplete;
  std::vector<RecoveryEvent> events;
};

/// Callbacks a model trainer hands to RunGuardedEpochs. The guard owns the
/// epoch loop; the trainer owns the math.
struct GuardedTrainHooks {
  /// All mutable float state that one epoch can touch: embedding tables AND
  /// optimizer accumulators (Adagrad sums, Adam moments). The guard scans
  /// these for finiteness and snapshots/restores them on recovery; any span
  /// omitted here silently escapes the rewind.
  std::function<std::vector<std::span<float>>()> params;

  /// Runs one full training epoch with the learning rate scaled by
  /// `lr_scale` (1.0 on the happy path — multiplying by it must be a
  /// bitwise no-op to preserve seeded reproducibility). Returns a finite
  /// loss proxy for the epoch; NaN/Inf marks the epoch as diverged.
  std::function<double(size_t epoch, float lr_scale)> run_epoch;

  /// Optional: non-float optimizer state that must rewind with the
  /// parameters (e.g. Adam's step counter). Omit both when not needed.
  std::function<std::vector<uint64_t>()> save_counters;
  std::function<void(const std::vector<uint64_t>&)> restore_counters;

  /// Optional: the training RNG stream position, captured at commit
  /// boundaries and restored on checkpoint resume. Required for
  /// byte-identical resume (shuffles and negative draws continue exactly
  /// where the interrupted run left off); omit both when the trainer is
  /// never checkpointed.
  std::function<RngState()> save_rng;
  std::function<void(const RngState&)> restore_rng;
};

/// Runs `config.epochs` training epochs with divergence guardrails:
///
///  - After each epoch the loss proxy and every `params` span are checked
///    for finiteness (skipped entirely when `config.check_finite` is off).
///  - A finite epoch is committed: the guard snapshots all state in memory
///    and advances.
///  - A diverged epoch is rolled back to the last committed snapshot, the
///    learning-rate scale is multiplied by `config.lr_backoff`, and the
///    same epoch is retried — at most `config.max_recoveries` times per
///    run. Each recovery is logged as a warning and recorded in the report.
///  - If recovery is disabled (`config.recover_on_divergence == false`) or
///    the budget is exhausted, returns `Status::Aborted` and leaves the
///    parameters in the last committed (finite) state.
///
/// Crash safety: with `config.checkpointer` set, the guard persists
/// (parameters, optimizer counters, RNG position, epoch counter, recovery
/// ledger) at every commit boundary the checkpoint interval selects, after
/// every recovery, on cancellation, and at completion — so a `kill -9` at
/// any point loses at most the epochs since the last checkpoint and a
/// resumed run converges to bitwise-identical final parameters. At a commit
/// boundary the rewind snapshot equals the live parameters, so the same
/// checkpoint also persists the last-good divergence-rewind target.
///
/// Test hooks:
///  - failpoint `"train.diverge"` (value = epoch) poisons the first
///    parameter with NaN after that epoch runs, simulating a blow-up.
///  - failpoint `"train.interrupt"` (value = epoch) aborts the run right
///    after that epoch's commit (and checkpoint save), simulating a crash
///    at a deterministic boundary.
Result<TrainReport> RunGuardedEpochs(const GuardConfig& config,
                                     const GuardedTrainHooks& hooks);

}  // namespace kelpie

#endif  // KELPIE_ML_TRAIN_GUARD_H_
