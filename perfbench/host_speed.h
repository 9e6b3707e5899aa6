// The host's speed during a run, read from reference tasks of fixed size
// that the benchmark owns.
//
// This machine is a few vCPUs of a shared host. One vCPU's speed moves by
// up to 40% within a second and from one run to the next, as other tenants
// come and go, so a timing tells as much about the neighbours as about the
// program. Each workload therefore runs short slices of a reference task
// while it works, and reports its end-to-end times scaled to a host on
// which a slice takes the reference's nominal time:
//
//   reported = measured * nominal / mean(slice times around the operation)
//
// (a rate is divided by the same factor), where the slices around an
// operation are those its thread ran within kLocalS of it. Two references:
//  - compute: what the program's hot loops do (score every row of an
//    L2-resident embedding table, softmax, accumulate a gradient into every
//    row, step one row). On the threads that do timed work a per-thread
//    timer signal runs a slice every kSliceEveryS, in the middle of whatever
//    the thread is doing, so the slices sample the host at the same moments
//    and on the same vCPUs as the program; timed operations subtract the
//    slices that ran inside them.
//  - loopback: round trips of a small message over a loopback TCP
//    connection to an echo thread, the path of a served request without
//    the server; run between the serve workload's phases.
// Both are compiled into the benchmark, not the library, so a change to
// src/ does not move them. The unscaled figures are printed as notes.
#ifndef KELPIE_PERFBENCH_HOST_SPEED_H_
#define KELPIE_PERFBENCH_HOST_SPEED_H_

#include <cstdint>
#include <string>

namespace perfbench::host {

enum class Reference { kCompute, kLoopback };

/// A slice's typical time on the reference host (a 4-vCPU share of a Xeon,
/// Sapphire Rapids, 2.0 GHz) in the middle of the workloads' work: 6 ms
/// compute (the program leaves the slice's table out of cache), 3.3 ms
/// loopback. Scaled figures then read about as unscaled ones there.
double NominalSliceS(Reference ref);

/// Wall time between compute slices on a sliced thread: slices cost about
/// 4% of its time.
inline constexpr double kSliceEveryS = 0.1;

/// Slices within this many seconds of an operation set its scale; with
/// fewer than kMinLocalSlices there, the run's scale applies.
inline constexpr double kLocalS = 1.0;
inline constexpr size_t kMinLocalSlices = 3;

/// Where and when an operation ran: the thread's index and seconds on the
/// steady clock.
struct Interval {
  uint32_t thread = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Times an operation on the calling thread: its wall time less the
/// compute slices that ran inside it, and its interval.
class OpTimer {
 public:
  OpTimer();
  double Seconds() const;
  Interval Done() const;

 private:
  double start_s_;
  double slices_s_;
};

/// NominalSliceS over the mean time of `ref`'s slices that ran on the
/// operation's thread within `margin_s` of it (the slowest left out when
/// there are five or more); the run's Scale(ref) when fewer than
/// kMinLocalSlices did.
double LocalScale(Reference ref, const Interval& op, double margin_s = kLocalS);

/// Slices run only when enabled (the default). The traced run disables
/// them: its per-layer times are the program's own, unscaled.
void Enable(bool on);

/// Starts (stops) running a compute slice every kSliceEveryS on the calling
/// thread, from a timer signal. Stop before the thread ends.
void StartSlicing();
void StopSlicing();

/// Seconds of compute slices run on the calling thread so far: a timed
/// operation subtracts the difference across it.
double ThreadSliceSeconds();

/// Runs slices of `ref` on the calling thread, one per kSliceEveryS of
/// `op_s` owed (carried over between calls) and at least `min_slices`, for
/// work that must not be interrupted while it is timed.
void Pace(Reference ref, double op_s, int min_slices = 0);

/// NominalSliceS over the mean slice time of the run (the slowest 1% left
/// out: slices the scheduler preempted): multiply a measured time by it,
/// divide a rate by it. 1 when no slice ran.
double Scale(Reference ref);

/// Mean slice time of the run, slowest 1% left out, in seconds (the
/// nominal time when none ran).
double MeanSliceS(Reference ref);

/// One line per reference that ran: slices, mean, p10, p90, scale.
std::string Note();

/// Closes the loopback connection and joins its echo thread.
void StopLoopback();

/// One slice; returns its time in seconds. Exposed for the self-test.
double RunSlice(Reference ref);

}  // namespace perfbench::host

#endif  // KELPIE_PERFBENCH_HOST_SPEED_H_
