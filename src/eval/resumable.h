// The single home of each sampling estimator's per-sample loop. A
// resumable sampler advances in quanta and can pause between them with no
// work lost; each quantum is a fixed number of *sample units* — one
// fixpoint sample (approx), one restart sample or one post-burn-in chain
// step (mcmc), one trajectory step (trajectory).
//
// Two callers drive them. The sample scheduler (src/sched/) interleaves
// subscriptions one quantum at a time. The one-shot evaluators
// (ApproxInflationary, McmcForever, the interpreted TimeAverageEstimate)
// split their budget into per-worker shares with ForkWorkers and run each
// worker's sampler to exhaustion with DriveToBudget. Either way the caller
// owns the fault check: the scheduler fires the sampler's fault point once
// per quantum, the one-shot driver once per sample (once per run for
// trajectory) ahead of the quantum that runs it.
//
// Two MCMC estimators live here. ResumableMcmcRestart is Thm 5.6's
// restart sampler: every sample restarts at the initial instance, burns
// in, and reads the event. ResumableMcmcChains, the subscription
// estimator, instead runs C >= 2 *persistent* parallel chains (no
// per-sample restart) and records the event indicator at every post-burn-in
// step. For an ergodic kernel the time average over each chain converges
// to the same long-run probability, and because the chains are independent,
// their cross-chain agreement is a genuine mixing diagnostic: split-R̂ over
// the per-chain indicator streams (sched/convergence.h) detects chains
// stuck in different lobes — exactly the failure mode a restart sampler
// with an underestimated burn-in hides.
#ifndef PFQL_EVAL_RESUMABLE_H_
#define PFQL_EVAL_RESUMABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datalog/engine.h"
#include "datalog/program.h"
#include "eval/backend.h"
#include "lang/event.h"
#include "lang/interpretation.h"
#include "markov/compiled_chain.h"
#include "relational/instance.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace eval {

/// The Hoeffding sample count m = ⌈ln(2/δ)/(2ε²)⌉ of Thm 4.3 and Thm 5.6.
/// (The paper states ln(1/δ)/(4ε²); this is the standard two-sided
/// Hoeffding constant, which differs only by constants.)
size_t HoeffdingCount(double epsilon, double delta);

/// Point-in-time estimate of a resumable sampler, refreshed after every
/// quantum. `ci_halfwidth` is the sampler's own distribution-free bound at
/// confidence 1 - delta (Hoeffding for iid samplers, normal-approximation
/// for per-run trajectory averages); the scheduler may override it with a
/// cross-chain variance bound for MCMC (sched/convergence.h).
struct SamplerSnapshot {
  double estimate = 0.0;
  /// 1.0 until enough samples exist to bound anything.
  double ci_halfwidth = 1.0;
  /// Completed sample units (see the per-sampler unit definition above).
  size_t samples = 0;
  /// Total budget in sample units (burn-in included for mcmc chains).
  size_t budget = 0;
  size_t total_steps = 0;
  /// Sampler-specific extras.
  size_t hits = 0;             ///< approx and restart mcmc: event held
  size_t runs_completed = 0;   ///< trajectory only
  std::string backend;         ///< "interpreted"/"compiled" when meaningful
};

/// A sampler that advances in quanta. Not thread-safe: a caller runs at
/// most one RunQuantum at a time per sampler.
class ResumableSampler {
 public:
  virtual ~ResumableSampler() = default;

  /// Advances by up to `quantum` sample units (fewer when the budget runs
  /// out first). Returns non-OK on a hard evaluation error; cancellation
  /// surfaces as Cancelled/DeadlineExceeded. A unit cut short by an error
  /// never counts. The snapshot is valid after every successful return.
  virtual Status RunQuantum(size_t quantum,
                            const CancellationToken* cancel) = 0;

  const SamplerSnapshot& snapshot() const { return snap_; }
  /// Budget fully consumed — the scheduler must complete the subscription.
  bool Exhausted() const { return snap_.samples >= snap_.budget; }

 protected:
  SamplerSnapshot snap_;
};

// ---- Thm 4.3 inflationary sampler, one fixpoint sample per unit --------

using PlanPtr = std::shared_ptr<const datalog::InflationaryPlan>;

/// Yields the plan one sample's path runs on, drawing any randomness it
/// needs (a pc-table world) from the sampler's own stream.
using PlanSource = std::function<StatusOr<PlanPtr>(Rng*)>;

struct ResumableApproxOptions {
  double epsilon = 0.05;
  double delta = 0.05;
  uint64_t seed = 42;
  /// Overrides the Hoeffding budget when > 0.
  size_t max_samples = 0;
};

class ResumableApprox : public ResumableSampler {
 public:
  /// Draws `budget` samples, each on the plan `plan_source` yields.
  ResumableApprox(PlanSource plan_source, QueryEvent event, size_t budget,
                  double delta, Rng rng);

  /// Subscription form: plans `program` over `edb` on the first quantum and
  /// reuses the plan after, seeded with options.seed. `program` and `edb`
  /// are shared so the owning subscription can outlive the registry
  /// entries they were resolved from.
  ResumableApprox(std::shared_ptr<const datalog::Program> program,
                  std::shared_ptr<const Instance> edb, QueryEvent event,
                  const ResumableApproxOptions& options);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

 private:
  const PlanSource plan_source_;
  const QueryEvent event_;
  const double delta_;
  Rng rng_;
};

// ---- Thm 5.6 restart sampler, one burned-in sample per unit ------------

class ResumableMcmcRestart : public ResumableSampler {
 public:
  /// Draws `budget` samples of `query` from `initial`, each after
  /// `burn_in` kernel steps. With a `compiled` space, samples advance as
  /// batches of at most kChunk walkers (one alias draw per step); without
  /// one, each step applies the kernel.
  ResumableMcmcRestart(const ForeverQuery& query, const Instance& initial,
                       std::shared_ptr<const CompiledSpace> compiled,
                       size_t burn_in, size_t budget, double delta, Rng rng);

  /// Largest walker batch one compiled StepBatch call advances.
  static constexpr size_t kChunk = 512;

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

 private:
  const ForeverQuery query_;
  const Instance initial_;
  const std::shared_ptr<const CompiledSpace> compiled_;
  std::vector<uint8_t> event_states_;  ///< compiled tier
  std::vector<uint32_t> walkers_;      ///< compiled tier scratch
  const size_t burn_in_;
  const double delta_;
  Rng rng_;
  CancelPoller poller_{nullptr};  ///< interpreted tier, across quanta
};

// ---- Persistent-chain MCMC sampler, one chain step per unit ------------

/// Cumulative per-chain tallies with per-quantum checkpoints; the raw
/// material of the split-R̂ diagnostic (sched/convergence.h).
struct ChainStats {
  size_t count = 0;  ///< post-burn-in samples recorded
  double sum = 0.0;  ///< sum of event indicators
  /// Cumulative (count, sum) at each quantum boundary, so a split point
  /// near count/2 can be found without keeping the per-sample stream.
  std::vector<std::pair<size_t, double>> checkpoints;
};

struct ResumableMcmcOptions {
  /// Independent parallel chains; >= 2 so split-R̂ has cross-chain variance
  /// to measure.
  size_t num_chains = 4;
  /// Per-chain steps discarded before indicators are recorded. Unlike the
  /// restart sampler this is paid once per chain, not once per sample.
  size_t burn_in = 100;
  double epsilon = 0.05;
  double delta = 0.05;
  uint64_t seed = 42;
  /// Hard cap on sample units (burn-in + recorded steps, all chains).
  /// 0 = 4x the iid Hoeffding count — persistent-chain samples are
  /// correlated, so the cap leaves headroom over the iid budget; actual
  /// completion is governed by the empirical CI and R̂, not the cap.
  size_t max_samples = 0;
  Backend backend = Backend::kAuto;
  size_t compile_max_states = 1 << 12;
};

class ResumableMcmcChains : public ResumableSampler {
 public:
  ResumableMcmcChains(Interpretation kernel, Instance initial,
                      QueryEvent event, const ResumableMcmcOptions& options);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

  const std::vector<ChainStats>& chains() const { return stats_; }
  size_t num_chains() const { return options_.num_chains; }

 private:
  /// First-quantum setup: tier per `backend`, chain states seeded at
  /// `initial`, per-chain RNG forks.
  Status Initialize(const CancellationToken* cancel);
  /// One kernel step of chain `c`; appends the indicator when past
  /// burn-in. Counts one sample unit either way.
  Status StepChain(size_t c);
  void RefreshSnapshot();

  const Interpretation kernel_;
  const Instance initial_;
  const QueryEvent event_;
  const ResumableMcmcOptions options_;
  Rng master_rng_;

  bool initialized_ = false;
  // Compiled tier (set when the chain fit the compile budget).
  std::shared_ptr<const CompiledSpace> compiled_;
  std::vector<uint8_t> event_states_;
  std::vector<uint32_t> state_ids_;
  // Interpreted tier.
  std::vector<Instance> state_instances_;

  std::vector<Rng> chain_rngs_;
  std::vector<size_t> burn_left_;
  std::vector<ChainStats> stats_;
  size_t next_chain_ = 0;  ///< round-robin cursor across chains
};

// ---- Def 3.2 trajectory sampler, one walk step per unit ----------------

struct ResumableTrajectoryOptions {
  size_t steps = 1000;
  size_t runs = 16;
  double discard_fraction = 0.1;
  /// Normal-approximation CI confidence over per-run averages.
  double delta = 0.05;
  uint64_t seed = 42;
  Backend backend = Backend::kAuto;
  size_t compile_max_states = 1 << 12;
};

class ResumableTrajectory : public ResumableSampler {
 public:
  /// Walks `options.runs` runs of `options.steps` steps, drawing from
  /// `rng` (options.seed is unused).
  ResumableTrajectory(Interpretation kernel, Instance initial,
                      EventExpr::Ptr event,
                      const ResumableTrajectoryOptions& options, Rng rng);

  /// Subscription form: the canonical tuple event, seeded with
  /// options.seed.
  ResumableTrajectory(Interpretation kernel, Instance initial,
                      QueryEvent event,
                      const ResumableTrajectoryOptions& options);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

  /// Time averages of the completed runs, in run order.
  const std::vector<double>& per_run() const { return per_run_; }
  /// The stream position after the steps taken so far.
  const Rng& rng() const { return rng_; }

 private:
  Status Initialize(const CancellationToken* cancel);
  void FinishRun();
  void RefreshSnapshot();

  const Interpretation kernel_;
  const Instance initial_;
  const EventExpr::Ptr event_;
  const ResumableTrajectoryOptions options_;
  const size_t discard_;  ///< leading steps of each run left uncounted
  Rng rng_;
  CancelPoller poller_{nullptr};

  bool initialized_ = false;
  std::shared_ptr<const CompiledSpace> compiled_;
  std::vector<uint8_t> event_states_;
  uint32_t state_id_ = 0;
  Instance state_instance_;

  size_t run_step_ = 0;  ///< steps taken in the in-progress run
  size_t run_hits_ = 0;  ///< post-discard hits in the in-progress run
  std::vector<double> per_run_;
};

// ---- The one-shot driver -----------------------------------------------

/// How a one-shot evaluator drives its samplers.
struct DriveSpec {
  /// Span each worker runs under ("approx.worker", "mcmc.worker", ...).
  const char* span = "";
  /// Fault point fired once per `fault_stride` units, before they run.
  const char* fault_point = "";
  /// Sample units per fault check: 1, or steps per run for trajectory.
  size_t fault_stride = 1;
  /// Most units one RunQuantum takes (a multiple of fault_stride); the
  /// driver fires that many units' fault checks ahead of it.
  size_t chunk = 1;
  const CancellationToken* cancel = nullptr;
  /// When true, a cancel, deadline or injected fault with at least one
  /// completed unit yields a degraded result over the completed prefix.
  bool allow_partial = false;
};

/// Merged outcome of one drive, summed over workers.
struct DriveResult {
  size_t samples = 0;  ///< units completed by quanta that returned OK
  size_t hits = 0;
  size_t total_steps = 0;
  bool degraded = false;
  Status interruption;  ///< non-OK iff degraded
  int64_t elapsed_us = 0;
};

using SamplerPtr = std::unique_ptr<ResumableSampler>;

/// Splits `budget` into shares for max(1, min(threads, budget)) workers
/// (the first budget % workers get one more) and builds one sampler per
/// worker with `make(share, stream)`, forking each stream from `rng` in
/// worker order.
std::vector<SamplerPtr> ForkWorkers(
    size_t budget, size_t threads, Rng* rng,
    const std::function<SamplerPtr(size_t share, Rng stream)>& make);

/// Runs every worker's sampler to exhaustion: inline for one worker, one
/// thread each (joining the caller's trace) otherwise. A hard error from
/// any worker fails the drive, first in worker order. A cancel, deadline
/// or injected fault does too unless `allow_partial`, in which case the
/// first one in worker order degrades the result; with no completed unit
/// it is still returned as an error, there being no estimate to degrade
/// to.
StatusOr<DriveResult> DriveToBudget(const std::vector<SamplerPtr>& workers,
                                    const DriveSpec& spec);

/// Counts one approx or mcmc drive in the sampler metrics
/// (docs/OBSERVABILITY.md): samples and steps per `kind`, then the
/// compiled stepper's steps and rate when `compiled`, else the sample rate.
void CountDrive(const char* kind, const DriveResult& run, bool compiled);
void CountCompiledSteps(const char* kind, size_t steps, int64_t elapsed_us);

/// The event's truth value on every state of `compiled`, indexed by state
/// id, as the compiled steppers read it.
StatusOr<std::vector<uint8_t>> EventIndicator(const CompiledSpace& compiled,
                                              const EventExpr& event);

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_RESUMABLE_H_
