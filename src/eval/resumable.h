// Resumable (checkpointable) variants of the three sampling evaluators,
// built for the sample scheduler (src/sched/): instead of running a whole
// Hoeffding budget to completion, a resumable sampler advances in small
// quanta and can pause between them with no work lost. Each quantum is a
// fixed number of *sample units* — one fixpoint sample (approx), one
// post-burn-in chain step (mcmc), one trajectory step (trajectory) — so the
// scheduler can interleave heterogeneous subscriptions fairly.
//
// The MCMC variant deliberately differs from Thm 5.6's restart sampler:
// it runs C >= 2 *persistent* parallel chains (no per-sample restart) and
// records the event indicator at every post-burn-in step. For an ergodic
// kernel the time average over each chain converges to the same long-run
// probability, and because the chains are independent, their cross-chain
// agreement is a genuine mixing diagnostic: split-R̂ over the per-chain
// indicator streams (sched/convergence.h) detects chains stuck in
// different lobes — exactly the failure mode a restart sampler with an
// underestimated burn-in hides.
#ifndef PFQL_EVAL_RESUMABLE_H_
#define PFQL_EVAL_RESUMABLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datalog/engine.h"
#include "datalog/program.h"
#include "eval/backend.h"
#include "lang/interpretation.h"
#include "markov/compiled_chain.h"
#include "relational/instance.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace eval {

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
  /// Total budget in sample units (burn-in included for mcmc).
  size_t budget = 0;
  size_t total_steps = 0;
  /// Sampler-specific extras.
  size_t runs_completed = 0;   ///< trajectory only
  std::string backend;         ///< "interpreted"/"compiled" when meaningful
};

/// A sampler that advances in quanta. Not thread-safe: the scheduler
/// guarantees at most one RunQuantum at a time per sampler.
class ResumableSampler {
 public:
  virtual ~ResumableSampler() = default;

  /// Advances by up to `quantum` sample units (fewer when the budget runs
  /// out first). Returns non-OK on a hard evaluation error or an injected
  /// fault; cancellation surfaces as Cancelled/DeadlineExceeded. The
  /// snapshot is valid after every successful return.
  virtual Status RunQuantum(size_t quantum,
                            const CancellationToken* cancel) = 0;

  const SamplerSnapshot& snapshot() const { return snap_; }
  /// Budget fully consumed — the scheduler must complete the subscription.
  bool Exhausted() const { return snap_.samples >= snap_.budget; }

 protected:
  SamplerSnapshot snap_;
};

// ---- Thm 4.3 inflationary sampler, one fixpoint sample per unit --------

struct ResumableApproxOptions {
  double epsilon = 0.05;
  double delta = 0.05;
  uint64_t seed = 42;
  /// Overrides the Hoeffding budget when > 0.
  size_t max_samples = 0;
};

class ResumableApprox : public ResumableSampler {
 public:
  /// `program` and `edb` are shared so the owning subscription can outlive
  /// the registry entries they were resolved from.
  ResumableApprox(std::shared_ptr<const datalog::Program> program,
                  std::shared_ptr<const Instance> edb, QueryEvent event,
                  const ResumableApproxOptions& options);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

 private:
  const std::shared_ptr<const datalog::Program> program_;
  const std::shared_ptr<const Instance> edb_;
  const QueryEvent event_;
  const double delta_;
  Rng rng_;
  size_t hits_ = 0;
  /// Planned on the first quantum; every later quantum reuses it.
  std::shared_ptr<const datalog::InflationaryPlan> plan_;
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
  /// First-quantum setup: compile attempt per `backend`, chain states
  /// seeded at `initial`, per-chain RNG forks.
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
  ResumableTrajectory(Interpretation kernel, Instance initial,
                      QueryEvent event,
                      const ResumableTrajectoryOptions& options);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

 private:
  Status Initialize(const CancellationToken* cancel);
  void FinishRun();
  void RefreshSnapshot();

  const Interpretation kernel_;
  const Instance initial_;
  const QueryEvent event_;
  const ResumableTrajectoryOptions options_;
  Rng rng_;

  bool initialized_ = false;
  std::shared_ptr<const CompiledSpace> compiled_;
  std::vector<uint8_t> event_states_;
  uint32_t state_id_ = 0;
  Instance state_instance_;

  size_t run_step_ = 0;  ///< steps taken in the in-progress run
  size_t run_hits_ = 0;  ///< post-discard hits in the in-progress run
  std::vector<double> per_run_;
};

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_RESUMABLE_H_
