#include "eval/resumable.h"

#include <algorithm>
#include <cmath>

#include "eval/noninflationary.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace pfql {
namespace eval {

namespace {

// Hoeffding count m = ⌈ln(2/δ)/(2ε²)⌉ (same constant as ApproxParams /
// McmcParams::SampleCount).
size_t HoeffdingCount(double epsilon, double delta) {
  const double m = std::log(2.0 / delta) / (2.0 * epsilon * epsilon);
  return static_cast<size_t>(std::ceil(m));
}

// Two-sided Hoeffding halfwidth at confidence 1-δ after k iid samples.
double HoeffdingHalfwidth(double delta, size_t k) {
  if (k == 0) return 1.0;
  return std::min(
      1.0, std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(k))));
}

// Sub-Gaussian z-score: a bounded [0,1] mean is sub-Gaussian with σ² ≤ 1/4,
// so z = sqrt(2 ln(2/δ)) gives a distribution-free two-sided bound without
// an inverse-normal table.
double SubGaussianZ(double delta) { return std::sqrt(2.0 * std::log(2.0 / delta)); }

void CountSchedulerSamples(const char* kind, size_t n) {
  if (n == 0) return;
  auto& registry = metrics::MetricRegistry::Instance();
  std::string labels = std::string("kind=\"") + kind + "\"";
  registry.GetCounter("pfql_sched_samples_total", labels)->Increment(n);
}

}  // namespace

// ---- ResumableApprox ---------------------------------------------------

ResumableApprox::ResumableApprox(
    std::shared_ptr<const datalog::Program> program,
    std::shared_ptr<const Instance> edb, QueryEvent event,
    const ResumableApproxOptions& options)
    : program_(std::move(program)),
      edb_(std::move(edb)),
      event_(std::move(event)),
      delta_(options.delta),
      rng_(options.seed) {
  snap_.budget = options.max_samples > 0
                     ? options.max_samples
                     : HoeffdingCount(options.epsilon, options.delta);
}

Status ResumableApprox::RunQuantum(size_t quantum,
                                   const CancellationToken* cancel) {
  // One fault check per quantum (the scheduler's wave granularity); a fire
  // surfaces as an error completion on every fused subscriber.
  if (fault::InjectFault(fault::points::kApproxSample)) {
    return fault::InjectedError(fault::points::kApproxSample);
  }
  size_t done = 0;
  while (done < quantum && snap_.samples < snap_.budget) {
    if (cancel != nullptr) PFQL_RETURN_NOT_OK(cancel->Check());
    if (plan_ == nullptr) {
      PFQL_ASSIGN_OR_RETURN(plan_,
                            datalog::InflationaryPlan::Make(*program_, *edb_));
    }
    datalog::InflationaryEngine engine(plan_);
    auto fixpoint = engine.RunToFixpoint(&rng_);
    if (!fixpoint.ok()) return fixpoint.status();
    snap_.total_steps += engine.steps_taken();
    if (event_.Holds(*fixpoint)) ++hits_;
    ++snap_.samples;
    ++done;
  }
  snap_.estimate = snap_.samples == 0 ? 0.0
                                      : static_cast<double>(hits_) /
                                            static_cast<double>(snap_.samples);
  snap_.ci_halfwidth = HoeffdingHalfwidth(delta_, snap_.samples);
  CountSchedulerSamples("approx", done);
  return Status::OK();
}

// ---- ResumableMcmcChains -----------------------------------------------

ResumableMcmcChains::ResumableMcmcChains(Interpretation kernel,
                                         Instance initial, QueryEvent event,
                                         const ResumableMcmcOptions& options)
    : kernel_(std::move(kernel)),
      initial_(std::move(initial)),
      event_(std::move(event)),
      options_(options),
      master_rng_(options.seed) {
  const size_t chains = std::max<size_t>(2, options_.num_chains);
  const size_t recording =
      options_.max_samples > 0
          ? options_.max_samples
          : 4 * HoeffdingCount(options_.epsilon, options_.delta) +
                chains * options_.burn_in;
  snap_.budget = recording;
}

Status ResumableMcmcChains::Initialize(const CancellationToken* cancel) {
  const size_t chains = std::max<size_t>(2, options_.num_chains);
  if (options_.backend != Backend::kInterpreted) {
    CompileOptions copts;
    copts.max_states = options_.compile_max_states;
    copts.cancel = cancel;
    auto compiled = GetOrCompile(kernel_, initial_, copts);
    if (compiled.ok()) {
      compiled_ = *compiled;
      const std::vector<bool> indicator =
          compiled_->space.EventStates(event_);
      event_states_.assign(indicator.begin(), indicator.end());
      state_ids_.assign(chains, 0);  // state 0 is the initial instance
      snap_.backend = "compiled";
    } else if (options_.backend == Backend::kCompiled) {
      return ForcedCompileError(compiled.status());
    } else if (compiled.status().code() != StatusCode::kResourceExhausted) {
      return compiled.status();
    }
  }
  if (compiled_ == nullptr) {
    state_instances_.assign(chains, initial_);
    snap_.backend = "interpreted";
  }
  chain_rngs_.reserve(chains);
  for (size_t c = 0; c < chains; ++c) chain_rngs_.push_back(master_rng_.Fork());
  burn_left_.assign(chains, options_.burn_in);
  stats_.assign(chains, ChainStats{});
  initialized_ = true;
  return Status::OK();
}

Status ResumableMcmcChains::StepChain(size_t c) {
  bool holds = false;
  if (compiled_ != nullptr) {
    state_ids_[c] = compiled_->chain.Step(state_ids_[c], &chain_rngs_[c]);
    holds = event_states_[state_ids_[c]] != 0;
  } else {
    auto next = kernel_.ApplySample(state_instances_[c], &chain_rngs_[c]);
    if (!next.ok()) return next.status();
    state_instances_[c] = std::move(next).value();
    holds = event_.Holds(state_instances_[c]);
  }
  ++snap_.total_steps;
  ++snap_.samples;  // burn-in consumes budget too; it is real work
  if (burn_left_[c] > 0) {
    --burn_left_[c];
  } else {
    ++stats_[c].count;
    if (holds) stats_[c].sum += 1.0;
  }
  return Status::OK();
}

Status ResumableMcmcChains::RunQuantum(size_t quantum,
                                       const CancellationToken* cancel) {
  if (fault::InjectFault(fault::points::kMcmcSample)) {
    return fault::InjectedError(fault::points::kMcmcSample);
  }
  if (!initialized_) PFQL_RETURN_NOT_OK(Initialize(cancel));
  const size_t chains = stats_.size();
  CancelPoller poller(cancel);
  size_t done = 0;
  while (done < quantum && snap_.samples < snap_.budget) {
    PFQL_RETURN_NOT_OK(poller.Tick());
    PFQL_RETURN_NOT_OK(StepChain(next_chain_));
    next_chain_ = (next_chain_ + 1) % chains;
    ++done;
  }
  // Checkpoint each chain at the quantum boundary so split-R̂ can halve the
  // recorded stream without a per-sample history. Compact geometrically if
  // a long-lived subscription accumulates thousands of boundaries.
  for (ChainStats& s : stats_) {
    if (!s.checkpoints.empty() && s.checkpoints.back().first == s.count) {
      continue;
    }
    s.checkpoints.emplace_back(s.count, s.sum);
    if (s.checkpoints.size() > 4096) {
      std::vector<std::pair<size_t, double>> kept;
      kept.reserve(s.checkpoints.size() / 2 + 1);
      for (size_t i = 0; i < s.checkpoints.size(); i += 2) {
        kept.push_back(s.checkpoints[i]);
      }
      kept.back() = s.checkpoints.back();
      s.checkpoints = std::move(kept);
    }
  }
  RefreshSnapshot();
  CountSchedulerSamples("mcmc", done);
  return Status::OK();
}

void ResumableMcmcChains::RefreshSnapshot() {
  size_t count = 0;
  double sum = 0.0;
  for (const ChainStats& s : stats_) {
    count += s.count;
    sum += s.sum;
  }
  snap_.estimate = count == 0 ? 0.0 : sum / static_cast<double>(count);
  // Optimistic iid bound over the pooled indicators; the scheduler replaces
  // it with the cross-chain var⁺ bound (sched/convergence.h) which also
  // accounts for between-chain disagreement.
  snap_.ci_halfwidth = HoeffdingHalfwidth(options_.delta, count);
}

// ---- ResumableTrajectory -----------------------------------------------

ResumableTrajectory::ResumableTrajectory(
    Interpretation kernel, Instance initial, QueryEvent event,
    const ResumableTrajectoryOptions& options)
    : kernel_(std::move(kernel)),
      initial_(std::move(initial)),
      event_(std::move(event)),
      options_(options),
      rng_(options.seed) {
  snap_.budget = options_.steps * options_.runs;
}

Status ResumableTrajectory::Initialize(const CancellationToken* cancel) {
  if (options_.backend != Backend::kInterpreted) {
    CompileOptions copts;
    copts.max_states = options_.compile_max_states;
    copts.cancel = cancel;
    auto compiled = GetOrCompile(kernel_, initial_, copts);
    if (compiled.ok()) {
      compiled_ = *compiled;
      const std::vector<bool> indicator =
          compiled_->space.EventStates(event_);
      event_states_.assign(indicator.begin(), indicator.end());
      snap_.backend = "compiled";
    } else if (options_.backend == Backend::kCompiled) {
      return ForcedCompileError(compiled.status());
    } else if (compiled.status().code() != StatusCode::kResourceExhausted) {
      return compiled.status();
    }
  }
  if (compiled_ == nullptr) {
    state_instance_ = initial_;
    snap_.backend = "interpreted";
  }
  per_run_.reserve(options_.runs);
  initialized_ = true;
  return Status::OK();
}

Status ResumableTrajectory::RunQuantum(size_t quantum,
                                       const CancellationToken* cancel) {
  if (fault::InjectFault(fault::points::kTrajectoryRun)) {
    return fault::InjectedError(fault::points::kTrajectoryRun);
  }
  if (!initialized_) PFQL_RETURN_NOT_OK(Initialize(cancel));
  const size_t discard = static_cast<size_t>(
      options_.discard_fraction * static_cast<double>(options_.steps));
  CancelPoller poller(cancel);
  size_t done = 0;
  while (done < quantum && snap_.samples < snap_.budget) {
    PFQL_RETURN_NOT_OK(poller.Tick());
    if (run_step_ == 0) {  // fresh run: restart the walker at the initial
      if (compiled_ != nullptr) {
        state_id_ = 0;
      } else {
        state_instance_ = initial_;
      }
      run_hits_ = 0;
    }
    bool holds = false;
    if (compiled_ != nullptr) {
      state_id_ = compiled_->chain.Step(state_id_, &rng_);
      holds = event_states_[state_id_] != 0;
    } else {
      auto next = kernel_.ApplySample(state_instance_, &rng_);
      if (!next.ok()) return next.status();
      state_instance_ = std::move(next).value();
      holds = event_.Holds(state_instance_);
    }
    ++snap_.total_steps;
    ++snap_.samples;
    ++run_step_;
    ++done;
    if (run_step_ > discard && holds) ++run_hits_;
    if (run_step_ == options_.steps) FinishRun();
  }
  RefreshSnapshot();
  CountSchedulerSamples("trajectory", done);
  return Status::OK();
}

void ResumableTrajectory::FinishRun() {
  const size_t discard = static_cast<size_t>(
      options_.discard_fraction * static_cast<double>(options_.steps));
  const size_t counted = options_.steps - discard;
  per_run_.push_back(counted == 0 ? 0.0
                                  : static_cast<double>(run_hits_) /
                                        static_cast<double>(counted));
  run_step_ = 0;
  run_hits_ = 0;
}

void ResumableTrajectory::RefreshSnapshot() {
  snap_.runs_completed = per_run_.size();
  if (per_run_.empty()) {
    snap_.estimate = 0.0;
    snap_.ci_halfwidth = 1.0;
    return;
  }
  double total = 0.0;
  for (double v : per_run_) total += v;
  const double mean = total / static_cast<double>(per_run_.size());
  snap_.estimate = mean;
  if (per_run_.size() < 2) {
    snap_.ci_halfwidth = 1.0;
    return;
  }
  double ss = 0.0;
  for (double v : per_run_) ss += (v - mean) * (v - mean);
  const double var = ss / static_cast<double>(per_run_.size() - 1);
  snap_.ci_halfwidth = std::min(
      1.0, SubGaussianZ(options_.delta) *
               std::sqrt(var / static_cast<double>(per_run_.size())));
}

}  // namespace eval
}  // namespace pfql
