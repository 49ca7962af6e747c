#include "eval/resumable.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pfql {
namespace eval {

size_t HoeffdingCount(double epsilon, double delta) {
  const double m = std::log(2.0 / delta) / (2.0 * epsilon * epsilon);
  return static_cast<size_t>(std::ceil(m));
}

namespace {

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

// The iid estimate of approx and restart mcmc: the event frequency.
void RefreshIid(double delta, SamplerSnapshot* snap) {
  snap->estimate = snap->samples == 0
                       ? 0.0
                       : static_cast<double>(snap->hits) /
                             static_cast<double>(snap->samples);
  snap->ci_halfwidth = HoeffdingHalfwidth(delta, snap->samples);
}

std::vector<uint8_t> EventIndicator(const CompiledSpace& compiled,
                                    const QueryEvent& event) {
  const std::vector<bool> indicator = compiled.space.EventStates(event);
  return std::vector<uint8_t>(indicator.begin(), indicator.end());
}

}  // namespace

StatusOr<std::vector<uint8_t>> EventIndicator(const CompiledSpace& compiled,
                                              const EventExpr& event) {
  const std::vector<Instance>& states = compiled.space.states;
  std::vector<uint8_t> indicator(states.size(), 0);
  for (size_t s = 0; s < states.size(); ++s) {
    PFQL_ASSIGN_OR_RETURN(bool holds, event.Holds(states[s]));
    indicator[s] = holds ? 1 : 0;
  }
  return indicator;
}

// ---- ResumableApprox ---------------------------------------------------

ResumableApprox::ResumableApprox(PlanSource plan_source, QueryEvent event,
                                 size_t budget, double delta, Rng rng)
    : plan_source_(std::move(plan_source)),
      event_(std::move(event)),
      delta_(delta),
      rng_(rng) {
  snap_.budget = budget;
}

ResumableApprox::ResumableApprox(
    std::shared_ptr<const datalog::Program> program,
    std::shared_ptr<const Instance> edb, QueryEvent event,
    const ResumableApproxOptions& options)
    : ResumableApprox(
          [program = std::move(program), edb = std::move(edb),
           plan = PlanPtr()](Rng*) mutable -> StatusOr<PlanPtr> {
            if (plan == nullptr) {
              PFQL_ASSIGN_OR_RETURN(
                  plan, datalog::InflationaryPlan::Make(*program, *edb));
            }
            return plan;
          },
          std::move(event),
          options.max_samples > 0
              ? options.max_samples
              : HoeffdingCount(options.epsilon, options.delta),
          options.delta, Rng(options.seed)) {}

Status ResumableApprox::RunQuantum(size_t quantum,
                                   const CancellationToken* cancel) {
  size_t done = 0;
  while (done < quantum && snap_.samples < snap_.budget) {
    if (cancel != nullptr) PFQL_RETURN_NOT_OK(cancel->Check());
    PFQL_ASSIGN_OR_RETURN(PlanPtr plan, plan_source_(&rng_));
    datalog::InflationaryEngine engine(std::move(plan));
    auto fixpoint = engine.RunToFixpoint(&rng_);
    if (!fixpoint.ok()) return fixpoint.status();
    snap_.total_steps += engine.steps_taken();
    if (event_.Holds(*fixpoint)) ++snap_.hits;
    ++snap_.samples;
    ++done;
  }
  RefreshIid(delta_, &snap_);
  return Status::OK();
}

// ---- ResumableMcmcRestart ----------------------------------------------

ResumableMcmcRestart::ResumableMcmcRestart(
    const ForeverQuery& query, const Instance& initial,
    std::shared_ptr<const CompiledSpace> compiled, size_t burn_in,
    size_t budget, double delta, Rng rng)
    : query_(query),
      initial_(initial),
      compiled_(std::move(compiled)),
      burn_in_(burn_in),
      delta_(delta),
      rng_(rng) {
  snap_.budget = budget;
  if (compiled_ != nullptr) {
    event_states_ = EventIndicator(*compiled_, query_.event);
    snap_.backend = "compiled";
  } else {
    snap_.backend = "interpreted";
  }
}

Status ResumableMcmcRestart::RunQuantum(size_t quantum,
                                        const CancellationToken* cancel) {
  size_t done = 0;
  if (compiled_ != nullptr) {
    // Samples advance as a batch of walkers, all restarted at the initial
    // state (id 0); a batch cut short by a deadline counts none of them.
    while (done < quantum && snap_.samples < snap_.budget) {
      const size_t batch = std::min(
          {kChunk, quantum - done, snap_.budget - snap_.samples});
      walkers_.assign(batch, 0);
      PFQL_RETURN_NOT_OK(
          compiled_->chain.StepBatch(&walkers_, burn_in_, &rng_, cancel));
      for (uint32_t w : walkers_) {
        if (event_states_[w] != 0) ++snap_.hits;
      }
      snap_.samples += batch;
      snap_.total_steps += batch * burn_in_;
      done += batch;
    }
  } else {
    poller_.Rebind(cancel);
    while (done < quantum && snap_.samples < snap_.budget) {
      // A sample interrupted mid-burn-in never counts.
      Instance state = initial_;
      for (size_t t = 0; t < burn_in_; ++t) {
        PFQL_RETURN_NOT_OK(poller_.Tick());
        PFQL_ASSIGN_OR_RETURN(state, query_.kernel.ApplySample(state, &rng_));
      }
      snap_.total_steps += burn_in_;
      if (query_.event.Holds(state)) ++snap_.hits;
      ++snap_.samples;
      ++done;
    }
  }
  RefreshIid(delta_, &snap_);
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
  snap_.budget = options_.max_samples > 0
                     ? options_.max_samples
                     : 4 * HoeffdingCount(options_.epsilon, options_.delta) +
                           chains * options_.burn_in;
}

Status ResumableMcmcChains::Initialize(const CancellationToken* cancel) {
  const size_t chains = std::max<size_t>(2, options_.num_chains);
  CompileOptions copts;
  copts.max_states = options_.compile_max_states;
  copts.cancel = cancel;
  PFQL_ASSIGN_OR_RETURN(
      compiled_, ResolveBackend(kernel_, initial_, options_.backend, copts));
  if (compiled_ != nullptr) {
    event_states_ = EventIndicator(*compiled_, event_);
    state_ids_.assign(chains, 0);  // state 0 is the initial instance
    snap_.backend = "compiled";
  } else {
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
    Interpretation kernel, Instance initial, EventExpr::Ptr event,
    const ResumableTrajectoryOptions& options, Rng rng)
    : kernel_(std::move(kernel)),
      initial_(std::move(initial)),
      event_(std::move(event)),
      options_(options),
      discard_(static_cast<size_t>(options.discard_fraction *
                                   static_cast<double>(options.steps))),
      rng_(rng) {
  snap_.budget = options_.steps * options_.runs;
}

ResumableTrajectory::ResumableTrajectory(
    Interpretation kernel, Instance initial, QueryEvent event,
    const ResumableTrajectoryOptions& options)
    : ResumableTrajectory(std::move(kernel), std::move(initial),
                          EventExpr::From(event), options,
                          Rng(options.seed)) {}

Status ResumableTrajectory::Initialize(const CancellationToken* cancel) {
  CompileOptions copts;
  copts.max_states = options_.compile_max_states;
  copts.cancel = cancel;
  PFQL_ASSIGN_OR_RETURN(
      compiled_, ResolveBackend(kernel_, initial_, options_.backend, copts));
  if (compiled_ != nullptr) {
    PFQL_ASSIGN_OR_RETURN(event_states_, EventIndicator(*compiled_, *event_));
    snap_.backend = "compiled";
  } else {
    snap_.backend = "interpreted";
  }
  per_run_.reserve(options_.runs);
  initialized_ = true;
  return Status::OK();
}

Status ResumableTrajectory::RunQuantum(size_t quantum,
                                       const CancellationToken* cancel) {
  if (!initialized_) PFQL_RETURN_NOT_OK(Initialize(cancel));
  poller_.Rebind(cancel);
  size_t done = 0;
  while (done < quantum && snap_.samples < snap_.budget) {
    PFQL_RETURN_NOT_OK(poller_.Tick());
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
      holds = run_step_ >= discard_ && event_states_[state_id_] != 0;
    } else {
      PFQL_ASSIGN_OR_RETURN(state_instance_,
                            kernel_.ApplySample(state_instance_, &rng_));
      if (run_step_ >= discard_) {
        PFQL_ASSIGN_OR_RETURN(holds, event_->Holds(state_instance_));
      }
    }
    ++snap_.total_steps;
    ++snap_.samples;
    ++run_step_;
    ++done;
    if (holds) ++run_hits_;
    if (run_step_ == options_.steps) FinishRun();
  }
  RefreshSnapshot();
  return Status::OK();
}

void ResumableTrajectory::FinishRun() {
  const size_t counted = options_.steps - discard_;
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

// ---- The one-shot driver -----------------------------------------------

std::vector<SamplerPtr> ForkWorkers(
    size_t budget, size_t threads, Rng* rng,
    const std::function<SamplerPtr(size_t share, Rng stream)>& make) {
  const size_t workers = std::max<size_t>(1, std::min(threads, budget));
  std::vector<SamplerPtr> samplers;
  samplers.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    const size_t share = budget / workers + (w < budget % workers ? 1 : 0);
    samplers.push_back(make(share, rng->Fork()));
  }
  return samplers;
}

namespace {

// What stopped one worker, and how far it got.
struct WorkerOutcome {
  Status stop;               ///< OK when the budget ran out
  bool interrupted = false;  ///< stop is a cancel, deadline or fault
  size_t completed = 0;      ///< units of quanta that returned OK
};

// Runs one sampler to exhaustion. Before each quantum it fires the fault
// point for every `fault_stride` units the quantum will take; a fault
// shortens the quantum to the units before it, which still run.
WorkerOutcome DriveWorker(ResumableSampler* sampler, const DriveSpec& spec) {
  WorkerOutcome out;
  while (!sampler->Exhausted()) {
    const SamplerSnapshot& snap = sampler->snapshot();
    size_t planned = std::min(spec.chunk, snap.budget - snap.samples);
    for (size_t unit = 0; unit < planned; unit += spec.fault_stride) {
      if (fault::InjectFault(spec.fault_point)) {
        out.stop = fault::InjectedError(spec.fault_point);
        out.interrupted = true;
        planned = unit;
        break;
      }
    }
    if (planned > 0) {
      Status status = sampler->RunQuantum(planned, spec.cancel);
      if (!status.ok()) {
        out.interrupted = status.code() == StatusCode::kCancelled ||
                          status.code() == StatusCode::kDeadlineExceeded;
        out.stop = std::move(status);
        return out;
      }
      out.completed = sampler->snapshot().samples;
    }
    if (!out.stop.ok()) return out;
  }
  return out;
}

}  // namespace

StatusOr<DriveResult> DriveToBudget(const std::vector<SamplerPtr>& workers,
                                    const DriveSpec& spec) {
  std::vector<WorkerOutcome> outcomes(workers.size());
  const auto started = std::chrono::steady_clock::now();
  if (workers.size() == 1) {
    trace::Span worker_span(spec.span);
    outcomes[0] = DriveWorker(workers[0].get(), spec);
  } else {
    // Worker threads join the request's trace by installing the spawning
    // thread's context.
    const trace::Context ctx = trace::Current();
    std::vector<std::thread> pool;
    pool.reserve(workers.size());
    for (size_t w = 0; w < workers.size(); ++w) {
      pool.emplace_back([&, w] {
        trace::ScopedContext sc(ctx);
        trace::Span worker_span(spec.span);
        outcomes[w] = DriveWorker(workers[w].get(), spec);
      });
    }
    for (auto& t : pool) t.join();
  }

  DriveResult run;
  run.elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  for (size_t w = 0; w < workers.size(); ++w) {
    const Status& stop = outcomes[w].stop;
    if (!stop.ok()) {
      if (!spec.allow_partial || !outcomes[w].interrupted) return stop;
      if (run.interruption.ok()) run.interruption = stop;
    }
    const SamplerSnapshot& snap = workers[w]->snapshot();
    run.samples += outcomes[w].completed;
    run.hits += snap.hits;
    run.total_steps += snap.total_steps;
  }
  if (!run.interruption.ok()) {
    if (run.samples == 0) return run.interruption;
    run.degraded = true;
  }
  return run;
}

void CountDrive(const char* kind, const DriveResult& run, bool compiled) {
  auto& registry = metrics::MetricRegistry::Instance();
  const std::string labels = std::string("kind=\"") + kind + "\"";
  registry.GetCounter("pfql_sampler_samples_total", labels)
      ->Increment(run.samples);
  registry.GetCounter("pfql_sampler_steps_total", labels)
      ->Increment(run.total_steps);
  if (compiled) {
    CountCompiledSteps(kind, run.total_steps, run.elapsed_us);
  } else if (run.elapsed_us > 0 && run.samples > 0) {
    registry.GetGauge("pfql_sampler_samples_per_sec", labels)
        ->Set(static_cast<int64_t>(run.samples) * 1000000 / run.elapsed_us);
  }
}

void CountCompiledSteps(const char* kind, size_t steps, int64_t elapsed_us) {
  auto& registry = metrics::MetricRegistry::Instance();
  const std::string labels = std::string("kind=\"") + kind + "\"";
  registry.GetCounter("pfql_compiled_steps_total", labels)->Increment(steps);
  if (elapsed_us > 0 && steps > 0) {
    registry.GetGauge("pfql_compiled_steps_per_sec", labels)
        ->Set(static_cast<int64_t>(steps) * 1000000 / elapsed_us);
  }
}

}  // namespace eval
}  // namespace pfql
