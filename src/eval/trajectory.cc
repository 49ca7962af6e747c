#include "eval/trajectory.h"

#include <chrono>
#include <memory>
#include <utility>

#include "eval/resumable.h"
#include "markov/compiled_chain.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pfql {
namespace eval {

namespace {

// Counts one call's completed runs and steps taken, on every exit past
// the backend choice (errors included), once per call so the per-step loop
// stays untouched.
void CountTrajectory(size_t runs, size_t steps) {
  auto& registry = metrics::MetricRegistry::Instance();
  static metrics::Counter* const runs_counter =
      registry.GetCounter("pfql_trajectory_runs_total");
  static metrics::Counter* const steps_counter =
      registry.GetCounter("pfql_sampler_steps_total", "kind=\"trajectory\"");
  runs_counter->Increment(runs);
  steps_counter->Increment(steps);
}

// Compiled-tier time averaging: all runs advance in one walker batch, hit
// counting happens inside the wave loop (StepBatchCounting). The fault
// point still fires once per run, before the batch starts; a fault at run
// r truncates the batch to the completed prefix of r runs.
StatusOr<TrajectoryResult> TimeAverageCompiled(const CompiledSpace& compiled,
                                               const EventExpr::Ptr& event,
                                               const TrajectoryParams& params,
                                               size_t discard, Rng* rng) {
  trace::Span span("trajectory.sample");
  TrajectoryResult result;
  result.compiled = true;
  result.compiled_states = compiled.chain.num_states();
  result.compiled_edges = compiled.chain.num_edges();
  result.runs_requested = params.runs;

  PFQL_ASSIGN_OR_RETURN(std::vector<uint8_t> event_states,
                        EventIndicator(compiled, *event));

  size_t planned = params.runs;
  Status fault_interruption;
  for (size_t run = 0; run < params.runs; ++run) {
    if (fault::InjectFault(fault::points::kTrajectoryRun)) {
      fault_interruption = fault::InjectedError(fault::points::kTrajectoryRun);
      planned = run;
      break;
    }
  }

  const auto started = std::chrono::steady_clock::now();
  std::vector<uint64_t> hits;
  if (planned > 0) {
    std::vector<uint32_t> walkers(planned, 0);  // all runs start at initial
    Status stepped =
        compiled.chain.StepBatchCounting(&walkers, params.steps, discard,
                                         event_states, &hits, rng,
                                         params.cancel);
    if (!stepped.ok()) {
      // Runs advance in lockstep: an interruption mid-batch leaves no
      // completed run to salvage, degraded or not.
      return stepped;
    }
  }

  const size_t counted = params.steps - discard;
  double total = 0.0;
  for (size_t run = 0; run < planned; ++run) {
    const double avg = counted == 0 ? 0.0
                                    : static_cast<double>(hits[run]) /
                                          static_cast<double>(counted);
    result.per_run.push_back(avg);
    total += avg;
  }
  result.total_steps = planned * params.steps;
  CountTrajectory(result.per_run.size(), result.total_steps);

  CountCompiledSteps("trajectory", result.total_steps,
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - started)
                         .count());

  if (!fault_interruption.ok()) {
    if (!params.allow_partial || result.per_run.empty()) {
      return fault_interruption;
    }
    result.degraded = true;
    result.interruption = std::move(fault_interruption);
    result.estimate = total / static_cast<double>(result.per_run.size());
    return result;
  }
  result.estimate = total / static_cast<double>(params.runs);
  return result;
}

}  // namespace

StatusOr<TrajectoryResult> TimeAverageEstimate(const Interpretation& kernel,
                                               const Instance& initial,
                                               const EventExpr::Ptr& event,
                                               const TrajectoryParams& params,
                                               Rng* rng) {
  if (event == nullptr) return Status::InvalidArgument("null event");
  if (params.steps == 0 || params.runs == 0) {
    return Status::InvalidArgument("steps and runs must be positive");
  }
  if (params.discard_fraction < 0.0 || params.discard_fraction >= 1.0) {
    return Status::InvalidArgument("discard_fraction must be in [0, 1)");
  }
  const size_t discard =
      static_cast<size_t>(params.discard_fraction *
                          static_cast<double>(params.steps));

  CompileOptions copts;
  copts.max_states = params.compile_max_states;
  copts.cancel = params.cancel;
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledSpace> compiled,
                        ResolveBackend(kernel, initial, params.backend, copts));
  if (compiled != nullptr) {
    return TimeAverageCompiled(*compiled, event, params, discard, rng);
  }

  // Interpreted tier: one resumable walker drawing from the caller's
  // stream, one run per quantum, so the fault point fires once per run and
  // a run cut short never counts.
  ResumableTrajectoryOptions options;
  options.steps = params.steps;
  options.runs = params.runs;
  options.discard_fraction = params.discard_fraction;
  options.backend = Backend::kInterpreted;
  auto walker = std::make_unique<ResumableTrajectory>(kernel, initial, event,
                                                      options, *rng);
  const ResumableTrajectory& sampler = *walker;
  std::vector<SamplerPtr> workers;
  workers.push_back(std::move(walker));
  DriveSpec spec;
  spec.span = "trajectory.sample";
  spec.fault_point = fault::points::kTrajectoryRun;
  spec.fault_stride = params.steps;
  spec.chunk = params.steps;
  spec.cancel = params.cancel;
  spec.allow_partial = params.allow_partial;
  StatusOr<DriveResult> run = DriveToBudget(workers, spec);
  *rng = sampler.rng();
  CountTrajectory(sampler.per_run().size(), sampler.snapshot().total_steps);
  PFQL_RETURN_NOT_OK(run.status());

  TrajectoryResult result;
  result.runs_requested = params.runs;
  result.per_run = sampler.per_run();
  result.total_steps = sampler.snapshot().total_steps;
  // Every quantum ends on a run boundary, so the snapshot's estimate is the
  // mean over exactly the completed runs.
  result.estimate = sampler.snapshot().estimate;
  result.degraded = run->degraded;
  result.interruption = run->interruption;
  return result;
}

StatusOr<TrajectoryResult> TimeAverageEstimate(const ForeverQuery& query,
                                               const Instance& initial,
                                               const TrajectoryParams& params,
                                               Rng* rng) {
  return TimeAverageEstimate(query.kernel, initial,
                             EventExpr::From(query.event), params, rng);
}

}  // namespace eval
}  // namespace pfql
