#include "eval/noninflationary.h"

#include <memory>

#include "eval/resumable.h"
#include "util/fault_injection.h"

namespace pfql {
namespace eval {

StatusOr<ExactForeverResult> ExactForever(const ForeverQuery& query,
                                          const Instance& initial,
                                          const StateSpaceOptions& options) {
  return ExactForeverEvent(query.kernel, initial,
                           EventExpr::From(query.event), options);
}

StatusOr<ExactForeverResult> ExactForeverEvent(
    const Interpretation& kernel, const Instance& initial,
    const EventExpr::Ptr& event, const StateSpaceOptions& options) {
  if (event == nullptr) return Status::InvalidArgument("null event");
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(kernel, initial, options));
  ExactForeverResult result;
  result.num_states = space.states.size();

  SccDecomposition scc = space.chain.DecomposeScc();
  result.num_components = scc.components.size();
  for (bool b : scc.is_bottom) {
    if (b) ++result.num_bottom;
  }
  result.irreducible = result.num_components == 1;
  result.aperiodic = space.chain.IsAperiodic(scc);

  std::vector<bool> indicator(space.states.size(), false);
  for (size_t s = 0; s < space.states.size(); ++s) {
    PFQL_ASSIGN_OR_RETURN(bool holds, event->Holds(space.states[s]));
    indicator[s] = holds;
  }
  PFQL_ASSIGN_OR_RETURN(result.probability,
                        space.chain.ExactLongRunProbability(
                            0, [&](size_t s) { return indicator[s]; }));
  return result;
}

size_t McmcParams::SampleCount() const {
  return HoeffdingCount(epsilon, delta);
}

StatusOr<McmcResult> McmcForever(const ForeverQuery& query,
                                 const Instance& initial,
                                 const McmcParams& params, Rng* rng) {
  CompileOptions copts;
  copts.max_states = params.compile_max_states;
  copts.threads = params.threads;
  copts.cancel = params.cancel;
  PFQL_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledSpace> compiled,
      ResolveBackend(query.kernel, initial, params.backend, copts));

  McmcResult result;
  result.samples_requested = params.BudgetedSamples();
  const std::vector<SamplerPtr> workers = ForkWorkers(
      result.samples_requested, params.threads, rng,
      [&](size_t share, Rng stream) -> SamplerPtr {
        return std::make_unique<ResumableMcmcRestart>(
            query, initial, compiled, params.burn_in, share, params.delta,
            stream);
      });
  DriveSpec spec;
  spec.span = "mcmc.worker";
  spec.fault_point = fault::points::kMcmcSample;
  // The compiled tier steps up to a batch of walkers per quantum, with the
  // batch's per-sample fault checks fired ahead of it.
  spec.chunk = compiled != nullptr ? ResumableMcmcRestart::kChunk : 1;
  spec.cancel = params.cancel;
  spec.allow_partial = params.allow_partial;
  PFQL_ASSIGN_OR_RETURN(DriveResult run, DriveToBudget(workers, spec));
  CountDrive("mcmc", run, compiled != nullptr);
  result.samples = run.samples;
  result.total_steps = run.total_steps;
  result.degraded = run.degraded;
  result.interruption = run.interruption;
  result.estimate = run.samples == 0 ? 0.0
                                     : static_cast<double>(run.hits) /
                                           static_cast<double>(run.samples);
  if (compiled != nullptr) {
    result.compiled = true;
    result.compiled_states = compiled->chain.num_states();
    result.compiled_edges = compiled->chain.num_edges();
  }
  return result;
}

StatusOr<size_t> MeasureMixingTime(const Interpretation& kernel,
                                   const Instance& initial, double epsilon,
                                   const StateSpaceOptions& options,
                                   size_t max_steps) {
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(kernel, initial, options));
  return space.chain.MixingTimeFrom(0, epsilon, max_steps);
}

StatusOr<size_t> MeasureMixingTimeTV(const Interpretation& kernel,
                                     const Instance& initial, double epsilon,
                                     const StateSpaceOptions& options,
                                     size_t max_steps) {
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(kernel, initial, options));
  return space.chain.TvMixingTimeFrom(0, epsilon, max_steps);
}

}  // namespace eval
}  // namespace pfql
