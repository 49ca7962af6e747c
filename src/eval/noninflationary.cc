#include "eval/noninflationary.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pfql {
namespace eval {

StatusOr<ExactForeverResult> ExactForever(const ForeverQuery& query,
                                          const Instance& initial,
                                          const StateSpaceOptions& options) {
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(query.kernel, initial, options));
  ExactForeverResult result;
  result.num_states = space.states.size();

  SccDecomposition scc = space.chain.DecomposeScc();
  result.num_components = scc.components.size();
  for (bool b : scc.is_bottom) {
    if (b) ++result.num_bottom;
  }
  result.irreducible = result.num_components == 1;
  result.aperiodic = space.chain.IsAperiodic(scc);

  std::vector<bool> event_states = space.EventStates(query.event);
  PFQL_ASSIGN_OR_RETURN(
      result.probability,
      space.chain.ExactLongRunProbability(
          0, [&](size_t s) { return event_states[s]; }));
  return result;
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
  const double m = std::log(2.0 / delta) / (2.0 * epsilon * epsilon);
  return static_cast<size_t>(std::ceil(m));
}

namespace {

// `status` is a hard error; `interruption` a cancel/deadline/fault stop
// under allow_partial. A sample interrupted mid-burn-in never counts: only
// fully burned-in samples contribute to `completed` and `hits`.
struct McmcTally {
  size_t hits = 0;
  size_t completed = 0;
  size_t steps = 0;
  Status status;
  Status interruption;
};

void McmcWorker(const ForeverQuery& query, const Instance& initial,
                size_t samples, size_t burn_in,
                const CancellationToken* cancel, bool allow_partial, Rng rng,
                McmcTally* tally) {
  auto interrupt = [&](Status why) {
    if (allow_partial) {
      tally->interruption = std::move(why);
    } else {
      tally->status = std::move(why);
    }
  };
  CancelPoller poller(cancel);
  for (size_t i = 0; i < samples; ++i) {
    if (fault::InjectFault(fault::points::kMcmcSample)) {
      interrupt(fault::InjectedError(fault::points::kMcmcSample));
      return;
    }
    Instance state = initial;
    for (size_t t = 0; t < burn_in; ++t) {
      Status cancelled = poller.Tick();
      if (!cancelled.ok()) {
        interrupt(std::move(cancelled));
        return;
      }
      auto next = query.kernel.ApplySample(state, &rng);
      if (!next.ok()) {
        tally->status = next.status();
        return;
      }
      state = std::move(next).value();
    }
    tally->steps += burn_in;
    if (query.event.Holds(state)) ++tally->hits;
    ++tally->completed;
  }
}

// Compiled-tier restart sampler: the same per-sample semantics as
// McmcWorker (fault point per sample, a sample interrupted mid-burn-in
// never counts), but samples advance as a batch of walkers so one chain
// step is an alias draw instead of a kernel interpretation. Samples run in
// chunks so a deadline mid-batch still leaves the earlier chunks as a
// degraded completed prefix.
void McmcWorkerCompiled(const CompiledChain& chain,
                        const std::vector<uint8_t>& event_states,
                        size_t samples, size_t burn_in,
                        const CancellationToken* cancel, bool allow_partial,
                        Rng rng, McmcTally* tally) {
  constexpr size_t kChunk = 512;
  auto interrupt = [&](Status why) {
    if (allow_partial) {
      tally->interruption = std::move(why);
    } else {
      tally->status = std::move(why);
    }
  };
  std::vector<uint32_t> walkers;
  size_t done = 0;
  while (done < samples) {
    const size_t chunk = std::min(kChunk, samples - done);
    // The fault point fires per sample, exactly as on the interpreted
    // tier; a fault at sample j leaves samples [done, done+j) as the
    // completed prefix of this chunk.
    size_t planned = chunk;
    bool faulted = false;
    for (size_t j = 0; j < chunk; ++j) {
      if (fault::InjectFault(fault::points::kMcmcSample)) {
        interrupt(fault::InjectedError(fault::points::kMcmcSample));
        planned = j;
        faulted = true;
        break;
      }
    }
    if (planned > 0) {
      walkers.assign(planned, 0);  // every sample restarts from `initial`
      Status stepped = chain.StepBatch(&walkers, burn_in, &rng, cancel);
      if (!stepped.ok()) {
        interrupt(std::move(stepped));
        return;
      }
      tally->steps += planned * burn_in;
      for (uint32_t w : walkers) {
        if (event_states[w] != 0) ++tally->hits;
      }
      tally->completed += planned;
    }
    if (faulted) return;
    done += chunk;
  }
}

StatusOr<McmcResult> McmcForeverCompiled(const ForeverQuery& query,
                                         const CompiledSpace& compiled,
                                         const McmcParams& params, Rng* rng) {
  McmcResult result;
  result.compiled = true;
  result.compiled_states = compiled.chain.num_states();
  result.compiled_edges = compiled.chain.num_edges();
  result.samples_requested = params.BudgetedSamples();

  const std::vector<bool> indicator =
      compiled.space.EventStates(query.event);
  const std::vector<uint8_t> event_states(indicator.begin(), indicator.end());

  const size_t workers =
      std::max<size_t>(1, std::min(params.threads, result.samples_requested));
  std::vector<McmcTally> tallies(workers);
  std::vector<size_t> shares(workers, result.samples_requested / workers);
  for (size_t w = 0; w < result.samples_requested % workers; ++w) ++shares[w];

  const auto started = std::chrono::steady_clock::now();
  if (workers == 1) {
    trace::Span worker_span("mcmc.worker");
    McmcWorkerCompiled(compiled.chain, event_states, shares[0],
                       params.burn_in, params.cancel, params.allow_partial,
                       rng->Fork(), &tallies[0]);
  } else {
    const trace::Context ctx = trace::Current();
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w, rng_fork = rng->Fork()]() mutable {
        trace::ScopedContext sc(ctx);
        trace::Span worker_span("mcmc.worker");
        McmcWorkerCompiled(compiled.chain, event_states, shares[w],
                           params.burn_in, params.cancel,
                           params.allow_partial, std::move(rng_fork),
                           &tallies[w]);
      });
    }
    for (auto& t : pool) t.join();
  }

  size_t hits = 0;
  for (const auto& tally : tallies) {
    PFQL_RETURN_NOT_OK(tally.status);
    hits += tally.hits;
    result.samples += tally.completed;
    result.total_steps += tally.steps;
    if (!tally.interruption.ok() && result.interruption.ok()) {
      result.interruption = tally.interruption;
    }
  }

  auto& registry = metrics::MetricRegistry::Instance();
  static metrics::Counter* const samples_counter =
      registry.GetCounter("pfql_sampler_samples_total", "kind=\"mcmc\"");
  static metrics::Counter* const steps_counter =
      registry.GetCounter("pfql_sampler_steps_total", "kind=\"mcmc\"");
  static metrics::Counter* const compiled_steps =
      registry.GetCounter("pfql_compiled_steps_total", "kind=\"mcmc\"");
  static metrics::Gauge* const compiled_rate =
      registry.GetGauge("pfql_compiled_steps_per_sec", "kind=\"mcmc\"");
  samples_counter->Increment(result.samples);
  steps_counter->Increment(result.total_steps);
  compiled_steps->Increment(result.total_steps);
  const int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count();
  if (elapsed_us > 0 && result.total_steps > 0) {
    compiled_rate->Set(static_cast<int64_t>(result.total_steps) * 1000000 /
                       elapsed_us);
  }

  if (!result.interruption.ok()) {
    if (result.samples == 0) return result.interruption;
    result.degraded = true;
  }
  result.estimate = result.samples == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(result.samples);
  return result;
}

}  // namespace

Status ForcedCompileError(const Status& cause) {
  return Status(cause.code(),
                "PFQL-E060: backend 'compiled' was forced but chain "
                "compilation failed: " +
                    cause.message() +
                    " (raise compile_max_states or use backend=auto)");
}

StatusOr<McmcResult> McmcForever(const ForeverQuery& query,
                                 const Instance& initial,
                                 const McmcParams& params, Rng* rng) {
  if (params.backend != Backend::kInterpreted) {
    CompileOptions copts;
    copts.max_states = params.compile_max_states;
    copts.threads = params.threads;
    copts.cancel = params.cancel;
    auto compiled = GetOrCompile(query.kernel, initial, copts);
    if (compiled.ok()) {
      return McmcForeverCompiled(query, **compiled, params, rng);
    }
    if (params.backend == Backend::kCompiled) {
      return ForcedCompileError(compiled.status());
    }
    if (compiled.status().code() != StatusCode::kResourceExhausted) {
      return compiled.status();
    }
    // kAuto and the chain exceeded the compile budget: interpreted tier.
  }
  McmcResult result;
  result.samples_requested = params.BudgetedSamples();
  const size_t workers =
      std::max<size_t>(1, std::min(params.threads, result.samples_requested));
  std::vector<McmcTally> tallies(workers);
  std::vector<size_t> shares(workers, result.samples_requested / workers);
  for (size_t w = 0; w < result.samples_requested % workers; ++w) ++shares[w];

  const auto started = std::chrono::steady_clock::now();
  if (workers == 1) {
    trace::Span worker_span("mcmc.worker");
    McmcWorker(query, initial, shares[0], params.burn_in, params.cancel,
               params.allow_partial, rng->Fork(), &tallies[0]);
  } else {
    const trace::Context ctx = trace::Current();
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w, rng_fork = rng->Fork()]() mutable {
        trace::ScopedContext sc(ctx);
        trace::Span worker_span("mcmc.worker");
        McmcWorker(query, initial, shares[w], params.burn_in, params.cancel,
                   params.allow_partial, std::move(rng_fork), &tallies[w]);
      });
    }
    for (auto& t : pool) t.join();
  }

  size_t hits = 0;
  for (const auto& tally : tallies) {
    PFQL_RETURN_NOT_OK(tally.status);
    hits += tally.hits;
    result.samples += tally.completed;
    result.total_steps += tally.steps;
    if (!tally.interruption.ok() && result.interruption.ok()) {
      result.interruption = tally.interruption;
    }
  }

  auto& registry = metrics::MetricRegistry::Instance();
  static metrics::Counter* const samples_counter =
      registry.GetCounter("pfql_sampler_samples_total", "kind=\"mcmc\"");
  static metrics::Counter* const steps_counter =
      registry.GetCounter("pfql_sampler_steps_total", "kind=\"mcmc\"");
  static metrics::Gauge* const rate_gauge =
      registry.GetGauge("pfql_sampler_samples_per_sec", "kind=\"mcmc\"");
  samples_counter->Increment(result.samples);
  steps_counter->Increment(result.total_steps);
  const int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count();
  if (elapsed_us > 0 && result.samples > 0) {
    rate_gauge->Set(static_cast<int64_t>(result.samples) * 1000000 /
                    elapsed_us);
  }

  if (!result.interruption.ok()) {
    if (result.samples == 0) return result.interruption;
    result.degraded = true;
  }
  result.estimate = result.samples == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(result.samples);
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
