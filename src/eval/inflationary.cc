#include "eval/inflationary.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pfql {
namespace eval {

namespace {

// Merges extra certain relations into a pc-world instance.
Status MergeInstances(const Instance& extra, Instance* world) {
  for (const auto& [name, rel] : extra.relations()) {
    if (world->Has(name)) {
      return Status::AlreadyExists("relation '" + name +
                                   "' defined by both the c-table database "
                                   "and the extra EDB");
    }
    world->Set(name, rel);
  }
  return Status::OK();
}

}  // namespace

StatusOr<BigRational> ExactInflationary(
    const datalog::Program& program, const Instance& edb,
    const QueryEvent& event,
    const datalog::ExactInflationaryOptions& options,
    size_t* nodes_visited) {
  return datalog::ExactFixpointEventProbability(program, edb, event, options,
                                                nodes_visited);
}

StatusOr<BigRational> ExactInflationaryOverPC(
    const datalog::Program& program, const PCDatabase& pc,
    const Instance& extra_edb, const QueryEvent& event,
    const datalog::ExactInflationaryOptions& options) {
  // Iterate valuations of the independent variables (the outer PSPACE loop
  // of Prop 4.4) without materializing the full world distribution.
  std::vector<const RandomVariable*> vars;
  for (const auto& [_, v] : pc.variables()) vars.push_back(&v);

  BigRational total;
  Valuation valuation;
  std::function<Status(size_t, BigRational)> recurse =
      [&](size_t depth, BigRational prob) -> Status {
    if (depth == vars.size()) {
      PFQL_ASSIGN_OR_RETURN(Instance world, pc.InstanceFor(valuation));
      PFQL_RETURN_NOT_OK(MergeInstances(extra_edb, &world));
      PFQL_ASSIGN_OR_RETURN(BigRational p,
                            datalog::ExactFixpointEventProbability(
                                program, world, event, options));
      total += prob * p;
      return Status::OK();
    }
    const RandomVariable& var = *vars[depth];
    for (const auto& [value, p] : var.domain) {
      valuation[var.name] = value;
      PFQL_RETURN_NOT_OK(recurse(depth + 1, prob * p));
    }
    valuation.erase(var.name);
    return Status::OK();
  };
  PFQL_RETURN_NOT_OK(recurse(0, BigRational(1)));
  return total;
}

size_t ApproxParams::SampleCount() const {
  const double m = std::log(2.0 / delta) / (2.0 * epsilon * epsilon);
  return static_cast<size_t>(std::ceil(m));
}

namespace {

// One worker's share of the Monte Carlo samples. `status` is a hard error
// (evaluation failed; the whole run fails); `interruption` records a
// cancel/deadline/injected fault that stopped this worker early when the
// caller opted into partial results.
struct WorkerTally {
  size_t hits = 0;
  size_t completed = 0;
  size_t steps = 0;
  Status status;
  Status interruption;
};

using PlanPtr = std::shared_ptr<const datalog::InflationaryPlan>;

// Yields the plan one sample's path runs on: the request's shared plan, or
// a plan of a freshly drawn world.
using PlanSource = std::function<StatusOr<PlanPtr>(Rng*)>;

void RunWorker(const QueryEvent& event, size_t samples, Rng rng,
               const PlanSource& draw_plan, const CancellationToken* cancel,
               bool allow_partial, WorkerTally* tally) {
  auto interrupt = [&](Status why) {
    if (allow_partial) {
      tally->interruption = std::move(why);
    } else {
      tally->status = std::move(why);
    }
  };
  for (size_t i = 0; i < samples; ++i) {
    if (cancel != nullptr) {
      Status cancelled = cancel->Check();
      if (!cancelled.ok()) {
        interrupt(std::move(cancelled));
        return;
      }
    }
    if (fault::InjectFault(fault::points::kApproxSample)) {
      interrupt(fault::InjectedError(fault::points::kApproxSample));
      return;
    }
    auto plan = draw_plan(&rng);
    if (!plan.ok()) {
      tally->status = plan.status();
      return;
    }
    datalog::InflationaryEngine engine(*std::move(plan));
    auto fixpoint = engine.RunToFixpoint(&rng);
    if (!fixpoint.ok()) {
      tally->status = fixpoint.status();
      return;
    }
    tally->steps += engine.steps_taken();
    if (event.Holds(*fixpoint)) ++tally->hits;
    ++tally->completed;
  }
}

StatusOr<ApproxResult> RunSamples(const QueryEvent& event,
                                  const ApproxParams& params, Rng* rng,
                                  const PlanSource& draw_plan) {
  ApproxResult result;
  result.samples_requested = params.BudgetedSamples();
  const size_t workers =
      std::max<size_t>(1, std::min(params.threads, result.samples_requested));
  std::vector<WorkerTally> tallies(workers);
  std::vector<size_t> shares(workers, result.samples_requested / workers);
  for (size_t w = 0; w < result.samples_requested % workers; ++w) ++shares[w];

  const auto started = std::chrono::steady_clock::now();
  if (workers == 1) {
    trace::Span worker_span("approx.worker");
    RunWorker(event, shares[0], rng->Fork(), draw_plan, params.cancel,
              params.allow_partial, &tallies[0]);
  } else {
    // Sampler threads join the request's trace (one "approx.worker" span
    // each) by installing the spawning thread's context.
    const trace::Context ctx = trace::Current();
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w, rng_fork = rng->Fork()]() mutable {
        trace::ScopedContext sc(ctx);
        trace::Span worker_span("approx.worker");
        RunWorker(event, shares[w], std::move(rng_fork), draw_plan,
                  params.cancel, params.allow_partial, &tallies[w]);
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
      registry.GetCounter("pfql_sampler_samples_total", "kind=\"approx\"");
  static metrics::Counter* const steps_counter =
      registry.GetCounter("pfql_sampler_steps_total", "kind=\"approx\"");
  static metrics::Gauge* const rate_gauge =
      registry.GetGauge("pfql_sampler_samples_per_sec", "kind=\"approx\"");
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
    // An interruption with nothing completed is still a failure — there is
    // no estimate to degrade to.
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

StatusOr<ApproxResult> ApproxInflationary(const datalog::Program& program,
                                          const Instance& edb,
                                          const QueryEvent& event,
                                          const ApproxParams& params,
                                          Rng* rng) {
  // One plan for the whole request, shared read-only by every worker.
  PFQL_ASSIGN_OR_RETURN(PlanPtr plan,
                        datalog::InflationaryPlan::Make(program, edb));
  return RunSamples(event, params, rng,
                    [&](Rng*) -> StatusOr<PlanPtr> { return plan; });
}

StatusOr<ApproxResult> ApproxInflationaryOverPC(
    const datalog::Program& program, const PCDatabase& pc,
    const Instance& extra_edb, const QueryEvent& event,
    const ApproxParams& params, Rng* rng) {
  // Each sample draws its own world, and the folded static side of a plan
  // is that world's relations, so every sample plans its own world.
  return RunSamples(
      event, params, rng,
      [&](Rng* r) -> StatusOr<PlanPtr> {
        PFQL_ASSIGN_OR_RETURN(Instance world, pc.SampleWorld(r));
        PFQL_RETURN_NOT_OK(MergeInstances(extra_edb, &world));
        return datalog::InflationaryPlan::Make(program, world);
      });
}

}  // namespace eval
}  // namespace pfql
