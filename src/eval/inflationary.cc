#include "eval/inflationary.h"

#include <functional>
#include <memory>

#include "eval/resumable.h"
#include "util/fault_injection.h"

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
  return HoeffdingCount(epsilon, delta);
}

namespace {

// Drives one ResumableApprox per worker over the budget, each drawing its
// samples' plans from `plan_source`.
StatusOr<ApproxResult> DriveApprox(const QueryEvent& event,
                                   const ApproxParams& params, Rng* rng,
                                   const PlanSource& plan_source) {
  ApproxResult result;
  result.samples_requested = params.BudgetedSamples();
  const std::vector<SamplerPtr> workers = ForkWorkers(
      result.samples_requested, params.threads, rng,
      [&](size_t share, Rng stream) -> SamplerPtr {
        return std::make_unique<ResumableApprox>(plan_source, event, share,
                                                 params.delta, stream);
      });
  DriveSpec spec;
  spec.span = "approx.worker";
  spec.fault_point = fault::points::kApproxSample;
  spec.cancel = params.cancel;
  spec.allow_partial = params.allow_partial;
  PFQL_ASSIGN_OR_RETURN(DriveResult run, DriveToBudget(workers, spec));
  CountDrive("approx", run, /*compiled=*/false);
  result.samples = run.samples;
  result.total_steps = run.total_steps;
  result.degraded = run.degraded;
  result.interruption = run.interruption;
  result.estimate = run.samples == 0 ? 0.0
                                     : static_cast<double>(run.hits) /
                                           static_cast<double>(run.samples);
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
  return DriveApprox(event, params, rng,
                     [plan](Rng*) -> StatusOr<PlanPtr> { return plan; });
}

StatusOr<ApproxResult> ApproxInflationaryOverPC(
    const datalog::Program& program, const PCDatabase& pc,
    const Instance& extra_edb, const QueryEvent& event,
    const ApproxParams& params, Rng* rng) {
  // Each sample draws its own world, and the folded static side of a plan
  // is that world's relations, so every sample plans its own world.
  return DriveApprox(
      event, params, rng,
      [&](Rng* r) -> StatusOr<PlanPtr> {
        PFQL_ASSIGN_OR_RETURN(Instance world, pc.SampleWorld(r));
        PFQL_RETURN_NOT_OK(MergeInstances(extra_edb, &world));
        return datalog::InflationaryPlan::Make(program, world);
      });
}

}  // namespace eval
}  // namespace pfql
