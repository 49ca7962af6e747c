// The inflationary semantics of probabilistic datalog (paper Sec 3.3):
//
//   Repeat forever {  in parallel, for each rule r:
//     newVals[r] := valuations of body(r) on the old state − oldVals[r];
//     oldVals[r] := oldVals[r] ∪ newVals[r];
//     R := R ∪ repair-key_X̄@P(π_{X̄,Ȳ,P}(newVals[r]));
//   }
//
// Two evaluation modes:
//  * sampling (one random computation path to a fixpoint) — the basis of the
//    PTIME absolute approximation of Thm 4.3;
//  * exact (full traversal of the computation tree, Prop 4.4) — worst-case
//    exponential time but polynomial memory (a root-to-leaf path).
//
// The pseudo-code above is the specification; the evaluators run an
// equivalent step planned once per (program, EDB), an InflationaryPlan:
//  * every subtree of a rule body that reads only relations no rule writes
//    is evaluated once and stored as a constant, and identity projections
//    are dropped;
//  * newVals is computed semi-naively. Bodies are conjunctions of atoms
//    and comparisons, hence monotone, so after step t oldVals[r] equals
//    the valuations of body(r) on state S_t, and
//    newVals = vals(S_{t+1}) − vals(S_t) is exactly the set of valuations
//    of S_{t+1} that use at least one tuple step t added. Each rule gets
//    one body variant per IDB atom, reading that atom from the previous
//    step's delta; the first step evaluates full bodies.
// newVals is therefore the identical relation, repair-key sees the same
// input and draws the same random numbers: paths, fixpoints and exact
// distributions are seed-identical to the pseudo-code. docs/INTERNALS.md
// §10 has the details.
#ifndef PFQL_DATALOG_ENGINE_H_
#define PFQL_DATALOG_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "datalog/program.h"
#include "lang/interpretation.h"
#include "prob/distribution.h"
#include "ra/ra_expr.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace datalog {

/// The inflationary step of one program over one EDB, compiled once.
/// Immutable after Make, so one plan is shared read-only by every sample,
/// worker thread, scheduler quantum and exact traversal over that EDB.
class InflationaryPlan {
 public:
  /// Tuples one step adds, one list per IDB predicate (in idb order).
  using HeadTuples = std::vector<std::vector<Tuple>>;

  static StatusOr<std::shared_ptr<const InflationaryPlan>> Make(
      const Program& program, const Instance& edb);
  ~InflationaryPlan();

  /// Program::InitialInstance(edb): where every computation path starts.
  const Instance& initial() const { return initial_; }
  size_t idb_count() const { return idb_names_.size(); }

  /// π_{X̄,Ȳ,P}(newVals[r]) for every rule r, on state `db` whose previous
  /// step added `deltas` (one relation per IDB predicate); `deltas` null
  /// means the first step. Returns false iff every rule's set is empty.
  StatusOr<bool> NewValuations(const Instance& db,
                               const std::vector<Relation>* deltas,
                               std::vector<Relation>* fired) const;

  bool IsProbabilistic(size_t rule) const;
  const RepairKeySpec& Spec(size_t rule) const;

  /// Appends the head tuples of `rule` for the chosen rows of its fired
  /// relation to `heads`.
  void AddHeads(size_t rule, const std::vector<Tuple>& chosen,
                HeadTuples* heads) const;

  /// Inserts `heads` into `db` and returns, per IDB predicate, the tuples
  /// that were not there yet (the next step's deltas).
  std::vector<Relation> Apply(HeadTuples heads, Instance* db) const;

 private:
  struct RulePlan;

  InflationaryPlan();

  Instance initial_;
  std::vector<std::string> idb_names_;
  std::map<std::string, size_t> delta_index_;  // delta name -> idb index
  std::vector<RulePlan> rules_;
};

/// Sampling evaluator: runs one probabilistic computation path. Holds only
/// the path's state; the compiled program is a shared InflationaryPlan.
class InflationaryEngine {
 public:
  /// Plans `program` over `edb` and starts a path at the initial instance.
  static StatusOr<InflationaryEngine> Make(Program program,
                                           const Instance& edb);

  /// Starts a path on an existing plan.
  explicit InflationaryEngine(std::shared_ptr<const InflationaryPlan> plan);

  const Instance& database() const { return db_; }
  size_t steps_taken() const { return steps_; }

  /// Fires all rules once (in parallel, reading the old state), sampling
  /// every repair-key choice. Returns false iff no rule had new valuations
  /// (the fixpoint was already reached and the state did not change).
  StatusOr<bool> SampleStep(Rng* rng);

  /// Iterates SampleStep until fixpoint; fails with ResourceExhausted after
  /// max_steps (inflationary programs always terminate, so hitting the cap
  /// indicates an unreasonable budget, not divergence).
  StatusOr<Instance> RunToFixpoint(Rng* rng, size_t max_steps = 1 << 20);

 private:
  std::shared_ptr<const InflationaryPlan> plan_;
  Instance db_;
  std::vector<Relation> deltas_;  // what the last step added, per IDB
  size_t steps_ = 0;
};

/// Budget for the exact computation-tree traversal.
struct ExactInflationaryOptions {
  /// Maximum computation-tree nodes to visit before ResourceExhausted.
  size_t max_nodes = 1 << 22;
  /// Optional cooperative cancel/deadline token, polled at a stride over
  /// visited nodes. Non-owning; may be null.
  const CancellationToken* cancel = nullptr;
  ExactEvalOptions eval;
};

/// Exact probability that `event` holds at the fixpoint, by exhaustive
/// depth-first traversal of the computation tree (Prop 4.4). Memory use is
/// proportional to the tree depth (polynomial), time may be exponential.
StatusOr<BigRational> ExactFixpointEventProbability(
    const Program& program, const Instance& edb, const QueryEvent& event,
    const ExactInflationaryOptions& options = {},
    size_t* nodes_visited = nullptr);

/// Exact distribution over fixpoint instances (merges equal fixpoints).
/// Exponentially large in the worst case; bounded by options.max_nodes.
StatusOr<Distribution<Instance>> ExactFixpointDistribution(
    const Program& program, const Instance& edb,
    const ExactInflationaryOptions& options = {});

}  // namespace datalog
}  // namespace pfql

#endif  // PFQL_DATALOG_ENGINE_H_
