// Semi-naive evaluation for *classical* (deterministic) datalog programs:
// each round joins only the previous round's delta tuples against the full
// relations, instead of recomputing every valuation. This is the standard
// datalog optimization; PFQL uses it wherever a deterministic fixpoint is
// needed (sanity baselines, the classical part of mixed workloads) and as
// the performance baseline in bench_datalog_engine.
//
// It is the inflationary engine (datalog/engine.h) run on a deterministic
// program: that engine already steps semi-naively, for probabilistic rules
// too, since newVals is exactly the set of valuations that use a new
// tuple. This entry point keeps the classical API and rejects programs
// with probabilistic rules, whose fixpoint is a distribution rather than
// one instance.
#ifndef PFQL_DATALOG_SEMINAIVE_H_
#define PFQL_DATALOG_SEMINAIVE_H_

#include "datalog/program.h"
#include "util/status.h"

namespace pfql {
namespace datalog {

struct SeminaiveStats {
  /// Rounds that derived at least one new tuple.
  size_t rounds = 0;
  size_t derived_tuples = 0;
};

/// Computes the classical fixpoint of a deterministic program.
/// Fails with InvalidArgument if the program has probabilistic rules.
StatusOr<Instance> SeminaiveFixpoint(const Program& program,
                                     const Instance& edb,
                                     SeminaiveStats* stats = nullptr);

}  // namespace datalog
}  // namespace pfql

#endif  // PFQL_DATALOG_SEMINAIVE_H_
