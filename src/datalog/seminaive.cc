#include "datalog/seminaive.h"

#include "datalog/engine.h"

namespace pfql {
namespace datalog {

StatusOr<Instance> SeminaiveFixpoint(const Program& program,
                                     const Instance& edb,
                                     SeminaiveStats* stats) {
  if (program.HasProbabilisticRules()) {
    return Status::InvalidArgument(
        "semi-naive evaluation requires a deterministic program; use the "
        "inflationary engine for probabilistic rules");
  }
  PFQL_ASSIGN_OR_RETURN(InflationaryEngine engine,
                        InflationaryEngine::Make(program, edb));
  const size_t edb_tuples = engine.database().TotalTuples();
  Rng unused(0);  // deterministic rules never draw
  size_t rounds = 0;
  for (;;) {
    const size_t before = engine.database().TotalTuples();
    PFQL_ASSIGN_OR_RETURN(bool fired, engine.SampleStep(&unused));
    if (!fired) break;
    if (engine.database().TotalTuples() > before) ++rounds;
  }
  if (stats != nullptr) {
    stats->rounds = rounds;
    stats->derived_tuples = engine.database().TotalTuples() - edb_tuples;
  }
  return engine.database();
}

}  // namespace datalog
}  // namespace pfql
