// Evaluation backend tier selection for the sampling evaluators. The
// interpreted tier re-walks the datalog interpretation on every step; the
// compiled tier freezes the enumerated chain (markov/compiled_chain.h)
// and steps it with alias draws. kAuto compiles when the chain fits the
// compile budget and falls back to the interpreted tier when it does not;
// ResolveBackend is that decision, shared by every chain sampler.
#ifndef PFQL_EVAL_BACKEND_H_
#define PFQL_EVAL_BACKEND_H_

#include <memory>
#include <string_view>

#include "lang/interpretation.h"
#include "markov/compiled_chain.h"
#include "relational/instance.h"
#include "util/status.h"

namespace pfql {
namespace eval {

enum class Backend {
  kAuto,         ///< compiled when the chain fits the budget, else interpreted
  kInterpreted,  ///< always step through the interpretation (bit-stable)
  kCompiled,     ///< compiled only; error when the chain exceeds the budget
};

inline const char* BackendToString(Backend backend) {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kInterpreted:
      return "interpreted";
    case Backend::kCompiled:
      return "compiled";
  }
  return "unknown";
}

inline StatusOr<Backend> BackendFromString(std::string_view name) {
  if (name == "auto") return Backend::kAuto;
  if (name == "interpreted") return Backend::kInterpreted;
  if (name == "compiled") return Backend::kCompiled;
  return Status::InvalidArgument(
      "backend must be \"auto\", \"interpreted\", or \"compiled\" (got '" +
      std::string(name) + "')");
}

/// Picks the tier a chain sampler runs on: the compiled space when
/// `backend` allows compiling and the chain fits `options.max_states`, null
/// when the interpreted tier runs (kInterpreted, or kAuto over budget). A
/// forced kCompiled that cannot compile fails with PFQL-E060, keeping the
/// cause's status code; any other compile failure (a deadline, say) is
/// returned as is.
StatusOr<std::shared_ptr<const CompiledSpace>> ResolveBackend(
    const Interpretation& kernel, const Instance& initial, Backend backend,
    const CompileOptions& options);

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_BACKEND_H_
