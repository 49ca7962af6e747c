#include "eval/backend.h"

namespace pfql {
namespace eval {

StatusOr<std::shared_ptr<const CompiledSpace>> ResolveBackend(
    const Interpretation& kernel, const Instance& initial, Backend backend,
    const CompileOptions& options) {
  using SpacePtr = std::shared_ptr<const CompiledSpace>;
  if (backend == Backend::kInterpreted) return SpacePtr();
  auto compiled = GetOrCompile(kernel, initial, options);
  if (compiled.ok()) return compiled;
  const Status& cause = compiled.status();
  if (backend == Backend::kCompiled) {
    return Status(cause.code(),
                  "PFQL-E060: backend 'compiled' was forced but chain "
                  "compilation failed: " +
                      cause.message() +
                      " (raise compile_max_states or use backend=auto)");
  }
  // kAuto: over the compile budget means the interpreted tier.
  if (cause.code() == StatusCode::kResourceExhausted) return SpacePtr();
  return cause;
}

}  // namespace eval
}  // namespace pfql
