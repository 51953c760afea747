// Compile-only hygiene check for the unified round-engine headers: each
// header is included first (so every one is self-contained), and both
// sweepers are explicitly instantiated over the adjacency view (so every
// template member — including branches ordinary callers never force — must
// compile warning-clean). The CMake object-library target building this TU
// adds -Werror on top of the project's -Wall -Wextra; it produces no test,
// only a build failure when a header regresses.

#include "query/eval_internal.h"   // IWYU pragma: keep

#include "query/eval_views.h"      // IWYU pragma: keep

#include "query/eval_monadic_sweeper.h"  // IWYU pragma: keep

#include "query/eval_binary_sweeper.h"   // IWYU pragma: keep

namespace rpqlearn {
namespace eval_internal {

// Explicit instantiation compiles every non-template member of each
// sweeper over the view.
template class MonadicSweeper<GlobalGraphView>;
template class BinarySweeper<GlobalGraphView>;

}  // namespace eval_internal
}  // namespace rpqlearn
