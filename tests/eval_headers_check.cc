// Compile-only hygiene check for the unified round-engine headers: each
// header is included first (so every one is self-contained), and both
// sweepers are explicitly instantiated over both adjacency views (so every
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
// (sweeper, view) combination. `if constexpr (View::kTracksChanged)`
// branches are discarded before instantiation, so the global view (which
// has no changed-tracking) instantiates cleanly; ForEachChangedCell's
// static_assert fires only when called, which nothing here does for the
// global view.
template class MonadicSweeper<GlobalGraphView>;
template class MonadicSweeper<TrackingGraphView>;
template class BinarySweeper<GlobalGraphView>;
template class BinarySweeper<TrackingGraphView>;

}  // namespace eval_internal
}  // namespace rpqlearn
