// Compile-only hygiene check for the round-engine headers: each header is
// included first, so every one must be self-contained and compile
// warning-clean. The CMake object-library target building this TU adds
// -Werror on top of the project's -Wall -Wextra; it produces no test, only
// a build failure when a header regresses.

#include "query/eval_internal.h"   // IWYU pragma: keep

#include "query/eval_monadic_sweeper.h"  // IWYU pragma: keep

#include "query/eval_binary_sweeper.h"   // IWYU pragma: keep
