"""Hot-path allocation rule: no std::function in the per-event subsystems.

The packet-path overhaul (DESIGN.md §14) replaced `std::function` with
`util::small_function<Sig, Capacity>` throughout src/sim, src/core and
src/stream, and the cache serve path followed in src/cache (serve
observer, fetch interceptor, deliveries, deferred jobs) and src/shard
(cross-shard messages): `std::function` promises to hold *any* callable,
so non-tiny captures heap-allocate, and on the per-event loop (sim
callbacks, sender hooks, cache hooks, probe messages) those allocations
dominated the profile. This rule makes the conversion structural — naming
`std::function` in one of these subsystems fails the lint the moment it is
written, so a future convenience lambda cannot quietly reintroduce
per-event allocation. Cold paths with a genuine need (recursive
self-reference, unbounded captures) take a `// lint:allow(std-function)`
waiver with a justification; code in other subsystems (exec, systems
fan-out plumbing) is out of scope by design.
"""

from __future__ import annotations

import re
from typing import Iterable, Tuple

from cflint.model import Finding, Project, Rule, SourceFile

# Repo-relative prefixes where std::function is banned. Prefix-scoped (not
# component-scoped) so a look-alike directory elsewhere (tests/sim fixtures,
# examples) never trips the rule.
HOT_PATH_PREFIXES: Tuple[str, ...] = (
    "src/sim/",
    "src/core/",
    "src/stream/",
    "src/cache/",
    "src/shard/",
)

_PATTERN = re.compile(r"\bstd\s*::\s*function\b")


class StdFunctionRule(Rule):
    id = "std-function"
    description = (
        "std::function inside the hot-path subsystems (src/sim, src/core, "
        "src/stream, src/cache, src/shard) heap-allocates for non-tiny "
        "captures; use "
        "util::small_function with an explicit capacity, or waive with a "
        "justification for a genuinely cold path."
    )

    def check_file(self, sf: SourceFile, project: Project) -> Iterable[Finding]:
        if not sf.rel.startswith(HOT_PATH_PREFIXES):
            return
        for lineno, code in enumerate(sf.code_lines, start=1):
            m = _PATTERN.search(code)
            if m:
                yield Finding(
                    rule=self.id,
                    rel=sf.rel,
                    line=lineno,
                    col=m.start() + 1,
                    message=(
                        "std::function on the per-event hot path allocates for "
                        "non-tiny captures; use util::small_function "
                        "(DESIGN.md §14)"
                    ),
                    snippet=sf.raw_line(lineno),
                )
