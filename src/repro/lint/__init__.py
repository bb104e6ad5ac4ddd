"""simlint: simulator-aware static analysis + runtime invariant sanitizer.

Two layers share this package:

* the **static analyzer** (:mod:`repro.lint.rules`, :mod:`repro.lint.engine`)
  runs AST checks tuned to this codebase's reproducibility hazards and
  backs the ``repro lint`` CLI;
* the **runtime sanitizer** (:mod:`repro.lint.sanitize`) arms invariant
  checks inside the simulator when ``REPRO_SANITIZE=1`` or
  ``SimConfig(sanitize=True)``.

See ``docs/static-analysis.md`` for the rule catalogue and invariant list.
"""

import importlib
from typing import Any

from repro.lint.sanitize import InvariantViolation, env_enabled, resolve

# Every simulator module imports this package for the sanitizer, so the
# static analyzer loads on first use instead: its imports cost about a
# third of ``import repro``.
_ANALYZER_EXPORTS = {
    "LintOptions": "repro.lint.engine",
    "LintReport": "repro.lint.engine",
    "analyze_paths": "repro.lint.engine",
    "lint_paths": "repro.lint.engine",
    "lint_source": "repro.lint.engine",
    "Finding": "repro.lint.findings",
    "RuleInfo": "repro.lint.findings",
    "summarize": "repro.lint.findings",
    "RULES": "repro.lint.rules",
    "RULESET_VERSION": "repro.lint.rules",
}


def __getattr__(name: str) -> Any:
    module = _ANALYZER_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "Finding",
    "InvariantViolation",
    "LintOptions",
    "LintReport",
    "RULES",
    "RULESET_VERSION",
    "RuleInfo",
    "analyze_paths",
    "env_enabled",
    "lint_paths",
    "lint_source",
    "resolve",
    "summarize",
]
