"""rng-discipline: every generator flows through ``ensure_rng``.

Two determinism subsystems depend on this bit-for-bit: the replay
evaluator pins recorded seed-sequence draws, and the shadow gate pairs
arms under common random numbers.  A stdlib ``random`` draw or a naked
``np.random.*`` construction is invisible to both, so:

* importing the stdlib ``random`` module in library code is flagged;
* calling anything under ``np.random`` / ``numpy.random`` directly is
  flagged (``stats/sampling.py`` is the one blessed call site — that is
  where ``ensure_rng``/``spawn`` live);
* module-level ``*_SALT`` integer constants must be unique across the
  whole tree, guarding the ``REPLAY_SEED_SALT`` / ``SHADOW_SEED_SALT``
  disjointness that keeps the two subsystems' streams independent.

The first two checks cover library code only.  Salts are collected from
every file checked, tests and benchmarks included: a benchmark salt
equal to a library one would draw the library's streams.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding

#: The module allowed to construct generators directly.
BLESSED_SUFFIXES = ("repro/stats/sampling.py",)


def _is_np_random(func: ast.expr) -> bool:
    """True for ``np.random.X`` / ``numpy.random.X`` attribute chains."""
    if not isinstance(func, ast.Attribute):
        return False
    value = func.value
    return (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in ("np", "numpy")
    )


class RngDisciplineRule(Rule):
    rule_id = "rng-discipline"
    description = (
        "stdlib random / naked np.random.* bypass ensure_rng's seed-sequence "
        "discipline; seed-salt constants must be globally unique"
    )

    #: Salts are collected from test and benchmark files too.
    applies_to_tests = True

    def __init__(self):
        #: salt value -> [(module rel_path, constant name, Finding)].
        self._salts: dict[int, list[tuple[str, str, Finding]]] = {}

    def check_module(self, module: ModuleInfo) -> list[Finding]:
        self._collect_salts(module)
        if module.is_test or module.rel_path.endswith(BLESSED_SUFFIXES):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(
                            module.finding(
                                node,
                                self.rule_id,
                                "stdlib random is not seed-sequence reproducible; "
                                "use a numpy Generator from stats.sampling.ensure_rng",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    findings.append(
                        module.finding(
                            node,
                            self.rule_id,
                            "stdlib random is not seed-sequence reproducible; "
                            "use a numpy Generator from stats.sampling.ensure_rng",
                        )
                    )
            elif isinstance(node, ast.Call) and _is_np_random(node.func):
                name = node.func.attr  # type: ignore[union-attr]
                findings.append(
                    module.finding(
                        node,
                        self.rule_id,
                        f"np.random.{name}(...) constructs RNG state outside "
                        "stats.sampling.ensure_rng; pass the seed (or seed "
                        "sequence) through ensure_rng instead",
                    )
                )
        return findings

    def _collect_salts(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
                continue
            name = node.targets[0].id
            if not name.endswith("_SALT"):
                continue
            if not isinstance(node.value, ast.Constant) or not isinstance(
                node.value.value, int
            ):
                continue
            if self.rule_id in module.allowed_rules(node.lineno):
                continue
            finding = module.finding(
                node,
                self.rule_id,
                f"seed salt {name} = {node.value.value:#x} duplicates a salt "
                "defined elsewhere; every *_SALT must be unique so derived "
                "seed-sequence streams never collide",
            )
            self._salts.setdefault(int(node.value.value), []).append(
                (module.rel_path, name, finding)
            )

    def finalize(self) -> list[Finding]:
        findings: list[Finding] = []
        for owners in self._salts.values():
            if len(owners) > 1:
                # Every colliding definition is flagged — there is no
                # principled "first owner" across an arbitrary file list.
                findings.extend(finding for _, _, finding in owners)
        return findings
