"""Determinism rules (REP-D): seeded randomness, no wall-clock, no set order.

Sketch linearity is only useful because two sketches built anywhere —
another process, another site, another epoch — are *byte-identical*
when built from the same spec.  That guarantee dies the moment any code
on the sketch path consults an unseeded RNG, the wall clock, or Python
set iteration order (which varies with insertion history and, for
strings, with the per-process hash seed).  These rules make such code a
lint failure instead of a heisenbug in the cross-shard/temporal
equivalence suites.

Rules
-----
REP-D001
    ``np.random.default_rng()`` (or ``random.Random()``) called without
    a seed argument, anywhere in ``src/``.
REP-D002
    Use of the process-global RNG: ``random.<fn>()`` module functions
    or the legacy ``np.random.<fn>()`` global-state API, anywhere in
    ``src/``.
REP-D003
    Wall-clock reads (``time.time``, ``datetime.now``, ...) inside the
    deterministic directories (``sketch/``, ``core/``, ``distributed/``,
    ``temporal/``, ``hashing/``, ``streams/``).  ``time.perf_counter``
    stays legal: it times work, it never feeds sketch state.
REP-D004
    Iterating a ``set``/``frozenset`` in the codec/merge/serialise
    paths (``sketch/serialize.py``, ``sketch/arena.py``,
    ``core/kinds.py``, ``distributed/``, ``temporal/``) without an
    ordering wrapper — serialised bytes must not depend on set order.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .astutil import ImportMap
from .findings import FAMILY_DETERMINISM, Finding

__all__ = ["DETERMINISTIC_DIRS", "SET_ORDER_PATHS", "check_module"]

#: Directories (path prefixes) where sketch state is computed and any
#: nondeterminism breaks byte-identity.
DETERMINISTIC_DIRS = (
    "sketch/",
    "core/",
    "distributed/",
    "temporal/",
    "hashing/",
    "streams/",
)

#: Files/dirs whose byte output must not depend on set iteration order.
SET_ORDER_PATHS = (
    "sketch/serialize.py",
    "sketch/arena.py",
    "core/kinds.py",
    "distributed/",
    "temporal/",
)

#: Unseeded-constructor spellings (REP-D001).
_RNG_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "random.Random",
})

#: Legacy numpy global-state functions (REP-D002).  Seed-taking
#: constructors and types are excluded — those are REP-D001's concern.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "BitGenerator", "RandomState",
})

#: Wall-clock callables (REP-D003), by resolved dotted name.
_WALL_CLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Consumers whose result depends on the argument's iteration order.
_ORDER_SENSITIVE_CALLEES = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def check_module(
    relpath: str, tree: ast.Module, imports: ImportMap
) -> Iterator[Finding]:
    """Run every determinism rule over one parsed module."""
    in_deterministic_dir = relpath.startswith(DETERMINISTIC_DIRS)
    in_set_order_path = relpath.startswith(SET_ORDER_PATHS)

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            resolved = imports.resolve(node.func)
            if resolved in _RNG_CONSTRUCTORS and not node.args and not node.keywords:
                yield Finding(
                    relpath, node.lineno, "REP-D001", FAMILY_DETERMINISM,
                    f"{resolved}() called without a seed — unseeded "
                    "randomness breaks sketch byte-identity; thread an "
                    "explicit seed through",
                )
            if resolved is not None:
                if (
                    resolved.startswith("random.")
                    and resolved.count(".") == 1
                    and resolved != "random.Random"
                ):
                    yield Finding(
                        relpath, node.lineno, "REP-D002", FAMILY_DETERMINISM,
                        f"{resolved}() uses the process-global RNG; build a "
                        "seeded generator instead",
                    )
                elif (
                    resolved.startswith("numpy.random.")
                    and resolved.split(".")[-1] not in _NP_RANDOM_OK
                ):
                    yield Finding(
                        relpath, node.lineno, "REP-D002", FAMILY_DETERMINISM,
                        f"{resolved}() is the legacy numpy global-state RNG; "
                        "use a seeded np.random.default_rng(seed)",
                    )
                elif in_deterministic_dir and resolved in _WALL_CLOCK:
                    yield Finding(
                        relpath, node.lineno, "REP-D003", FAMILY_DETERMINISM,
                        f"{resolved}() reads the wall clock inside a "
                        "deterministic directory — sketch state must be a "
                        "pure function of the stream and the seed",
                    )
            if (
                in_set_order_path
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_SENSITIVE_CALLEES
                and node.args
                and _is_set_expr(node.args[0])
            ):
                yield Finding(
                    relpath, node.lineno, "REP-D004", FAMILY_DETERMINISM,
                    f"{node.func.id}() over a set on a serialise/merge path "
                    "leaks set iteration order into the output; sort first",
                )
            if (
                in_set_order_path
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and _is_set_expr(node.args[0])
            ):
                yield Finding(
                    relpath, node.lineno, "REP-D004", FAMILY_DETERMINISM,
                    "join() over a set on a serialise/merge path leaks set "
                    "iteration order into the output; sort first",
                )
        elif in_set_order_path and isinstance(node, ast.For):
            if _is_set_expr(node.iter):
                yield Finding(
                    relpath, node.lineno, "REP-D004", FAMILY_DETERMINISM,
                    "for-loop over a set on a serialise/merge path — "
                    "iteration order is not deterministic; sort first",
                )
        elif in_set_order_path and isinstance(
            node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
        ):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    yield Finding(
                        relpath, node.lineno, "REP-D004", FAMILY_DETERMINISM,
                        "comprehension over a set on a serialise/merge path "
                        "— iteration order is not deterministic; sort first",
                    )
