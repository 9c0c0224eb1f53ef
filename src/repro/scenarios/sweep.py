"""Parameter sweeps: a base scenario plus the grid that expands it into shards.

A :class:`SweepSpec` is a base :class:`~repro.scenarios.spec.ScenarioSpec`
plus either a declarative grid (``axes``, expanded as a cartesian
product) or an explicit list of override ``points``.  Each override is a
mapping from a dotted path into the spec's dict form (e.g.
``"workloads.0.schedule.params.rate"`` or ``"controller.reclamation"``)
to the value that shard should use — so a sweep is itself plain data
and round-trips through JSON like a scenario does.

This module is spec and expansion only; the shards are executed —
serially or across supervised worker processes, with optional retries,
timeouts, journaling, and resume — by
:class:`~repro.scenarios.executor.ResilientSweepRunner`.  Three
properties make all execution modes byte-identical (``workers=1`` ≡
``workers=N`` ≡ interrupted-then-resumed):

1. expansion order is deterministic (axes in declaration order, points
   in list order) and the executor assembles results in expansion order
   no matter which worker finishes (or retries) first;
2. every shard's seed is fixed *before* execution — either explicitly
   in its overrides or derived from the base seed and the override
   mapping by a stable FNV-1a hash (:func:`derive_shard_seed`), never
   from worker identity or scheduling;
3. shard results (see :mod:`repro.scenarios.runner`) contain no
   wall-clock or host-dependent values, so equal computations serialise
   to equal ``canonical_json`` bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.scenarios.spec import ScenarioSpec
from repro.sim.rng import _stable_hash
from repro.spec_fields import ANY, Many, Nested, Spec, Table, Text, canonical_json, spec_field, thaw

#: Schema identifier for serialised sweeps.
SWEEP_SCHEMA = "repro/sweep@1"

#: Schema identifier for sweep results envelopes.
SWEEP_RESULT_SCHEMA = "repro/sweep-result@1"

#: Default ceiling on how many shards one sweep may expand to.
DEFAULT_MAX_SHARDS = 100_000

#: Environment variable overriding :data:`DEFAULT_MAX_SHARDS`.
MAX_SHARDS_ENV = "REPRO_SWEEP_MAX_SHARDS"


def shard_cap() -> int:
    """The active shard-count ceiling (env override or the default)."""
    raw = os.environ.get(MAX_SHARDS_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_SHARDS
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_SHARDS_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{MAX_SHARDS_ENV} must be >= 1, got {cap}")
    return cap


def derive_shard_seed(base_seed: int, overrides: Mapping[str, Any]) -> int:
    """Deterministic per-shard seed from the base seed and the shard's overrides.

    Uses the same run-to-run-stable FNV-1a hash as the simulator's RNG
    registry, applied to the canonical JSON of ``(base_seed, overrides)``
    — so the seed depends only on *what* the shard computes, never on
    worker identity, execution order, or process boundaries.
    """
    text = canonical_json({"base_seed": base_seed, "overrides": dict(overrides)})
    return _stable_hash(text) % (2**31 - 1)


def apply_overrides(spec: ScenarioSpec, overrides: Mapping[str, Any]) -> ScenarioSpec:
    """Apply dotted-path overrides to a spec, returning a re-validated copy.

    Integer path segments index into lists (``"workloads.0.slo_deadline"``);
    other segments are dict keys.  The override is applied to the spec's
    ``to_dict()`` form and the result re-parsed, so every shard spec is
    fully validated before it runs.  Every segment — including the last —
    must already exist in the spec's dict form, with one exception: a
    field the field table declares ``omit_default`` is left out of the
    dict form while it holds its default, so an override may create it
    (``"data_plane"``, ``"controller.policy"``,
    ``"federation.sites.0.cloud"``, ...).  Any other missing key is a
    typo'd path, refused here with a ``KeyError``.
    """
    data = spec.to_dict()
    for path, value in overrides.items():
        segments = path.split(".")
        node: Any = data
        owner: Optional[type] = ScenarioSpec  # the spec class whose dict ``node`` is
        try:
            for segment in segments[:-1]:
                if segment.lstrip("-").isdigit():
                    node = node[int(segment)]
                else:
                    node = node[segment]
                    owner = owner.nested_spec(segment) if owner is not None else None
            last = segments[-1]
            if last.lstrip("-").isdigit():
                node[int(last)]  # noqa: B018 - existence check before assignment
                node[int(last)] = thaw(value)
            else:
                if not isinstance(node, dict) or (
                    last not in node
                    and not (owner is not None and owner.omits_default(last))
                ):
                    raise KeyError(last)
                node[last] = thaw(value)
        except (KeyError, IndexError, TypeError) as error:
            raise KeyError(
                f"override path {path!r} does not resolve in scenario "
                f"{spec.name!r} (failed at {error!r})"
            ) from None
    return ScenarioSpec.from_dict(data)


@dataclass(frozen=True)
class SweepAxis(Spec):
    """One grid dimension: a dotted path and the values it sweeps over."""

    path: str = spec_field(Text(nonempty=True))
    values: Tuple[Any, ...] = spec_field(Many(ANY))

    def __post_init__(self) -> None:
        """Parse the fields; an axis needs at least one value."""
        super().__post_init__()
        if not self.values:
            raise ValueError(f"axis {self.path!r} has no values")


@dataclass(frozen=True)
class SweepSpec(Spec):
    """A base scenario plus the parameter grid to expand it over.

    Exactly one of ``axes`` (cartesian product, in declaration order) or
    ``points`` (explicit override mappings, in list order) describes the
    shards.  ``seed_mode`` controls shard seeding when a point does not
    override ``"seed"`` itself:

    * ``"derive"`` — :func:`derive_shard_seed` of the base seed and the
      shard's overrides (the default; gives every shard an independent
      but reproducible stream);
    * ``"base"`` — every shard keeps the base scenario's seed (used when
      arms must share identical randomness, e.g. policy comparisons).
    """

    SCHEMA = SWEEP_SCHEMA

    name: str = spec_field(Text(nonempty=True))
    base: ScenarioSpec = spec_field(Nested(ScenarioSpec))
    axes: Tuple[SweepAxis, ...] = spec_field(Many(Nested(SweepAxis)), ())
    points: Tuple[Mapping[str, Any], ...] = spec_field(Many(Table(ANY)), ())
    seed_mode: str = spec_field(Text(choices=("derive", "base")), "derive")
    description: str = spec_field(Text(), "")

    def __post_init__(self) -> None:
        """Parse the fields; exactly one of axes / points, within the shard cap."""
        super().__post_init__()
        if bool(self.axes) == bool(self.points):
            raise ValueError("exactly one of axes / points must be given")
        # guard absurd grids *before* anything can materialise them: the
        # planned count is a product of axis lengths, so checking it is
        # O(axes) even when the expansion would be millions of specs
        planned = self.shard_count()
        cap = shard_cap()
        if planned > cap:
            raise ValueError(
                f"sweep {self.name!r} would expand to {planned:,} shards, "
                f"exceeding the cap of {cap:,}; narrow the axes/points or "
                f"raise the {MAX_SHARDS_ENV} environment variable"
            )

    def shard_count(self) -> int:
        """How many shards this sweep expands to (without materialising them)."""
        if self.points:
            return len(self.points)
        return math.prod(len(axis.values) for axis in self.axes)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def override_points(self) -> List[Dict[str, Any]]:
        """The shard override mappings, in deterministic expansion order."""
        if self.points:
            return [dict(point) for point in self.points]
        paths = [axis.path for axis in self.axes]
        return [
            dict(zip(paths, combo))
            for combo in product(*(axis.values for axis in self.axes))
        ]

    def expand(self) -> List[ScenarioSpec]:
        """Materialise one fully-validated :class:`ScenarioSpec` per shard."""
        shards: List[ScenarioSpec] = []
        for index, overrides in enumerate(self.override_points()):
            overrides = dict(overrides)
            if "name" not in overrides:
                overrides["name"] = f"{self.base.name}#{index:04d}"
            if "seed" not in overrides and self.seed_mode == "derive":
                named = {k: v for k, v in overrides.items() if k != "name"}
                overrides["seed"] = derive_shard_seed(self.base.seed, named)
            shards.append(apply_overrides(self.base, overrides))
        return shards


__all__ = [
    "DEFAULT_MAX_SHARDS",
    "MAX_SHARDS_ENV",
    "SWEEP_SCHEMA",
    "SWEEP_RESULT_SCHEMA",
    "SweepAxis",
    "SweepSpec",
    "apply_overrides",
    "derive_shard_seed",
    "shard_cap",
]
