"""Experiment configuration: a strict, round-trippable JSON schema.

Top-level keys: ``process`` (required), ``initial``, ``horizon`` (absent:
``{"n": 10000}``), ``estimators`` and ``output``.

``process``
    ``kind``: one of ``push_sum``, ``iid_family``, ``markov_family``,
    ``constant``; ``seed``: nonnegative integer base seed, of any size.
    Per kind:

    * ``push_sum``: ``p``, ``edges`` (list of ``[i, j]`` 0-based pairs),
      optional ``edge_prob`` (defaults to uniform), ``share`` (scalar or
      per-edge, default 0.5), ``loss_prob`` (scalar or per-edge, default 0);
      the graph and the last three are passed as they are to
      ``generators.PushSumProcess``, which checks them.
    * ``iid_family``: ``matrices`` (list of row-major nested lists),
      ``probs``.
    * ``markov_family``: ``matrices``, ``transition`` (row-stochastic and
      irreducible); the chain always starts from its stationary
      distribution.
    * ``constant``: ``matrix``.

``initial``
    ``x0`` / ``w0``: explicit list of ``p`` finite numbers (``w0``
    nonnegative and not all zero), or ``"random-positive"`` (uniform on
    ``(0, 1)`` from ``sub_seed``), or ``"ones"``; ``sub_seed``:
    nonnegative integer of any size.

``horizon``
    ``n``: steps; ``checkpoints``: ``"geometric"`` or ``"linear"``;
    optional ``count`` for the linear schedule.

``estimators``
    ``k``, ``reorth_period``, ``replicates``, ``burn_in`` (null for the
    default), ``birkhoff_m`` (list of distinct block lengths; ``gap``
    needs at least one), ``trials``, ``wedge_n``.

``output``
    ``prefix``: basename prefix for emitted files (no path separators).

Integer fields (``horizon.n``/``count``, estimator sizes, ``process.p``, edge
endpoints) are JSON integers, not booleans: at least 1, or at least 0 for
``burn_in``, seeds and endpoints.  Every integer field but the two seeds is
at most ``2**53``, so counts stay exact as floats and ``burn_in + n`` fits
in int64.  Probabilities, shares, matrix entries and listed ``x0``/``w0``
entries are JSON numbers, not strings or booleans.  Null is accepted only
where the default is null (``edge_prob``, ``burn_in``).

Unknown keys anywhere are rejected, so typos fail fast instead of being
silently ignored.  Each section's table below gives every field's default
(or ``_REQUIRED``) and its check, in the order the checks run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .generators import (ConstantProcess, Digraph, IIDFamilyProcess,
                         MarkovFamilyProcess, MatrixProcess, PushSumProcess)

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

SIZE_MAX = 2**53


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _check_int(where: str, name: str, v, minimum: int, bounded: bool = True) -> None:
    """Integer fields must be JSON integers (not booleans) ``>= minimum``
    and, unless unbounded, ``<= SIZE_MAX``."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: {name} must be an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"{where}: {name} must be >= {minimum}, got {v}")
    if bounded and v > SIZE_MAX:
        raise ConfigError(f"{where}: {name} must be <= 2**53, got {v}")


def _int(minimum: int, bounded: bool = True):
    return lambda where, name, v: _check_int(where, name, v, minimum, bounded)


def _numbers(where: str, name: str, v) -> None:
    """Every leaf of the nested JSON lists ``v`` must be a JSON number, not
    a string or a boolean: the manifest echoes the config as written."""
    if isinstance(v, list):
        for x in v:
            if type(x) is not float and type(x) is not int:     # bool is neither
                _numbers(where, name, x)
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: {name} entries must be numbers, got {v!r}")


def _vector(where: str, name: str, v) -> None:
    if not isinstance(v, str):      # a named vector is resolved when built
        _numbers(where, name, v)


def _edges(where: str, name: str, v) -> None:
    if not (isinstance(v, list) and all(isinstance(e, list) and len(e) == 2 for e in v)):
        raise ConfigError(f"{where}: edges must be a list of [i, j] pairs")
    for x in sum(v, []):
        _check_int(where, "edge endpoint", x, 0)


def _schedule(where: str, name: str, v) -> None:
    if v not in ("geometric", "linear"):
        raise ConfigError(f"{where}: unknown schedule {v!r}")


def _block_lengths(where: str, name: str, v) -> None:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{where}: birkhoff_m must be a list of block lengths")
    for m in v:
        _check_int(where, "birkhoff_m entry", m, 1)
    if len(set(v)) < len(v):
        raise ConfigError(f"{where}: birkhoff_m entries must be distinct, got {v}")


def _prefix(where: str, name: str, v) -> None:
    # Files are written as <out>/<prefix>_<name>: a separator in the
    # prefix would place them outside the output directory.
    if not isinstance(v, str) or not v or any(c in v for c in "/\\\0"):
        raise ConfigError(f"{where}: prefix must be a plain file-name prefix, got {v!r}")


_REQUIRED = object()

# field -> (default or _REQUIRED, check or None), in the order the checks
# run; null is accepted only where the default is null
_KIND = {"kind": (_REQUIRED, None), "seed": (_REQUIRED, _int(0, bounded=False))}
_PROCESS = {
    "push_sum": {**_KIND, "p": (_REQUIRED, _int(1)), "edges": (_REQUIRED, _edges),
                 "edge_prob": (None, _numbers), "share": (0.5, _numbers),
                 "loss_prob": (0.0, _numbers)},
    "iid_family": {**_KIND, "matrices": (_REQUIRED, _numbers),
                   "probs": (_REQUIRED, _numbers)},
    "markov_family": {**_KIND, "matrices": (_REQUIRED, _numbers),
                      "transition": (_REQUIRED, _numbers)},
    "constant": {**_KIND, "matrix": (_REQUIRED, _numbers)},
}
_SCHEMA = {
    "initial": {"sub_seed": (0, _int(0, bounded=False)),
                "x0": ("random-positive", _vector), "w0": ("ones", _vector)},
    "horizon": {"checkpoints": ("geometric", _schedule), "n": (_REQUIRED, _int(1)),
                "count": (200, _int(1))},
    "estimators": {"k": (2, _int(1)), "reorth_period": (1, _int(1)),
                   "replicates": (16, _int(1)), "trials": (256, _int(1)),
                   "wedge_n": (10_000, _int(1)), "burn_in": (None, _int(0)),
                   "birkhoff_m": ([16, 32, 64, 128, 256, 512], _block_lengths)},
    "output": {"prefix": ("run", _prefix)},
}
# top-level section -> (the object parsed when it is absent, None)
_SECTIONS = {"process": (_REQUIRED, None), "initial": ({}, None),
             "horizon": ({"n": 10_000}, None), "estimators": ({}, None),
             "output": ({}, None)}


def _check_keys(d, where: str, rows: dict) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(d) - set(rows)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k, (default, _) in rows.items() if default is _REQUIRED and k not in d]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _parse(d, where: str) -> SimpleNamespace:
    """Check section ``where`` against its table and fill in defaults."""
    if where == "process":
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind not in _PROCESS:
            raise ConfigError(f"process: unknown kind {kind!r} (expected an object "
                              f"with kind one of {sorted(_PROCESS)})")
        rows = _PROCESS[kind]
    else:
        rows = _SCHEMA[where]
    _check_keys(d, where, rows)
    fields = {}
    for name, (default, check) in rows.items():
        v = d[name] if name in d else (
            default.copy() if isinstance(default, list) else default)
        if check is not None and (v is not None or default is not None):
            check(where, name, v)
        fields[name] = v
    return SimpleNamespace(**fields)


def _make_vector(spec, p: int, rng) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "random-positive":
            return rng.uniform(0.05, 1.0, size=p)
        if spec == "ones":
            return np.ones(p)
        raise ConfigError(f"initial: unknown vector spec {spec!r}")
    try:
        v = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"initial: vector entries must be numbers: {e}") from e
    if v.shape != (p,):
        raise ConfigError(f"initial: vector must have length {p}")
    if not np.all(np.isfinite(v)):
        raise ConfigError("initial: vector entries must be finite")
    return v


@dataclass
class ExperimentConfig:
    """Parsed sections: one attribute object per top-level key, whose
    attributes are that section's fields (``cfg.horizon.n``)."""

    process: SimpleNamespace
    initial: SimpleNamespace
    horizon: SimpleNamespace
    estimators: SimpleNamespace
    output: SimpleNamespace

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(d, "config", _SECTIONS)
        return cls(**{name: _parse(d.get(name, absent), name)
                      for name, (absent, _) in _SECTIONS.items()})

    def to_dict(self) -> dict:
        return {name: dict(vars(getattr(self, name))) for name in _SECTIONS}

    def build_process(self, seed_override: int | None = None) -> MatrixProcess:
        s = self.process
        seed = int(s.seed if seed_override is None else seed_override)
        try:
            if s.kind == "push_sum":
                return PushSumProcess(Digraph(s.p, s.edges), seed, s.share, s.loss_prob,
                                      s.edge_prob)
            if s.kind == "iid_family":
                return IIDFamilyProcess([np.array(m, dtype=float) for m in s.matrices],
                                        np.array(s.probs, dtype=float), seed)
            if s.kind == "markov_family":
                return MarkovFamilyProcess([np.array(m, dtype=float) for m in s.matrices],
                                           np.array(s.transition, dtype=float), seed)
            return ConstantProcess(np.array(s.matrix, dtype=float), seed)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"process: {e}") from e

    def build_initial(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(self.initial.sub_seed), 97))))
        x0 = _make_vector(self.initial.x0, p, rng)
        w0 = _make_vector(self.initial.w0, p, rng)
        if np.any(w0 < 0) or not np.any(w0 > 0):
            raise ConfigError("initial: w0 must be nonnegative and not all zero")
        return x0, w0


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return ExperimentConfig.from_dict(data)
