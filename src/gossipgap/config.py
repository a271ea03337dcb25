"""Experiment configuration: a strict, round-trippable JSON schema.

Top-level keys (all required except ``initial``/``estimators``/``output``,
which have defaults):

``process``
    ``kind``: one of ``push_sum``, ``iid_family``, ``markov_family``,
    ``constant``; ``seed``: unsigned 64-bit base seed.  Per kind:

    * ``push_sum``: ``p``, ``edges`` (list of ``[i, j]`` 0-based pairs),
      optional ``edge_prob`` (defaults to uniform), ``share`` (scalar or
      per-edge, default 0.5), ``loss_prob`` (scalar or per-edge, default 0).
    * ``iid_family``: ``matrices`` (list of row-major nested lists),
      ``probs``.
    * ``markov_family``: ``matrices``, ``transition`` (row-stochastic),
      optional ``initial_dist`` (defaults to the stationary distribution).
    * ``constant``: ``matrix``.

``initial``
    ``x0`` / ``w0``: explicit list of ``p`` finite numbers (``w0``
    nonnegative and not all zero), or ``"random-positive"`` (uniform on
    ``(0, 1)`` from ``sub_seed``), or ``"ones"``; ``sub_seed``: integer.

``horizon``
    ``n``: steps; ``checkpoints``: ``"geometric"`` or ``"linear"``;
    optional ``count`` for the linear schedule.

``estimators``
    ``k``, ``reorth_period``, ``replicates``, ``burn_in`` (null for the
    default), ``birkhoff_m`` (list of block lengths; ``gap`` needs at
    least one), ``trials``, ``wedge_n``.

``output``
    ``prefix``: basename prefix for emitted files (no path separators).

Integer fields (``horizon.n``/``count``, estimator sizes, ``process.p``, edge
endpoints) are JSON integers, not booleans: at least 1, or at least 0 for
``burn_in``, seeds and endpoints.  Probabilities, shares, matrix entries and
listed ``x0``/``w0`` entries are JSON numbers, not strings or booleans.

Unknown keys anywhere are rejected, so typos fail fast instead of being
silently ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .generators import (ConstantProcess, Digraph, IIDFamilyProcess,
                         MarkovFamilyProcess, MatrixProcess, PushSumConfig,
                         PushSumProcess)

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _take(d: dict, where: str, required: tuple[str, ...],
          optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return d


def _check_int(where: str, name: str, v, minimum: int) -> None:
    """Integer fields must be JSON integers (not booleans) ``>= minimum``."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: {name} must be an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"{where}: {name} must be >= {minimum}, got {v}")


def _check_numbers(where: str, name: str, v) -> None:
    """Every leaf of the nested JSON lists ``v`` must be a JSON number, not
    a string or a boolean: the manifest echoes the config as written."""
    if isinstance(v, list):
        for x in v:
            _check_numbers(where, name, x)
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: {name} entries must be numbers, got {v!r}")


# process kind -> (required, optional) keys besides ``kind`` and ``seed``
_PROCESS_KEYS = {"push_sum": (("p", "edges"), ("edge_prob", "share", "loss_prob")),
                 "iid_family": (("matrices", "probs"), ()),
                 "markov_family": (("matrices", "transition"), ("initial_dist",)),
                 "constant": (("matrix",), ())}


@dataclass
class ProcessSpec:
    kind: str
    seed: int
    p: int | None = None
    edges: list | None = None
    edge_prob: list | None = None
    share: object = 0.5
    loss_prob: object = 0.0
    matrices: list | None = None
    probs: list | None = None
    transition: list | None = None
    initial_dist: list | None = None
    matrix: list | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessSpec":
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind not in _PROCESS_KEYS:
            raise ConfigError(f"process: unknown kind {kind!r} (expected an object "
                              f"with kind one of {sorted(_PROCESS_KEYS)})")
        required, optional = _PROCESS_KEYS[kind]
        spec = cls(**_take(d, "process", ("kind", "seed") + required, optional))
        _check_int("process", "seed", spec.seed, 0)
        if kind == "push_sum":
            _check_int("process", "p", spec.p, 1)
            if not (isinstance(spec.edges, list)
                    and all(isinstance(e, list) and len(e) == 2 for e in spec.edges)):
                raise ConfigError("process: edges must be a list of [i, j] pairs")
            for v in sum(spec.edges, []):
                _check_int("process", "edge endpoint", v, 0)
        for name in ("edge_prob", "share", "loss_prob", "matrices", "probs",
                     "transition", "initial_dist", "matrix"):
            if getattr(spec, name) is not None:     # null: not given
                _check_numbers("process", name, getattr(spec, name))
        return spec

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "seed": self.seed}
        if self.kind == "push_sum":
            d.update(p=self.p, edges=[list(e) for e in self.edges],
                     edge_prob=self.edge_prob, share=self.share,
                     loss_prob=self.loss_prob)
        elif self.kind == "iid_family":
            d.update(matrices=self.matrices, probs=self.probs)
        elif self.kind == "markov_family":
            d.update(matrices=self.matrices, transition=self.transition)
            if self.initial_dist is not None:
                d["initial_dist"] = self.initial_dist
        elif self.kind == "constant":
            d.update(matrix=self.matrix)
        return d

    def build(self, seed_override: int | None = None) -> MatrixProcess:
        seed = int(self.seed if seed_override is None else seed_override)
        try:
            if self.kind == "push_sum":
                cfg = PushSumConfig.uniform(Digraph(self.p, self.edges),
                                            self.share, self.loss_prob)
                if self.edge_prob is not None:
                    cfg = PushSumConfig(cfg.graph, self.edge_prob, cfg.share, cfg.loss_prob)
                return PushSumProcess(cfg, seed)
            if self.kind == "iid_family":
                return IIDFamilyProcess([np.array(m, dtype=float) for m in self.matrices],
                                        np.array(self.probs, dtype=float), seed)
            if self.kind == "markov_family":
                return MarkovFamilyProcess(
                    [np.array(m, dtype=float) for m in self.matrices],
                    np.array(self.transition, dtype=float), seed,
                    initial_dist=(np.array(self.initial_dist, dtype=float)
                                  if self.initial_dist is not None else None))
            if self.kind == "constant":
                return ConstantProcess(np.array(self.matrix, dtype=float), seed)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"process: {e}") from e
        raise ConfigError(f"process: unknown kind {self.kind!r}")


@dataclass
class InitialSpec:
    x0: object = "random-positive"
    w0: object = "ones"
    sub_seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "InitialSpec":
        _take(d, "initial", (), ("x0", "w0", "sub_seed"))
        spec = cls(**d)
        _check_int("initial", "sub_seed", spec.sub_seed, 0)
        for name in ("x0", "w0"):
            if not isinstance(getattr(spec, name), str):
                _check_numbers("initial", name, getattr(spec, name))
        return spec

    def to_dict(self) -> dict:
        return {"x0": self.x0, "w0": self.w0, "sub_seed": self.sub_seed}

    def _make(self, spec, p: int, rng) -> np.ndarray:
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

    def build(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(self.sub_seed), 97))))
        x0 = self._make(self.x0, p, rng)
        w0 = self._make(self.w0, p, rng)
        if np.any(w0 < 0) or not np.any(w0 > 0):
            raise ConfigError("initial: w0 must be nonnegative and not all zero")
        return x0, w0


@dataclass
class HorizonSpec:
    n: int = 10_000
    checkpoints: str = "geometric"
    count: int = 200

    @classmethod
    def from_dict(cls, d: dict) -> "HorizonSpec":
        _take(d, "horizon", ("n",), ("checkpoints", "count"))
        spec = cls(**d)
        if spec.checkpoints not in ("geometric", "linear"):
            raise ConfigError(f"horizon: unknown schedule {spec.checkpoints!r}")
        _check_int("horizon", "n", spec.n, 1)
        _check_int("horizon", "count", spec.count, 1)
        return spec

    def to_dict(self) -> dict:
        return {"n": self.n, "checkpoints": self.checkpoints, "count": self.count}


@dataclass
class EstimatorSpec:
    k: int = 2
    reorth_period: int = 1
    replicates: int = 16
    burn_in: int | None = None
    birkhoff_m: list = field(default_factory=lambda: [16, 32, 64, 128, 256, 512])
    trials: int = 256
    wedge_n: int = 10_000

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorSpec":
        _take(d, "estimators", (), ("k", "reorth_period", "replicates",
                                    "burn_in", "birkhoff_m", "trials", "wedge_n"))
        spec = cls(**d)
        for name in ("k", "reorth_period", "replicates", "trials", "wedge_n"):
            _check_int("estimators", name, getattr(spec, name), 1)
        if spec.burn_in is not None:
            _check_int("estimators", "burn_in", spec.burn_in, 0)
        if not isinstance(spec.birkhoff_m, (list, tuple)):
            raise ConfigError("estimators: birkhoff_m must be a list of block lengths")
        for m in spec.birkhoff_m:
            _check_int("estimators", "birkhoff_m entry", m, 1)
        return spec

    def to_dict(self) -> dict:
        return {"k": self.k, "reorth_period": self.reorth_period,
                "replicates": self.replicates, "burn_in": self.burn_in,
                "birkhoff_m": list(self.birkhoff_m), "trials": self.trials,
                "wedge_n": self.wedge_n}


@dataclass
class OutputSpec:
    prefix: str = "run"

    @classmethod
    def from_dict(cls, d: dict) -> "OutputSpec":
        _take(d, "output", (), ("prefix",))
        spec = cls(**d)
        # Files are written as <out>/<prefix>_<name>: a separator in the
        # prefix would place them outside the output directory.
        if (not isinstance(spec.prefix, str) or not spec.prefix
                or any(c in spec.prefix for c in "/\\\0")):
            raise ConfigError(f"output: prefix must be a plain file-name prefix, "
                              f"got {spec.prefix!r}")
        return spec

    def to_dict(self) -> dict:
        return {"prefix": self.prefix}


@dataclass
class ExperimentConfig:
    process: ProcessSpec
    initial: InitialSpec = field(default_factory=InitialSpec)
    horizon: HorizonSpec = field(default_factory=HorizonSpec)
    estimators: EstimatorSpec = field(default_factory=EstimatorSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _take(d, "config", ("process",), ("initial", "horizon", "estimators", "output"))
        return cls(process=ProcessSpec.from_dict(d["process"]),
                   initial=InitialSpec.from_dict(d.get("initial", {})),
                   horizon=HorizonSpec.from_dict(d.get("horizon", {"n": 10_000})),
                   estimators=EstimatorSpec.from_dict(d.get("estimators", {})),
                   output=OutputSpec.from_dict(d.get("output", {})))

    def to_dict(self) -> dict:
        return {"process": self.process.to_dict(),
                "initial": self.initial.to_dict(),
                "horizon": self.horizon.to_dict(),
                "estimators": self.estimators.to_dict(),
                "output": self.output.to_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def build_process(self, seed_override: int | None = None) -> MatrixProcess:
        return self.process.build(seed_override)

    def build_initial(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        return self.initial.build(p)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return ExperimentConfig.from_dict(data)
