"""Flat key = value experiment configuration.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  The parsed mapping is validated eagerly and echoed verbatim into
every output file header.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .algorithms import ALGORITHMS
from .errors import AssumptionError, ConfigurationError
from .problems import (
    make_logistic_cso,
    make_quadratic,
    make_sigmoid_quadratic,
    make_sinusoid_maml,
)
from .schedules import Polynomial, StepSchedule
from .topology import build_weight_pair, check_assumption2, generate_ring_plus_random

_DEFAULTS = {
    "problem": "quadratic",
    "agents": 2,
    "dim": 2,
    "problem_seed": 0,
    "noise_inner": 0.1,
    "noise_outer": 0.1,
    "conditioning": 10.0,
    "samples_per_agent": 20,
    "fixed_inner_pool": 0,
    "feature_scale": 1.0,
    "label_noise": 0.1,
    "tasks_per_agent": 200,
    "hidden_width": 8,
    "adapt_step": 0.01,
    "inner_dim": 0,
    "topology_extra": 0,
    "topology_seed": 0,
    "algorithm": "ab-dscsc",
    "eta": 0.03,
    "gamma": 3.0,
    "alpha_schedule": "polynomial",
    "alpha_a": 0.01,
    "alpha_b": 0.0,
    "alpha_exponent": 0.55,
    "beta": 0.8,
    "beta_rule": "proportional",
    "beta_exponent": 0.0,
    "iterations": 1000,
    "metric_stride": 1,
    "seeds": "0:1",
    "replications": 200,
    "normality_k": 20000,
    "agent": 1,
    "threshold": 0.3,
}

# Smallest accepted value of each integer key, checked before anything is built.
_MINIMUMS = {
    "agents": 1,
    "dim": 1,
    "iterations": 1,
    "metric_stride": 1,
    "normality_k": 1,
    "tasks_per_agent": 1,
    "inner_dim": 0,
    "fixed_inner_pool": 0,
    "problem_seed": 0,
    "topology_seed": 0,
}

PROBLEM_FAMILIES = ("quadratic", "logistic", "maml", "sigmoid")


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(_DEFAULTS)
        for k, v in self.values.items():
            if k not in _DEFAULTS:
                raise ConfigurationError(f"unknown config key {k!r}")
            kind = type(_DEFAULTS[k])
            try:
                if kind is int and not isinstance(v, (numbers.Integral, str)):
                    raise TypeError  # int() would truncate a float, which a config file rejects
                merged[k] = kind(v)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{k} must be {kind.__name__}, got {v!r}") from exc
            if kind is float and not math.isfinite(merged[k]):  # NaN passes every range check
                raise ConfigurationError(f"{k} must be finite, got {v!r}")
        self.values = merged
        self._validate()

    def __getitem__(self, key):
        return self.values[key]

    def _validate(self):
        v = self.values
        if v["problem"] not in PROBLEM_FAMILIES:
            raise ConfigurationError(f"unknown problem family {v['problem']!r}")
        if v["algorithm"] not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {v['algorithm']!r}")
        if v["alpha_schedule"] not in ("polynomial", "constant-sqrtk"):
            raise ConfigurationError(f"unknown alpha schedule {v['alpha_schedule']!r}")
        if v["beta_rule"] not in ("proportional", "constant", "polynomial"):
            raise ConfigurationError(f"unknown beta rule {v['beta_rule']!r}")
        for key, low in _MINIMUMS.items():
            if v[key] < low:
                raise ConfigurationError(f"{key} must be >= {low}, got {v[key]}")
        for key in ("beta", "eta", "gamma", "threshold"):
            if v[key] <= 0:
                raise ConfigurationError(f"{key} must be > 0, got {v[key]}")
        if v["beta_rule"] == "constant" and v["beta"] > 1:
            raise ConfigurationError("constant beta must be <= 1")
        self.seed_list()  # parses and validates

    def seed_list(self):
        spec = str(self.values["seeds"]).strip()
        try:
            if ":" in spec:
                base, count = (int(t) for t in spec.split(":"))
                seeds = [base + i for i in range(count)]
            else:
                seeds = [int(t) for t in spec.split(",") if t.strip()]
        except ValueError as exc:
            raise ConfigurationError(
                f"seeds must be 'base:count' or a comma list, got {spec!r}"
            ) from exc
        if not seeds or not all(0 <= s < 2**64 for s in seeds):  # a Philox key is a uint64
            raise ConfigurationError(
                f"seeds must be one or more integers in [0, 2**64), got {spec!r}"
            )
        if len(set(seeds)) < len(seeds):  # a repeat would overwrite its CSV and count twice
            raise ConfigurationError(f"seeds must be distinct, got {spec!r}")
        return seeds

    def build_problem(self):
        v = self.values
        n, d, seed = v["agents"], v["dim"], v["problem_seed"]
        if v["problem"] == "quadratic":
            return make_quadratic(
                n, d, seed,
                noise_inner=v["noise_inner"], noise_outer=v["noise_outer"],
                conditioning=v["conditioning"],
            )
        if v["problem"] == "logistic":
            return make_logistic_cso(
                n, v["samples_per_agent"], d, seed,
                fixed_inner_pool=v["fixed_inner_pool"],
                feature_scale=v["feature_scale"],
                label_noise=v["label_noise"],
            )
        if v["problem"] == "sigmoid":
            return make_sigmoid_quadratic(
                n, d, seed, p=v["inner_dim"] or None,
                noise_inner=v["noise_inner"], noise_outer=v["noise_outer"],
            )
        return make_sinusoid_maml(
            n, v["tasks_per_agent"], v["hidden_width"], v["adapt_step"], seed
        )

    def build_graph(self):
        v = self.values
        return generate_ring_plus_random(v["agents"], v["topology_extra"], v["topology_seed"])

    def build_weights(self):
        g = self.build_graph()
        if not check_assumption2(g, g):
            raise AssumptionError("generated topology violates the network assumption")
        return build_weight_pair(g, g)

    def build_schedule(self):
        v = self.values
        if v["alpha_schedule"] == "constant-sqrtk":  # a / sqrt(K): (k + 0.0)**0.0 is exactly 1.0
            rule = Polynomial(v["alpha_a"] / v["iterations"] ** 0.5, 0.0, 0.0)
        else:
            rule = Polynomial(v["alpha_a"], v["alpha_b"], v["alpha_exponent"])
        return StepSchedule(
            alpha_rule=rule,
            beta=v["beta"],
            beta_rule=v["beta_rule"],
            beta_exponent=v["beta_exponent"],
        )


def parse_config_text(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
    return ExperimentConfig(values)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
