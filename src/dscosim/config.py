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
from .schedules import BETA_RULES, Polynomial, StepSchedule
from .topology import build_weight_pair, check_assumption2, generate_ring_plus_random

PROBLEM_FAMILIES = ("quadratic", "logistic", "maml", "sigmoid")

# Each key's default, whose type is the key's type, and its range, checked at load:
# a tuple of the allowed strings, or a lower bound, inclusive (">= b") or exclusive
# ("> b").  `seeds` has its own parser, seed_list().  README.md's key table restates
# this one, and a test holds the two equal.
_KEYS = {
    "problem": ("quadratic", PROBLEM_FAMILIES),
    "agents": (2, ">= 1"),
    "dim": (2, ">= 1"),
    "problem_seed": (0, ">= 0"),
    "noise_inner": (0.1, ">= 0"),
    "noise_outer": (0.1, ">= 0"),
    "conditioning": (10.0, ">= 1"),
    "samples_per_agent": (20, ">= 1"),
    "fixed_inner_pool": (0, ">= 0"),
    "feature_scale": (1.0, "> 0"),
    "label_noise": (0.1, ">= 0"),
    "tasks_per_agent": (200, ">= 1"),
    "hidden_width": (8, ">= 1"),
    "adapt_step": (0.01, ">= 0"),
    "inner_dim": (0, ">= 0"),
    "topology_extra": (0, ">= 0"),
    "topology_seed": (0, ">= 0"),
    "algorithm": ("ab-dscsc", ALGORITHMS),
    "eta": (0.03, "> 0"),
    "gamma": (3.0, "> 0"),
    "alpha_schedule": ("polynomial", ("polynomial", "constant-sqrtk")),
    "alpha_a": (0.01, "> 0"),
    "alpha_b": (0.0, ">= 0"),
    "alpha_exponent": (0.55, ">= 0"),
    "beta": (0.8, "> 0"),
    "beta_rule": ("proportional", BETA_RULES),
    "beta_exponent": (0.0, ">= 0"),
    "iterations": (1000, ">= 1"),
    "metric_stride": (1, ">= 1"),
    "seeds": ("0:1", None),
    "agent": (1, ">= 1"),
    "threshold": (0.3, "> 0"),
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: default for k, (default, _) in _KEYS.items()}
        for k, v in self.values.items():
            if k not in _KEYS:
                raise ConfigurationError(f"unknown config key {k!r}")
            kind = type(_KEYS[k][0])
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
        for key, (_, rule) in _KEYS.items():
            value = v[key]
            if isinstance(rule, tuple) and value not in rule:
                raise ConfigurationError(f"{key} must be one of {', '.join(rule)}, got {value!r}")
            if isinstance(rule, str):
                op, bound = rule.split()
                if not (value >= float(bound) if op == ">=" else value > float(bound)):
                    raise ConfigurationError(f"{key} must be {rule}, got {value}")
        if v["beta_rule"] == "constant" and v["beta"] > 1:  # the schedule would clamp it
            raise ConfigurationError("constant beta must be <= 1")
        self.seed_list()  # parses and validates
        K = v["iterations"]
        try:  # (k + b)^e and k^e grow with k, so round K overflows first
            self.schedule = self.build_schedule()
            self.schedule.alpha(K)
            beta_K = self.schedule.beta_of(K)  # the smallest beta_k: no rule grows with k
        except OverflowError as exc:
            raise ConfigurationError(f"a step size overflows a float by round k = {K}") from exc
        if beta_K == 0.0:
            raise ConfigurationError(f"beta_k underflows to 0 by round k = {K}")
        algorithm, n = v["algorithm"], v["agents"]
        if algorithm in ("scgd", "scsc") and n != 1:
            raise ConfigurationError(f"{algorithm} is single-agent; problem has n={n}")
        if v["agent"] > n:  # only normality reads it, but every command refuses it, as threshold
            raise ConfigurationError(f"agent must be in [1, {n}], got {v['agent']}")
        beta_1 = self.schedule.beta_of(1)  # the largest beta_k
        if algorithm in ("gp-dscgd", "gt-dscgd") and v["gamma"] * beta_1 > 1.0:
            raise ConfigurationError(f"gamma*beta_k = {v['gamma'] * beta_1} exceeds 1")

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
