"""Stepsize schedules: alpha_k for the decision step, beta_k for the inner tracker."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class Polynomial:
    """alpha_k = a / (k + b)^exponent."""

    a: float
    b: float = 0.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.b < 0 or self.exponent < 0:
            raise ConfigurationError("need a > 0, b >= 0, exponent >= 0")

    def alpha(self, k):
        return self.a / (k + self.b) ** self.exponent


@dataclass(frozen=True)
class StepSchedule:
    """Pairs an alpha rule with a beta rule; beta_k is always clamped to 1.

    beta_rule "proportional": beta_k = beta * alpha_k.
    beta_rule "constant":     beta_k = beta.
    beta_rule "polynomial":   beta_k = beta / k^beta_exponent.
    """

    alpha_rule: object
    beta: float
    beta_rule: str = "proportional"
    beta_exponent: float = 0.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {self.beta}")
        if self.beta_rule not in ("proportional", "constant", "polynomial"):
            raise ConfigurationError(f"unknown beta rule {self.beta_rule!r}")
        if self.beta_exponent < 0:
            raise ConfigurationError("beta_exponent must be >= 0")

    def alpha(self, k):
        return self.alpha_rule.alpha(k)

    def beta_of(self, k):
        if self.beta_rule == "proportional":
            raw = self.beta * self.alpha_rule.alpha(k)
        elif self.beta_rule == "polynomial":
            raw = self.beta / k**self.beta_exponent
        else:
            raw = self.beta
        return min(raw, 1.0)
