"""Built-in example nets with configurable thresholds.

Three fixtures ship with the toolkit:

* ``traffic`` — a routing feedback loop where guidance reliance can starve
  the exploration capacity of the road network;
* ``risk_scoring`` — a decision-support loop where score reliance erodes
  human discretion and oversight;
* ``srs_symbolic`` — a small layered control net with a counted, guarded
  action transition, an audit counter alarm, and a forbidden sink place.

A builder parses ``data/<name>.net``, the only copy of the net, and applies
the thresholds and safeguards through a validated patch. Every numeric
constant (initial tokens, capacities, thresholds) is configuration chosen so
the default state spaces are small and fully explorable; none of it is
intrinsic to the structures. Override any of it through FixtureConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from .dsl import parse_model, pred_and
from .governance import AddArc, Patch, SetGuard, apply_patch
from .net import CounterAtom, CounterThreshold, Marking, NetModel, Predicate, TokenAtom


@dataclass(frozen=True)
class FixtureConfig:
    """Knobs for the built-in nets.

    thresholds: named integers used in forbidden predicates, guards, and
    audit rules; each fixture documents the names it reads and the default
    it assumes when a name is absent. initial_tokens entries override the
    fixture's default initial marking place-by-place.
    """

    thresholds: Mapping[str, int] = field(default_factory=dict)
    initial_tokens: Mapping[str, int] = field(default_factory=dict)
    safeguards_enabled: bool = False

    def __post_init__(self):
        for name, v in self.thresholds.items():
            if v < 0:
                raise ValueError(f"threshold {name!r} must be >= 0, got {v}")

    def threshold(self, name: str, default: int) -> int:
        return self.thresholds.get(name, default)


DEFAULT_CONFIG = FixtureConfig()


def _fixture(name: str, cfg: FixtureConfig, forbidden: Predicate, ops=(), **fields) -> NetModel:
    """``data/<name>.net`` with cfg's initial tokens, its one forbidden
    predicate replaced by `forbidden`, any other `fields` replaced, and `ops`
    applied through apply_patch, which rejects an invalid result with
    ResultingModelInvalid even when `ops` is empty."""
    model = parse_model((Path(__file__).parent / "data" / f"{name}.net").read_text(encoding="utf-8"))
    tokens = dict(model.initial.tokens_map)
    for p, v in cfg.initial_tokens.items():
        if p not in tokens:
            raise ValueError(f"initial_tokens names unknown place {p!r}")
        tokens[p] = v
    model = replace(model, initial=Marking.make(tokens, model.initial.counters_map),
                    forbidden=((model.forbidden[0][0], forbidden),), **fields)
    return apply_patch(model, Patch(tuple(ops)))


def _loop_safeguards(cfg: FixtureConfig, reliance: int) -> list:
    """Inhibit t4 once p3 reaches `reliance`; fire t6 only while p4 keeps a buffer."""
    return [AddArc("inhibit", "p3", "t4", reliance),
            SetGuard("t6", TokenAtom("p4", ">=", 2))] if cfg.safeguards_enabled else []


def build_traffic_model(cfg: FixtureConfig = DEFAULT_CONFIG) -> NetModel:
    """Routing feedback loop.

    Places: p1 driver demand, p2 guidance capacity, p3 route reliance,
    p4 road slack, p5 adapted population, p6 endogenous data.
    Transitions: t1 demand absorption, t2 guidance issuance, t3 route
    codification (self-loop on p3), t4 slack conversion, t5 population
    adaptation, t6 retraining (closes the loop back into p2).

    Thresholds read: q (demand level, default 2), r (reliance level, 2),
    e (slack floor, 0), and optionally d (data level) — when d is present
    the forbidden predicate gains a fourth conjunct tokens(p6) >= d.

    Forbidden `gridlock`: p1 >= q and p3 >= r and p4 <= e. Reachable from
    the default configuration; safeguards_enabled adds an inhibitor on t4
    (blocked once p3 reaches r) and a guard on t6 (fires only while p4
    retains a buffer), which keeps p4 >= 1 invariant and makes the net safe.
    At the defaults these are the ops of ``data/traffic_safeguards.patch``.
    """
    r = cfg.threshold("r", 2)
    conjuncts = [TokenAtom("p1", ">=", cfg.threshold("q", 2)), TokenAtom("p3", ">=", r),
                 TokenAtom("p4", "<=", cfg.threshold("e", 0))]
    if "d" in cfg.thresholds:
        conjuncts.append(TokenAtom("p6", ">=", cfg.thresholds["d"]))
    return _fixture("traffic", cfg, pred_and(*conjuncts), _loop_safeguards(cfg, r))


def build_risk_scoring_model(cfg: FixtureConfig = DEFAULT_CONFIG) -> NetModel:
    """Decision-support loop around an automated risk score.

    Places: p1 human discretion, p2 score-in-workflow, p3 score reliance,
    p4 oversight capacity, p5 adaptation, p6 endogenous data.
    Transitions: t1 workflow renewal, t2 scored decision (consumes
    discretion), t3 reliance entrenchment (restores discretion slowly),
    t4 oversight provisioning, t5 practice adaptation, t6 retraining.

    Thresholds read: a (discretion floor, default 0), b (reliance level, 2),
    c (oversight floor, 0), d (data level, 1).

    Forbidden `automation_capture`: p1 <= a and p3 >= b and p4 <= c and
    p6 >= d — low discretion, high reliance, low oversight, high endogenous
    data. Reachable by default; safeguards_enabled guards t6 on an oversight
    buffer and inhibits t4 at reliance b, keeping p4 >= 1 invariant.
    """
    b = cfg.threshold("b", 2)
    forbidden = pred_and(
        TokenAtom("p1", "<=", cfg.threshold("a", 0)), TokenAtom("p3", ">=", b),
        TokenAtom("p4", "<=", cfg.threshold("c", 0)), TokenAtom("p6", ">=", cfg.threshold("d", 1)))
    return _fixture("risk_scoring", cfg, forbidden, _loop_safeguards(cfg, b))


def build_srs_symbolic_model(cfg: FixtureConfig = DEFAULT_CONFIG) -> NetModel:
    """Layered control net with a counted, permit-gated action transition.

    Places: pA and p_policy feed the staging place pB; p_permit holds the
    action permit; t2 (counted) moves work from pB to pC while a permit
    remains; pC circulates with pD; tBad leaks pC into the forbidden sink
    p_bad; tDash mirrors pB into a dashboard place without consuming it;
    tAudit raises a flag once t2's counter exceeds theta.

    Thresholds read: theta (counter alarm level, default 2): the guard of
    tAudit and the `counter_alarm` audit rule.

    Forbidden `bad_state`: p_bad >= 1. With the default single permit the
    leak is reachable (tA, t2, tBad). safeguards_enabled guards tBad on a
    remaining permit; since t2 consumes the permit before pC is ever marked,
    the guarded net is safe.
    """
    theta = cfg.threshold("theta", 2)
    ops = [SetGuard("tAudit", CounterAtom("t2", ">", theta))]
    if cfg.safeguards_enabled:
        ops.append(SetGuard("tBad", TokenAtom("p_permit", ">=", 1)))
    return _fixture("srs_symbolic", cfg, TokenAtom("p_bad", ">=", 1), ops,
                    audit_rules=(CounterThreshold("counter_alarm", "t2", theta),))


FIXTURES: dict[str, Callable[[FixtureConfig], NetModel]] = {
    "traffic": build_traffic_model,
    "risk_scoring": build_risk_scoring_model,
    "srs_symbolic": build_srs_symbolic_model,
}
