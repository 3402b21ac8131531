"""Built-in example nets with configurable thresholds.

Three fixtures ship with the toolkit:

* ``traffic`` — a routing feedback loop where guidance reliance can starve
  the exploration capacity of the road network;
* ``risk_scoring`` — a decision-support loop where score reliance erodes
  human discretion and oversight;
* ``srs_symbolic`` — a small layered control net with a counted, guarded
  action transition, an audit counter alarm, and a forbidden sink place.

Every numeric constant here (initial tokens, capacities, thresholds) is
configuration chosen so the default state spaces are small and fully
explorable; none of it is intrinsic to the structures. Override any of it
through FixtureConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .dsl import pred_and
from .net import (
    CounterAtom,
    CounterThreshold,
    Marking,
    NetModel,
    PlaceDef,
    TokenAtom,
    TransitionDef,
)


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


def _initial(defaults: Mapping[str, int], cfg: FixtureConfig) -> Marking:
    tokens = dict(defaults)
    for p, v in cfg.initial_tokens.items():
        if p not in tokens:
            raise ValueError(f"initial_tokens names unknown place {p!r}")
        tokens[p] = v
    return Marking.make(tokens)


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
    """
    q = cfg.threshold("q", 2)
    r = cfg.threshold("r", 2)
    e = cfg.threshold("e", 0)
    places = (
        PlaceDef("p1", capacity=2, label="driver demand"),
        PlaceDef("p2", capacity=3, label="guidance capacity"),
        PlaceDef("p3", capacity=3, label="route reliance"),
        PlaceDef("p4", capacity=2, label="road slack"),
        PlaceDef("p5", capacity=2, label="adapted population"),
        PlaceDef("p6", capacity=3, label="endogenous data"),
    )
    guard_t6 = TokenAtom("p4", ">=", 2) if cfg.safeguards_enabled else None
    inhibit_t4 = (("p3", r),) if cfg.safeguards_enabled else ()
    transitions = (
        TransitionDef("t1", inputs=(("p1", 1), ("p5", 1)), outputs=(("p2", 1),)),
        TransitionDef("t2", inputs=(("p2", 1),), outputs=(("p3", 1), ("p6", 1))),
        TransitionDef("t3", inputs=(("p3", 1),), outputs=(("p3", 1), ("p2", 1))),
        TransitionDef("t4", inputs=(("p3", 1),), outputs=(("p4", 1),),
                      inhibitors=inhibit_t4),
        TransitionDef("t5", inputs=(("p2", 1),), outputs=(("p5", 1),)),
        TransitionDef("t6", inputs=(("p3", 1), ("p4", 1), ("p6", 1)),
                      outputs=(("p2", 1),), guard=guard_t6),
    )
    conjuncts = [
        TokenAtom("p1", ">=", q),
        TokenAtom("p3", ">=", r),
        TokenAtom("p4", "<=", e),
    ]
    if "d" in cfg.thresholds:
        conjuncts.append(TokenAtom("p6", ">=", cfg.thresholds["d"]))
    return NetModel(
        places=places,
        transitions=transitions,
        initial=_initial({"p1": 2, "p2": 1, "p3": 0, "p4": 1, "p5": 0, "p6": 0}, cfg),
        forbidden=(("gridlock", pred_and(*conjuncts)),),
        metadata=(("name", "traffic"),),
    )


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
    a = cfg.threshold("a", 0)
    b = cfg.threshold("b", 2)
    c = cfg.threshold("c", 0)
    d = cfg.threshold("d", 1)
    places = (
        PlaceDef("p1", capacity=2, label="human discretion"),
        PlaceDef("p2", capacity=3, label="score in workflow"),
        PlaceDef("p3", capacity=3, label="score reliance"),
        PlaceDef("p4", capacity=2, label="oversight capacity"),
        PlaceDef("p5", capacity=2, label="practice adaptation"),
        PlaceDef("p6", capacity=3, label="endogenous data"),
    )
    guard_t6 = TokenAtom("p4", ">=", 2) if cfg.safeguards_enabled else None
    inhibit_t4 = (("p3", b),) if cfg.safeguards_enabled else ()
    transitions = (
        TransitionDef("t1", inputs=(("p5", 1),), outputs=(("p2", 1),)),
        TransitionDef("t2", inputs=(("p1", 1), ("p2", 1)),
                      outputs=(("p3", 1), ("p6", 1))),
        TransitionDef("t3", inputs=(("p3", 1),), outputs=(("p3", 1), ("p1", 1))),
        TransitionDef("t4", inputs=(("p3", 1),), outputs=(("p4", 1),),
                      inhibitors=inhibit_t4),
        TransitionDef("t5", inputs=(("p3", 1),), outputs=(("p5", 1),)),
        TransitionDef("t6", inputs=(("p4", 1), ("p6", 1)), outputs=(("p2", 1),),
                      guard=guard_t6),
    )
    forbidden = pred_and(
        TokenAtom("p1", "<=", a),
        TokenAtom("p3", ">=", b),
        TokenAtom("p4", "<=", c),
        TokenAtom("p6", ">=", d),
    )
    return NetModel(
        places=places,
        transitions=transitions,
        initial=_initial({"p1": 2, "p2": 1, "p3": 0, "p4": 1, "p5": 0, "p6": 0}, cfg),
        forbidden=(("automation_capture", forbidden),),
        metadata=(("name", "risk_scoring"),),
    )


def build_srs_symbolic_model(cfg: FixtureConfig = DEFAULT_CONFIG) -> NetModel:
    """Layered control net with a counted, permit-gated action transition.

    Places: pA and p_policy feed the staging place pB; p_permit holds the
    action permit; t2 (counted) moves work from pB to pC while a permit
    remains; pC circulates with pD; tBad leaks pC into the forbidden sink
    p_bad; tDash mirrors pB into a dashboard place without consuming it;
    tAudit raises a flag once t2's counter exceeds theta.

    Thresholds read: theta (counter alarm level, default 2).

    Forbidden `bad_state`: p_bad >= 1. With the default single permit the
    leak is reachable (tA, t2, tBad). safeguards_enabled guards tBad on a
    remaining permit; since t2 consumes the permit before pC is ever marked,
    the guarded net is safe.
    """
    theta = cfg.threshold("theta", 2)
    places = (
        PlaceDef("pA", label="external input"),
        PlaceDef("p_policy", label="policy input"),
        PlaceDef("pB", label="staged work"),
        PlaceDef("p_dash", capacity=1, label="dashboard"),
        PlaceDef("p_permit", label="action permit"),
        PlaceDef("pC", label="action output"),
        PlaceDef("pD", label="review"),
        PlaceDef("p_bad", label="forbidden sink"),
        PlaceDef("p_flag", capacity=1, label="audit flag"),
    )
    guard_bad = TokenAtom("p_permit", ">=", 1) if cfg.safeguards_enabled else None
    transitions = (
        TransitionDef("tA", inputs=(("pA", 1),), outputs=(("pB", 1),)),
        TransitionDef("tPol", inputs=(("p_policy", 1),), outputs=(("pB", 1),)),
        TransitionDef("t2", inputs=(("pB", 1), ("p_permit", 1)),
                      outputs=(("pC", 1),),
                      guard=TokenAtom("p_permit", ">=", 1), counted=True),
        TransitionDef("tDash", reads=(("pB", 1),), outputs=(("p_dash", 1),)),
        TransitionDef("tBad", inputs=(("pC", 1),), outputs=(("p_bad", 1),),
                      guard=guard_bad),
        TransitionDef("tCD1", inputs=(("pC", 1),), outputs=(("pD", 1),)),
        TransitionDef("tCD2", inputs=(("pD", 1),), outputs=(("pC", 1),)),
        TransitionDef("tAudit", outputs=(("p_flag", 1),),
                      guard=CounterAtom("t2", ">", theta)),
    )
    defaults = {"pA": 1, "p_policy": 1, "pB": 0, "p_dash": 0, "p_permit": 1,
                "pC": 0, "pD": 0, "p_bad": 0, "p_flag": 0}
    return NetModel(
        places=places,
        transitions=transitions,
        initial=_initial(defaults, cfg),
        forbidden=(("bad_state", TokenAtom("p_bad", ">=", 1)),),
        audit_rules=(CounterThreshold("counter_alarm", "t2", theta),),
        metadata=(("name", "srs_symbolic"),),
    )


FIXTURES: dict[str, Callable[[FixtureConfig], NetModel]] = {
    "traffic": build_traffic_model,
    "risk_scoring": build_risk_scoring_model,
    "srs_symbolic": build_srs_symbolic_model,
}
