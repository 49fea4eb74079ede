"""Experiment configuration: one JSON document pins every output byte.

The parameter block uses exactly the keys n, t, z, k, epsilon, alpha, delta, R
and overrides{q, c, s, d, delta_cap}; experiment documents add protocol,
strategy, trials, confidence, seed, mode and output settings. Flags on the
command line mirror keys one-to-one and override file values. The digest of
the canonical serialization is embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields

from . import protocols
from .combinatorics import loads_layout
from .params import CoinParams, ParamError, derive_params

ENV_SEED = "COINFORGE_SEED"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def default_seed() -> int:
    raw = os.environ.get(ENV_SEED, "")
    try:
        return int(raw)
    except ValueError:
        return 0


# the JSON values a config field of each annotation takes, and their name in
# an error; a bool is no integer or number here, though Python counts it as one
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "dict": ((dict,), "a mapping"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "bool": ((bool,), "a bool"),
}


@dataclass
class ExperimentConfig:
    n: int = 8
    t: int = 0
    z: float = 0.3
    k: float = 2.0
    epsilon: float = 0.05
    alpha: float = 1.0 / 3.0
    delta: float = 1.0
    R: float = 1.0
    overrides: dict = field(default_factory=dict)
    protocol: dict = field(default_factory=lambda: {"kind": "transform"})
    strategy: dict = field(default_factory=lambda: {"name": "fifo"})
    trials: int = 100
    confidence: float = 0.99
    seed: int = field(default_factory=default_seed)
    mode: str = "secure"
    layout_path: str | None = None
    out: str | None = None
    record_log: bool = False

    def coin_params(self) -> CoinParams:
        return CoinParams(**{f.name: getattr(self, f.name) for f in fields(CoinParams)})

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        return config_digest(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ParamError("a config document must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(doc) - set(fields)
        if unknown:
            raise ParamError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            types, name = _JSON_TYPES[fields[key].type]
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ParamError(f"config key {key!r} must be {name}, not {value!r}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def parse_strategy_spec(text: str) -> dict:
    """Grammar: name[:a,b,...] joined by '+' for composition."""
    parts = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, argtext = chunk.partition(":")
        args = [a for a in argtext.split(",") if a != ""]
        parts.append({"name": name, "args": args})
    if not parts:
        raise ParamError("empty strategy specification")
    if len(parts) == 1:
        return parts[0]
    return {"name": "combined", "parts": parts}


def load_layout_file(path: str):
    if not os.path.exists(path):
        raise ParamError(f"missing layout file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return loads_layout(fh.read())


def _protocol_int(protocol: dict, key: str, default):
    """protocol[key] (`default` when absent), refused unless an integer; a bool is no integer here."""
    value = protocol.get(key, default)
    if value is not default and type(value) is not int:
        raise ParamError(f"protocol key {key!r} must be an integer, not {value!r}")
    return value


_BITS = {0: 0, 1: 1, "0": 0, "1": 1}  # a listed input bit, as a JSON integer or a character


def build_protocol(cfg: ExperimentConfig):
    """Protocol factory + derived params (None for the standalone kinds) from one config document."""
    kind = cfg.protocol.get("kind", "transform")
    if kind in ("transform", "multivalued", "publish"):
        if not cfg.layout_path:
            raise ParamError(f"missing layout file: {kind} runs need --layout")
        layout, graphs = load_layout_file(cfg.layout_path)
        if kind == "publish":
            return _publish_protocol(cfg, layout, graphs), None
        ell = _protocol_int(cfg.protocol, "ell", 1)
        cp = cfg.coin_params()
        dp = derive_params(cp, cfg.overrides or None)
        return protocols.TransformProtocol(cp, dp, layout, graphs, coin_mode=cfg.protocol.get("coin", "ideal"),
                                           ell=ell), dp
    if kind not in ("crusader", "benor"):
        raise ParamError(f"unknown protocol kind {kind!r}")
    s = _protocol_int(cfg.protocol, "s", cfg.n)
    if s < 1:
        raise ParamError(f"protocol key 's' must be at least 1, not {s}")
    t_local = _protocol_int(cfg.protocol, "t_local", 0 if kind == "benor" else None)
    if t_local is not None and not 0 <= t_local < s:
        raise ParamError(f"protocol key 't_local' must lie in [0, s={s}), not {t_local}")
    if kind == "benor":
        return protocols.BenorCoinProtocol(s, t_local), None
    inputs = cfg.protocol.get("inputs", "random")
    if inputs == "random":
        make = lambda rng: [rng.getrandbits(1) for _ in range(s)]
    elif inputs in ("0", "1", 0, 1):
        make = [int(inputs)] * s
    elif isinstance(inputs, (str, list)) and all(type(b) in (int, str) and b in _BITS for b in inputs):
        if len(inputs) != s:
            raise ParamError(f"protocol key 'inputs' must list s={s} bits, not {len(inputs)}")
        make = [_BITS[b] for b in inputs]
    else:
        raise ParamError(f"protocol key 'inputs' must be 'random' or a list of 0/1 bits, not {inputs!r}")
    return protocols.CrusaderProtocol(s, make, t_local), None


def _publish_protocol(cfg: ExperimentConfig, layout, graphs):
    """One committee of the layout publishing over its graph: `committee` is its id (default 0),
    and `inputs` is "random" (a fresh bit per member and trial, as for crusader) or a common
    bit, 0 or 1 (default). The layout must have the run's n, and its q and s where overridden."""
    given = {"n": cfg.n, **{key: cfg.overrides[key] for key in ("q", "s") if key in cfg.overrides}}
    if any(getattr(layout, key) != value for key, value in given.items()):
        raise ParamError("layout does not match the run's " + " ".join(f"{k}={v}" for k, v in given.items())
                         + f" (the layout has n={layout.n} q={layout.q} s={layout.s})")
    j = _protocol_int(cfg.protocol, "committee", 0)
    graph = next((g for g in graphs if g.committee_id == j), None)
    if graph is None:
        raise ParamError(f"protocol key 'committee' is {j}, but the layout has no publish graph with that "
                         f"committee_id (committees are 0..{layout.q - 1})")
    committee = layout.committees[j]
    inputs = cfg.protocol.get("inputs", 1)
    if inputs == "random":
        make = lambda rng: {m: rng.getrandbits(1) for m in committee}
    elif type(inputs) is int and inputs in (0, 1):
        make = {m: inputs for m in committee}
    else:
        raise ParamError(f"protocol key 'inputs' of a publish run must be 'random', 0 or 1, not {inputs!r}")
    return protocols.PublishProtocol(committee, layout.n, graph, make)
