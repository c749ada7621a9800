"""Experiment configuration: defaults, config files, command-line overrides.

``RunConfig`` reads each key by its declared kind: integer keys by
``sampling.check_integer``, float keys by ``sampling.check_real`` as finite
real numbers.  A config file or an override only turns text into numbers
(``_coerce``) and leaves the rules to ``RunConfig``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import check_multiplier
from .block_chain import BlockChainConfig
from .dataio import DataFormatError, content_lines, read_text
from .graph import check_train_fraction
from .mala import WeightChainConfig
from .sampling import check_integer, check_real


@dataclass
class RunConfig:
    """Full experiment description.

    Defaults reproduce the bundled political-books experiment; dataset paths
    left as None select the bundled data.  Construction stores every integer
    key as an int and every float key as a float, or raises ValueError
    naming the key.
    """

    edges: str = None
    features: str = None
    categorical_features: str = None

    num_blocks: int = 3
    train_fraction: float = 0.7
    sigma: float = WeightChainConfig.sigma

    block_iters: int = BlockChainConfig.iterations
    block_burn_in: float = BlockChainConfig.burn_in
    block_thinning: int = BlockChainConfig.thinning
    proposal_smoothing: float = BlockChainConfig.smoothing
    init_restarts: int = BlockChainConfig.init_restarts

    theta_iters: int = WeightChainConfig.iterations
    theta_burn_in: float = WeightChainConfig.burn_in
    theta_thinning: int = WeightChainConfig.thinning
    step_scale: float = WeightChainConfig.step_scale

    reduce_multiplier: float = 1.0
    reduce_dim: int = None
    reduced_theta_iters: int = WeightChainConfig.iterations
    reduced_theta_burn_in: float = WeightChainConfig.burn_in
    reduced_theta_thinning: int = WeightChainConfig.thinning
    reduced_step_scale: float = None  # defaults to step_scale

    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        # Each key is read by its declared kind and stored as a plain int or
        # float, so to_dict is JSON whatever number types were passed.
        for name in _INT_FIELDS:
            if name != "reduce_dim" or self.reduce_dim is not None:
                setattr(self, name, check_integer(name, getattr(self, name), 0 if name == "seed" else 1))
        if self.reduced_step_scale is None:
            self.reduced_step_scale = self.step_scale
        for name in _FLOAT_FIELDS:
            setattr(self, name, check_real(name, getattr(self, name)))
        # Every stage's own validators, so that a bad value fails before any
        # stage runs; a chain's message names the keys of that chain.
        check_train_fraction(self.train_fraction)
        check_multiplier(self.reduce_multiplier)
        chains = [PARTITION_CHAIN, WEIGHT_CHAIN]
        if self.reduce_dim is not None:
            chains.append(REDUCED_WEIGHT_CHAIN)
        for chain in chains:
            try:
                chain_config(self, chain)
            except ValueError as exc:
                keys = ", ".join(chain.keys.values())
                raise ValueError(f"{chain.stage} settings ({keys}): {exc}") from None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class ChainKeys(NamedTuple):
    """A chain's config class and the RunConfig key that sets each of its fields."""

    stage: str
    make: type
    keys: dict


PARTITION_CHAIN = ChainKeys("partition chain", BlockChainConfig, {
    "iterations": "block_iters", "burn_in": "block_burn_in", "thinning": "block_thinning",
    "smoothing": "proposal_smoothing", "init_restarts": "init_restarts"})
WEIGHT_CHAIN = ChainKeys("weight chain", WeightChainConfig, {
    "iterations": "theta_iters", "burn_in": "theta_burn_in", "thinning": "theta_thinning",
    "sigma": "sigma", "step_scale": "step_scale"})
REDUCED_WEIGHT_CHAIN = ChainKeys("reduced weight chain", WeightChainConfig, {
    "iterations": "reduced_theta_iters", "burn_in": "reduced_theta_burn_in",
    "thinning": "reduced_theta_thinning", "sigma": "sigma", "step_scale": "reduced_step_scale"})


def chain_config(cfg: RunConfig, chain: ChainKeys, seed=0):
    """The chain's config, each field read from its RunConfig key, with the given seed."""
    return chain.make(seed=seed, **{field: getattr(cfg, key) for field, key in chain.keys.items()})


# Annotations are strings here (postponed evaluation, see the __future__ import).
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_STRING_FIELDS = {name for name, kind in _FIELD_TYPES.items() if kind == "str"}
_INT_FIELDS = [name for name, kind in _FIELD_TYPES.items() if kind == "int"]
_FLOAT_FIELDS = [name for name, kind in _FIELD_TYPES.items() if kind == "float"]
_NULLABLE_FIELDS = {f.name for f in dataclasses.fields(RunConfig) if f.default is None}


def _coerce(key: str, value):
    """A config-file or override value with its text read as a number."""
    if key not in _FIELD_TYPES:
        raise DataFormatError(f"unknown configuration key {key!r}")
    if key in _NULLABLE_FIELDS and (
            value is None or (isinstance(value, str) and value.lower() in ("none", "null", ""))):
        return None
    if key in _STRING_FIELDS:
        return str(value)
    if isinstance(value, str):
        # Numeric text is read as a number, so it meets the rule JSON numbers
        # meet; RunConfig refuses any other value for the key's kind.
        for read in (int, float):
            with contextlib.suppress(ValueError):
                value = read(value)
                break
    if key in _INT_FIELDS and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def parse_config_file(path) -> dict:
    """Read a config file: JSON object, or 'key = value' lines with # comments."""
    text = read_text(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise DataFormatError(f"{path}: invalid JSON config: {exc}") from None
        if not isinstance(data, dict):
            raise DataFormatError(f"{path}: JSON config must be an object")
        return data
    data = {}
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def build_config(file_path=None, overrides=(), seed=None) -> RunConfig:
    """Assemble a RunConfig from an optional file plus key=value overrides."""
    mapping = {}
    if file_path is not None:
        mapping.update(parse_config_file(file_path))
    for item in overrides:
        if "=" not in item:
            raise DataFormatError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    if seed is not None:
        mapping["seed"] = seed
    coerced = {key: _coerce(key, value) for key, value in mapping.items()}
    try:
        return RunConfig(**coerced)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid configuration: {exc}") from None
