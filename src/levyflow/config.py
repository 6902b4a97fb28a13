"""Sectioned key-value run configuration: parsing and assembly.

The format is INI-style text handled by :mod:`configparser`.  Every key is
typed against a schema; unknown sections or keys are fatal with their
location.  Assembling a configuration into live model/noise objects
validates the semantic constraints, in particular the strict [0, 2) range
of the V-norm noise weights.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import models, noise, nse2d
from .solver import SolverConfig
from .spaces import SpectralBasis


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return x


def _parse_floats(s: str) -> tuple:
    if not s.strip():
        return ()
    return tuple(_parse_float(p) for p in s.split(","))


@dataclass(frozen=True)
class ModelSection:
    name: str = "dyadic"
    modes: int = 16
    k0: float = 2.0
    visc: float = 1.0
    dealias: bool = True
    u0: str = "e1:1.0"
    c_b: float = 0.0


@dataclass(frozen=True)
class MeasureSection:
    family: str = "none"
    rate: float = 0.0
    mean: float = 0.0
    sd: float = 1.0
    c: float = 1.0
    alpha: float = 0.5
    eps_low: float = 0.01
    r_max: float = 1.0


@dataclass(frozen=True)
class CoefficientSection:
    g_family: str = "none"
    g_sigma: tuple = (0.0,)
    g_theta: float = 0.0
    psi_family: str = "none"
    psi_sigma: tuple = (0.0,)
    psi_theta: float = 0.0
    forcing: str = "zero"


@dataclass(frozen=True)
class EnsembleSection:
    paths: int = 1
    seed: int = 12345


@dataclass(frozen=True)
class OutputSection:
    dir: str = ""
    per_mode: bool = False


@dataclass(frozen=True)
class VerifySection:
    structure_samples: int = 20000
    condition_samples: int = 2000
    noise_paths: int = 2000
    apriori_paths: int = 0


@dataclass(frozen=True)
class ConvergeSection:
    iterations: int = 8
    paths: int = 20
    order_paths: int = 12
    ratio_threshold: float = 0.8
    order_min: float = 0.4
    t0_list: tuple = ()
    delta0_list: tuple = ()
    dt_list: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    model: ModelSection = ModelSection()
    measure: MeasureSection = MeasureSection()
    wiener: noise.WienerDriverSpec = noise.WienerDriverSpec()
    coefficient: CoefficientSection = CoefficientSection()
    solver: SolverConfig = SolverConfig()
    ensemble: EnsembleSection = EnsembleSection()
    output: OutputSection = OutputSection()
    verify: VerifySection = VerifySection()
    converge: ConvergeSection = ConvergeSection()


_SECTIONS = {f.name: type(f.default) for f in fields(RunConfig)}

_PARSERS = {"int": int, "float": _parse_float, "str": str, "bool": _parse_bool,
            "tuple": _parse_floats}


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse sectioned key-value text; unknown keys are fatal with location."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    raw: dict[str, dict[str, str]] = {s: dict(cp.items(s)) for s in cp.sections()}
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, value = item.split("=", 1)
        section, name = key.strip().split(".", 1)
        raw.setdefault(section.strip(), {})[name.strip()] = value.strip()

    sections = {}
    for sec_name, values in raw.items():
        if sec_name not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec_name}]")
        cls = _SECTIONS[sec_name]
        by_name = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, value in values.items():
            if key not in by_name:
                raise ConfigError(f"unknown key {key!r} in section [{sec_name}]")
            try:
                kwargs[key] = _PARSERS[by_name[key].type](value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {sec_name}.{key}: {exc}") from exc
        try:
            sections[sec_name] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"section [{sec_name}]: {exc}") from exc
    if "name" not in raw.get("model", {}):
        raise ConfigError("missing required key 'name' in section [model]")
    return RunConfig(**sections)


def resolve_vector(spec: str, dim: int, what: str) -> np.ndarray:
    """Resolve 'zero', 'e<k>:<amp>' or a comma list into a coefficient vector.

    ``what`` names the key in error messages, for example ``model.u0``.
    """
    spec = spec.strip()
    if spec == "zero":
        return np.zeros(dim)
    if spec.startswith("e"):
        try:
            head, amp = spec.split(":")
            k, amp = int(head[1:]), _parse_float(amp)
        except ValueError as exc:
            raise ConfigError(f"bad {what} shorthand {spec!r}: {exc}") from exc
        if not 1 <= k <= dim:
            raise ConfigError(f"{what} mode {k} outside 1..{dim}")
        out = np.zeros(dim)
        out[k - 1] = amp
        return out
    try:
        values = np.array(_parse_floats(spec))
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {spec!r}: {exc}") from exc
    if values.shape != (dim,):
        raise ConfigError(f"{what} needs {dim} entries, got {values.size}")
    return values


@dataclass(frozen=True)
class Setup:
    """Live objects assembled from a configuration."""

    model: models.ModelSpec
    measure: noise.LevyMeasureSpec
    wiener: noise.WienerDriverSpec
    coeff: noise.CoefficientSpec
    u0: np.ndarray
    solver: SolverConfig


def build_measure(cfg: RunConfig) -> noise.LevyMeasureSpec:
    m = cfg.measure
    try:
        if m.family == "none":
            return noise.no_jumps()
        if m.family == "compound_gaussian":
            return noise.compound_gaussian(m.rate, m.mean, m.sd)
        if m.family == "truncated_power":
            return noise.truncated_power(m.c, m.alpha, m.eps_low, m.r_max)
    except ValueError as exc:
        raise ConfigError(f"section [measure]: {exc}") from None
    raise ConfigError(f"measure.family: unknown measure family {m.family!r}")


def build_model(cfg: RunConfig) -> models.ModelSpec:
    """The model of section [model]; the one reader of its ``name``."""
    m = cfg.model
    if m.name not in ("dyadic", "nse2d", "zero_b"):
        raise ConfigError(f"model.name: unknown model {m.name!r}")
    if m.c_b < 0:
        raise ConfigError(f"model.c_b: must be at least 0, got {m.c_b!r}")
    try:
        if m.name == "dyadic":
            params = models.DyadicShellParams(n_modes=m.modes, k0=m.k0, visc=m.visc)
            spec = models.dyadic_model(params)
        elif m.name == "nse2d":
            params = nse2d.Nse2dParams(modes_per_axis=m.modes, visc=m.visc,
                                       dealias=m.dealias)
            spec = nse2d.nse2d_model(params)
        else:
            lam = m.visc * (m.k0 * 2.0 ** np.arange(m.modes)) ** 2
            spec = models.zero_b_model(SpectralBasis(lam))
    except ValueError as exc:
        raise ConfigError(f"section [model]: {exc}") from None
    if m.c_b > 0:
        spec = replace(spec, c_b=m.c_b)
    return spec


def _family_from(section: CoefficientSection, which: str, dim: int) -> noise.CoefficientFamily:
    """The family of slot ``which`` (g or psi); an error names the key at fault."""
    sigma = getattr(section, f"{which}_sigma")
    try:
        return noise.family(getattr(section, f"{which}_family"), dim,
                            sigma=sigma[0] if len(sigma) == 1 else np.asarray(sigma),
                            theta=getattr(section, f"{which}_theta"))
    except ValueError as exc:
        key = "family" if isinstance(exc, noise.UnknownFamilyError) else "sigma"
        raise ConfigError(f"coefficient.{which}_{key}: {exc}") from None


def build_setup(cfg: RunConfig) -> Setup:
    """Assemble and validate every object a run needs; a ValueError is a ConfigError."""
    try:
        return _assemble(cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# smallest value each count may take; verify's noise statistics need two
# paths for a sample variance
_COUNT_FLOORS = (
    ("ensemble", "seed", 0), ("ensemble", "paths", 0),
    ("verify", "structure_samples", 1), ("verify", "condition_samples", 0),
    ("verify", "noise_paths", 2), ("verify", "apriori_paths", 0),
    ("converge", "iterations", 1), ("converge", "paths", 1),
    ("converge", "order_paths", 1),
)


# numpy's Poisson sampler refuses a mean above int64 max - 10 sqrt(int64 max)
_POISSON_LAM_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


def _assemble(cfg: RunConfig) -> Setup:
    model = build_model(cfg)
    measure = build_measure(cfg)
    span = max(cfg.solver.horizon, cfg.solver.window, *cfg.converge.t0_list)
    if measure.total_mass * span >= _POISSON_LAM_MAX:
        raise ConfigError(f"section [measure]: total mass {measure.total_mass:.4g} over a "
                          f"span of {span:.4g} expects more jumps than numpy's Poisson "
                          f"sampler allows ({_POISSON_LAM_MAX:.4g})")
    dim = model.basis.dim
    g = _family_from(cfg.coefficient, "g", dim)
    psi = _family_from(cfg.coefficient, "psi", dim)
    forcing = resolve_vector(cfg.coefficient.forcing, dim, "coefficient.forcing")
    coeff = noise.build_coefficients(g, psi, measure, model.basis, cfg.model.visc,
                                     cfg.wiener, forcing)
    u0 = resolve_vector(cfg.model.u0, dim, "model.u0")
    try:
        cfg.solver.n_steps  # raises unless the horizon is a whole number of steps
    except ValueError as exc:
        raise ConfigError(f"section [solver]: {exc}") from None
    for sec_name, key, least in _COUNT_FLOORS:
        if getattr(getattr(cfg, sec_name), key) < least:
            raise ValueError(f"[{sec_name}] {key} must be at least {least}")
    # each value of a converge sweep list must make a valid [solver] section
    for key, name in (("t0_list", "window"), ("delta0_list", "budget"), ("dt_list", "dt")):
        for value in getattr(cfg.converge, key):
            try:
                replace(cfg.solver, **{name: value})
            except ValueError as exc:
                raise ConfigError(f"converge.{key} = {value!r}: {exc}") from None
    return Setup(model=model, measure=measure, wiener=cfg.wiener, coeff=coeff,
                 u0=u0, solver=cfg.solver)


def load_config(text: str, overrides: list[str] | None = None) -> tuple[RunConfig, Setup]:
    cfg = parse_config(text, overrides)
    return cfg, build_setup(cfg)
