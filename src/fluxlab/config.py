"""Experiment configuration: INI-style files with nested sections.

A config names a domain, a potential, a flux sweep grid, solver settings
and per-experiment parameters.  Shapes are written as `disk cx cy r` or
`rect x0 y0 x1 y1`; holes are keys starting with `hole` in the [domain]
section, ordered by key.  An unknown section or key is a ConfigError, and
so is any setting next to a `[domain] file = other.cfg` reference, or a
referenced file that refers on to a third.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .geometry import Disk, DomainSpec, Rect


def parse_shape(text: str):
    parts = text.split()
    try:
        if parts[0] == "disk" and len(parts) == 4:
            return Disk(float(parts[1]), float(parts[2]), float(parts[3]))
        if parts[0] == "rect" and len(parts) == 5:
            return Rect(float(parts[1]), float(parts[2]), float(parts[3]), float(parts[4]))
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad shape {text!r}") from exc
    raise ConfigError(f"bad shape {text!r}: expected 'disk cx cy r' or 'rect x0 y0 x1 y1'")


@dataclass
class SolverSettings:
    count: int = 3
    tol: float = 1e-10
    seed: int = 0x5EED
    cluster_tol: float = 1e-3


@dataclass
class CircleSettings:
    points: int = 256
    alphas: tuple = (0.0, 0.1, 0.25, 0.4, 0.5)
    epsilon: float = 0.01


@dataclass
class SlitSettings:
    count: int = 32
    hole: int = 1
    mode: str = "radial"  # or "shortest"


@dataclass
class MultiplicitySettings:
    bump_amplitude: float = 40.0
    bump_sigma: float = 0.2
    bump_angle: float = 0.0
    bump_radius: float = 0.65


@dataclass
class ExperimentConfig:
    domain: DomainSpec
    potential_kind: str = "zero"
    potential_params: dict = field(default_factory=dict)
    sweep: tuple = (0.0, 1.0, 0.025)
    solver: SolverSettings = field(default_factory=SolverSettings)
    circle: CircleSettings = field(default_factory=CircleSettings)
    slit: SlitSettings = field(default_factory=SlitSettings)
    multiplicity: MultiplicitySettings = field(default_factory=MultiplicitySettings)
    name: str = "experiment"

    def potential(self, grid):
        """Evaluate the configured potential on the grid vertices (None = zero)."""
        kind = self.potential_kind
        p = self.potential_params
        if kind == "zero":
            return None
        if kind == "radial_well":
            cx, cy = p.get("center", (0.0, 0.0))
            r = p["radius"]
            depth = p["depth"]
            d2 = (grid.xy[:, 0] - cx) ** 2 + (grid.xy[:, 1] - cy) ** 2
            return np.where(d2 <= r * r, depth, 0.0)
        if kind == "bump":
            cx, cy = p.get("center", (0.0, 0.0))
            sig = p["sigma"]
            amp = p["amplitude"]
            d2 = (grid.xy[:, 0] - cx) ** 2 + (grid.xy[:, 1] - cy) ** 2
            return amp * np.exp(-0.5 * d2 / sig**2)
        if kind == "table":
            pts = np.loadtxt(p["file"], ndmin=2)
            V = np.zeros(grid.n_vertices)
            for x, y, v in pts:
                V[np.argmin((grid.xy[:, 0] - x) ** 2 + (grid.xy[:, 1] - y) ** 2)] = v
            return V
        raise ConfigError(f"unknown potential kind {kind!r}")

    def sweep_values(self):
        start, stop, step = self.sweep
        return np.round(np.arange(start, stop + 0.5 * step, step), 12)


_POTENTIAL_PARAMS = ("radius", "depth", "sigma", "amplitude")

# the keys each section reader takes; [domain] also takes every key that
# starts with "hole"
_SECTION_KEYS = {
    "domain": ("outer", "spacing", "file"),
    "potential": ("kind", "center", "file") + _POTENTIAL_PARAMS,
    "sweep": ("start", "stop", "step"),
    "solver": tuple(f.name for f in fields(SolverSettings)),
    "circle": tuple(f.name for f in fields(CircleSettings)),
    "slit": tuple(f.name for f in fields(SlitSettings)),
    "multiplicity": tuple(f.name for f in fields(MultiplicitySettings)),
    "experiment": ("name",),
}


def _check_keys(cp, path):
    """ConfigError on a section or key that no reader takes."""
    for name in cp.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"{path}: unknown section [{name}]")
        for key in cp[name]:
            if key not in _SECTION_KEYS[name] and not (name == "domain" and key.startswith("hole")):
                raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")


def _floats(text):
    return tuple(float(t) for t in text.split())


def _value(section, key, default, convert=float):
    """section[key] (or default) through convert; ConfigError if it does not parse."""
    text = section.get(key, default)
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad [{section.name}] {key} = {text!r}") from exc


def load_config(path, *, _referenced_by=None) -> ExperimentConfig:
    """Parse an experiment configuration file; raise ConfigError on problems."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if "domain" not in cp:
        raise ConfigError("config needs a [domain] section")
    _check_keys(cp, path)

    dom = cp["domain"]
    if "file" in dom:
        ref = dom["file"]
        # the referenced file is the whole config: settings next to the
        # reference would be dropped
        if len(dom) > 1 or len(cp.sections()) > 1:
            raise ConfigError(
                f"{path}: [domain] file = {ref} must be the only setting in the file"
            )
        # one hop only, so a file that refers back to itself cannot recurse
        if _referenced_by is not None:
            raise ConfigError(f"{path}, referenced by {_referenced_by}, refers on to {ref}")
        if not os.path.isabs(ref):
            ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        if not os.path.exists(ref):
            raise ConfigError(f"referenced domain file not found: {ref}")
        return load_config(ref, _referenced_by=path)
    try:
        outer = parse_shape(dom["outer"])
        holes = tuple(parse_shape(dom[k]) for k in sorted(dom) if k.startswith("hole"))
        spacing = float(dom.get("spacing", "0.05"))
        domain = DomainSpec(outer=outer, holes=holes, spacing=spacing)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [domain] section: {exc}") from exc

    cfg = ExperimentConfig(domain=domain)

    if "potential" in cp:
        pot = cp["potential"]
        cfg.potential_kind = pot.get("kind", "zero")
        params = {}
        for key in _POTENTIAL_PARAMS:
            if key in pot:
                params[key] = _value(pot, key, None)
        if "center" in pot:
            params["center"] = _value(pot, "center", None, _floats)
        if "file" in pot:
            ref = pot["file"]
            if not os.path.isabs(ref):
                ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
            if not os.path.exists(ref):
                raise ConfigError(f"potential table not found: {ref}")
            params["file"] = ref
        cfg.potential_params = params
        if cfg.potential_kind not in ("zero", "radial_well", "bump", "table"):
            raise ConfigError(f"unknown potential kind {cfg.potential_kind!r}")

    if "sweep" in cp:
        sw = cp["sweep"]
        cfg.sweep = (
            _value(sw, "start", "0.0"),
            _value(sw, "stop", "1.0"),
            _value(sw, "step", "0.025"),
        )
        if cfg.sweep[2] <= 0:
            raise ConfigError("sweep step must be positive")
        if cfg.sweep[1] < cfg.sweep[0]:
            raise ConfigError(f"empty sweep: stop {cfg.sweep[1]} is below start {cfg.sweep[0]}")

    if "solver" in cp:
        so = cp["solver"]
        cfg.solver = SolverSettings(
            count=_value(so, "count", "3", int),
            tol=_value(so, "tol", "1e-10"),
            seed=_value(so, "seed", str(0x5EED), lambda t: int(t, 0)),
            cluster_tol=_value(so, "cluster_tol", "1e-3"),
        )
        if cfg.solver.count < 1:
            raise ConfigError(f"[solver] count must be at least 1, got {cfg.solver.count}")
        if not (cfg.solver.tol > 0 and cfg.solver.cluster_tol > 0):
            raise ConfigError("[solver] tol and cluster_tol must be positive")

    if "circle" in cp:
        ci = cp["circle"]
        cfg.circle = CircleSettings(
            points=_value(ci, "points", "256", int),
            alphas=_value(ci, "alphas", "0 0.1 0.25 0.4 0.5", _floats),
            epsilon=_value(ci, "epsilon", "0.01"),
        )

    if "slit" in cp:
        sl = cp["slit"]
        cfg.slit = SlitSettings(
            count=_value(sl, "count", "32", int),
            hole=_value(sl, "hole", "1", int),
            mode=sl.get("mode", "radial"),
        )
        if cfg.slit.mode not in ("radial", "shortest"):
            raise ConfigError(f"unknown slit mode {cfg.slit.mode!r}")

    if "multiplicity" in cp:
        mu = cp["multiplicity"]
        cfg.multiplicity = MultiplicitySettings(
            bump_amplitude=_value(mu, "bump_amplitude", "40.0"),
            bump_sigma=_value(mu, "bump_sigma", "0.2"),
            bump_angle=_value(mu, "bump_angle", "0.0"),
            bump_radius=_value(mu, "bump_radius", "0.65"),
        )

    if "experiment" in cp:
        cfg.name = cp["experiment"].get("name", cfg.name)
    return cfg
