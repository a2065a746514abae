"""Experiment configuration: INI-style files with nested sections.

A config names a domain, a potential, a flux sweep grid, solver settings
and per-experiment parameters.  Shapes are written as `disk cx cy r` or
`rect x0 y0 x1 y1`; holes are keys starting with `hole` in the [domain]
section, ordered by key.  Each potential kind takes the parameters that
`_POTENTIAL_KINDS` lists; the keys of the other sections are the fields of
settings dataclasses, each parsed by the type of its default.  An unknown
section, key or potential parameter is a ConfigError, and so is a missing
required potential parameter, any setting next to a `[domain] file =
other.cfg` reference, or a referenced file that refers on to a third.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .eigensolver import DEFAULT_SEED
from .errors import ConfigError
from .geometry import Disk, DomainSpec, Rect


def parse_shape(text: str):
    """Disk or Rect; ConfigError unless text is `disk cx cy r` or
    `rect x0 y0 x1 y1` with finite numbers."""
    kind, *numbers = text.split() or [""]
    shape = {("disk", 3): Disk, ("rect", 4): Rect}.get((kind, len(numbers)))
    if shape is None:
        raise ConfigError(f"bad shape {text!r}: expected 'disk cx cy r' or 'rect x0 y0 x1 y1'")
    try:
        values = [float(t) for t in numbers]
        if not np.all(np.isfinite(values)):
            raise ValueError("not finite")
    except ValueError as exc:
        raise ConfigError(f"bad shape {text!r}") from exc
    return shape(*values)


def gaussian_bump(xy, center, sigma, amplitude):
    """amplitude * exp(-|p - center|^2 / (2 sigma^2)) at every point p of xy."""
    d2 = (xy[:, 0] - center[0]) ** 2 + (xy[:, 1] - center[1]) ** 2
    return amplitude * np.exp(-0.5 * d2 / np.square(sigma))


@dataclass
class SweepSettings:
    start: float = 0.0
    stop: float = 1.0
    step: float = 0.025


@dataclass
class SolverSettings:
    count: int = 3
    tol: float = 1e-10
    seed: int = field(default=DEFAULT_SEED, metadata={"base": 0})  # 0x... allowed
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


# the parameters each potential kind takes; all but center are required
_POTENTIAL_KINDS = {
    "zero": (),
    "radial_well": ("center", "radius", "depth"),
    "bump": ("center", "sigma", "amplitude"),
    "table": ("file",),
}


@dataclass
class ExperimentConfig:
    domain: DomainSpec
    potential_kind: str = "zero"
    potential_params: dict = field(default_factory=dict)
    sweep: tuple = astuple(SweepSettings())
    solver: SolverSettings = field(default_factory=SolverSettings)
    circle: CircleSettings = field(default_factory=CircleSettings)
    slit: SlitSettings = field(default_factory=SlitSettings)
    multiplicity: MultiplicitySettings = field(default_factory=MultiplicitySettings)
    name: str = "experiment"

    def potential(self, grid):
        """Evaluate the configured potential on the grid vertices (None = zero);
        load_config has checked the kind and its parameters."""
        kind = self.potential_kind
        p = self.potential_params
        if kind == "zero":
            return None
        if kind == "table":
            V = np.zeros(grid.n_vertices)
            for x, y, v in np.loadtxt(p["file"], ndmin=2):
                V[np.argmin((grid.xy[:, 0] - x) ** 2 + (grid.xy[:, 1] - y) ** 2)] = v
            return V
        cx, cy = p.get("center", (0.0, 0.0))
        if kind == "radial_well":
            r = p["radius"]
            return np.where((grid.xy[:, 0] - cx) ** 2 + (grid.xy[:, 1] - cy) ** 2 <= r * r, p["depth"], 0.0)
        return gaussian_bump(grid.xy, (cx, cy), p["sigma"], p["amplitude"])

    def sweep_values(self):
        start, stop, step = self.sweep
        return np.round(np.arange(start, stop + 0.5 * step, step), 12)


# section -> the dataclass whose fields are its keys
_SETTINGS = {
    "sweep": SweepSettings,
    "solver": SolverSettings,
    "circle": CircleSettings,
    "slit": SlitSettings,
    "multiplicity": MultiplicitySettings,
}

# the keys each section takes; [domain] also takes every key that starts
# with "hole"
_SECTION_KEYS = {
    "domain": ("outer", "spacing", "file"),
    "potential": ("kind",) + tuple(dict.fromkeys(k for ks in _POTENTIAL_KINDS.values() for k in ks)),
    "experiment": ("name",),
    **{name: tuple(f.name for f in fields(cls)) for name, cls in _SETTINGS.items()},
}


def _check_keys(cp, path):
    """ConfigError on a section or key that no reader takes."""
    for name in cp.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"{path}: unknown section [{name}]")
        for key in cp[name]:
            if key not in _SECTION_KEYS[name] and not (name == "domain" and key.startswith("hole")):
                raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")


def _value(cp, name, key, default, base=10):
    """[name] key parsed by the type of default (default if absent);
    ConfigError if it does not parse or a float is not finite."""
    if name not in cp or key not in cp[name]:
        return default
    text = cp[name][key]
    try:
        if isinstance(default, tuple):
            value = tuple(float(t) for t in text.split())
        elif isinstance(default, int):
            return int(text, base)
        elif isinstance(default, float):
            value = float(text)
        else:
            return text
        if not np.all(np.isfinite(value)):
            raise ValueError("not finite")
    except ValueError as exc:
        raise ConfigError(f"bad [{name}] {key} = {text!r}") from exc
    return value


def _potential_params(cp, path, kind):
    """The [potential] parameters of kind, checked against _POTENTIAL_KINDS."""
    if kind not in _POTENTIAL_KINDS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    takes = _POTENTIAL_KINDS[kind]
    given = [k for k in cp["potential"] if k != "kind"] if "potential" in cp else []
    if not set(takes) - {"center"} <= set(given) <= set(takes):
        raise ConfigError(
            f"[potential] kind = {kind} takes {', '.join(takes) or 'no parameters'}"
            f"{' (center optional)' if 'center' in takes else ''}, got {', '.join(given) or 'none'}"
        )
    params = {k: _value(cp, "potential", k, () if k == "center" else 0.0) for k in given if k != "file"}
    if len(params.get("center", (0, 0))) != 2:
        raise ConfigError(f"bad [potential] center = {cp['potential']['center']!r}: expected two numbers")
    if "file" in given:
        params["file"] = ref = _existing(cp["potential"]["file"], path, "potential table")
        try:
            columns = np.loadtxt(ref, ndmin=2).shape[1]
        except ValueError as exc:
            raise ConfigError(f"potential table {ref}: {exc}") from exc
        if columns != 3:
            raise ConfigError(f"potential table {ref}: rows must be 'x y value', got {columns} columns")
    return params


def _existing(ref, path, what):
    """ref, taken relative to the directory of path; ConfigError if it does not exist."""
    if not os.path.isabs(ref):
        ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    if not os.path.exists(ref):
        raise ConfigError(f"{what} not found: {ref}")
    return ref


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
            raise ConfigError(f"{path}: [domain] file = {ref} must be the only setting in the file")
        # one hop only, so a file that refers back to itself cannot recurse
        if _referenced_by is not None:
            raise ConfigError(f"{path}, referenced by {_referenced_by}, refers on to {ref}")
        return load_config(_existing(ref, path, "referenced domain file"), _referenced_by=path)
    try:
        domain = DomainSpec(
            outer=parse_shape(dom["outer"]),
            holes=tuple(parse_shape(dom[k]) for k in sorted(dom) if k.startswith("hole")),
            spacing=_value(cp, "domain", "spacing", DomainSpec.spacing),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [domain] section: {exc}") from exc

    s = {  # each settings dataclass, with the defaults of the keys it does not set
        name: cls(**{f.name: _value(cp, name, f.name, f.default, **f.metadata) for f in fields(cls)})
        for name, cls in _SETTINGS.items()
    }
    start, stop, step = s["sweep"] = astuple(s["sweep"])
    if step <= 0:
        raise ConfigError("sweep step must be positive")
    if stop < start:
        raise ConfigError(f"empty sweep: stop {stop} is below start {start}")
    solver = s["solver"]
    if solver.count < 1:
        raise ConfigError(f"[solver] count must be at least 1, got {solver.count}")
    if not (solver.tol > 0 and solver.cluster_tol > 0):
        raise ConfigError("[solver] tol and cluster_tol must be positive")
    slit = s["slit"]
    if slit.mode not in ("radial", "shortest"):
        raise ConfigError(f"unknown slit mode {slit.mode!r}")
    if slit.count < 1:
        raise ConfigError(f"[slit] count must be at least 1, got {slit.count}")
    if domain.k >= 1 and not 1 <= slit.hole <= domain.k:
        raise ConfigError(f"[slit] hole {slit.hole} outside 1..{domain.k}")
    if s["circle"].points < 64:
        raise ConfigError(f"[circle] points must be at least 64, got {s['circle'].points}")

    kind = _value(cp, "potential", "kind", ExperimentConfig.potential_kind)
    return ExperimentConfig(
        domain=domain,
        potential_kind=kind,
        potential_params=_potential_params(cp, path, kind),
        name=_value(cp, "experiment", "name", ExperimentConfig.name),
        **s,
    )
