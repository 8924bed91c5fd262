"""Run configuration: a sectioned key-value text format (INI syntax) mapped
onto validated dataclasses.

Sections and keys mirror the solver blocks:

``[constitutive]``
    power_law_exponent, conductivity_exponent, stress_smoothing,
    magnetic_diffusivity, viscosity_min, viscosity_max, conductivity_min,
    conductivity_max, specific_heat_min, specific_heat_max, density_min,
    density_max, temperature_floor, viscosity_form, conductivity_form,
    specific_heat_form
``[domain]``
    box_size, grid_points
``[truncation]``
    velocity_modes, temperature_modes, magnetic_modes,
    density_regularization (a number, or ``auto`` for 0.25 (L/N)^2)
``[step]``
    dt, t_end, solver_tolerance, max_nonlinear_iterations, theta_clamp
``[initial]``
    family plus that family's keys in ``initial_conditions.FAMILIES``
``[output]``
    directory, cadence, snapshots
``[sweep]`` (optional)
    kind (modes | density_regularization), values (comma separated)

The sections are stated once, in one table that both the loader and
``serialize_config`` iterate: ``[constitutive]`` and ``[step]`` are the
fields of their dataclasses, and each ``[domain]``, ``[truncation]``,
``[output]`` and ``[sweep]`` key is a ``RunConfig`` field named in
``_FIELD_KEYS``.  A key parses as the type of its default, except
``density_regularization`` (a number or ``auto``) and the sweep ``values``
(typed by the sweep kind).  Loading fills every missing key from the
defaults (except that ``temperature_modes`` defaults to ``velocity_modes +
1`` and ``magnetic_modes`` to ``velocity_modes``).  ``[initial]`` reads the
``FAMILIES`` table as the other sections read their dataclasses (a key's
type is the type of its default); ``initial_params`` keeps only the keys
given, and ``family_params`` merges in the defaults.
``validate_config`` reports every violated admissibility condition at once.
It is the one validator: every loaded file, every ``RunConfig`` built in code
that reaches :func:`specmhd.harness.run`, and every sweep cell goes through
it.  The rule for which mode counts a grid resolves lives in
:func:`specmhd.spectral.resolution_problems`.  ``serialize_config`` emits
canonical text whose reload compares equal, which is what the round-trip
contract requires.
"""

from __future__ import annotations

import configparser
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from specmhd.constitutive import ConstitutiveParams, validate_params
from specmhd.errors import ConfigError
from specmhd.initial_conditions import FAMILIES, family_params
from specmhd.integrator import StepConfig
from specmhd.spectral import dealias_cutoff, resolution_problems

CONFIG_SCHEMA_VERSION = "3"

SWEEP_KINDS = ("modes", "density_regularization")


@dataclass
class RunConfig:
    constitutive: ConstitutiveParams = field(default_factory=ConstitutiveParams)
    box_size: float = 2.0 * np.pi
    grid_points: int = 16
    velocity_modes: int = 12
    temperature_modes: int = 13
    magnetic_modes: int = 12
    density_regularization: float = 0.0
    step: StepConfig = field(default_factory=StepConfig)
    initial_family: str = "single_mode"
    initial_params: dict = field(default_factory=dict)
    output_directory: str = ""
    cadence: int = 1
    snapshots: bool = False
    sweep_kind: str = ""
    sweep_values: tuple = ()


# The sections held by a dataclass: its fields are the section's keys, each
# parsed as the type of its default.  The section is the RunConfig field.
_DATACLASS_SECTIONS = {"constitutive": ConstitutiveParams, "step": StepConfig}

# The sections of plain RunConfig fields.  A key is its field's name less the
# ``<section>_`` prefix and parses as the type of the field's default, except
# the two that _PARSE_AS names.
_FIELD_KEYS = {
    section: {name.removeprefix(section + "_"): name for name in names}
    for section, names in {
        "domain": ("box_size", "grid_points"),
        "truncation": ("velocity_modes", "temperature_modes", "magnetic_modes", "density_regularization"),
        "output": ("output_directory", "cadence", "snapshots"),
        "sweep": ("sweep_kind", "sweep_values"),
    }.items()
}

# Every section, in the order serialize_config writes them.
_SECTIONS = ("constitutive", "domain", "truncation", "step", "initial", "output", "sweep")


def _number_or_auto(text: str):
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"density_regularization must be a number or 'auto' (got {text!r})") from None


# sweep values are typed by the sweep kind, so they are read as text first
_PARSE_AS = {"density_regularization": _number_or_auto, "sweep_values": str}


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _format_scalar(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_scalar(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def auto_density_regularization(box_size: float, grid_points: int) -> float:
    """Grid-scaled default for the density diffusion: 0.25 (L/N)^2."""
    return 0.25 * (box_size / grid_points) ** 2


def load_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return _load_text(path.read_text(), str(path))


def load_config_text(text: str) -> RunConfig:
    return _load_text(text, "config text")


def _load_text(text: str, origin: str) -> RunConfig:
    """Read each section into a RunConfig and validate it; raise one
    ConfigError naming every unparsable value and violated condition."""
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {origin}: {exc}") from exc
    errors = [f"unknown section [{sec}]" for sec in parser.sections() if sec not in _SECTIONS]
    default = RunConfig()

    def read(section: str, keys: dict) -> dict:
        out = {}
        if not parser.has_section(section):
            return out
        for key, raw in parser.items(section):
            if key not in keys:
                errors.append(f"unknown key {key!r} in section [{section}]")
                continue
            typ = keys[key]
            raw = raw.strip()
            try:
                if typ is bool and raw.lower() not in ("true", "false"):
                    raise ValueError(raw)
                out[key] = raw.lower() == "true" if typ is bool else typ(raw)
            except ConfigError as exc:  # a parser with its own message, caught before ValueError
                errors.append(str(exc))
            except ValueError:
                errors.append(f"key {key!r} in [{section}]: cannot parse {raw!r} as {typ.__name__}")
        return out

    given = {}
    for section, keys in _FIELD_KEYS.items():
        types = {key: _PARSE_AS.get(name, type(getattr(default, name))) for key, name in keys.items()}
        given.update((keys[key], value) for key, value in read(section, types).items())

    if given.get("density_regularization") == "auto":
        del given["density_regularization"]
        grid_points = given.get("grid_points", default.grid_points)
        if grid_points > 0:  # any other grid is reported by validate_config
            box_size = given.get("box_size", default.box_size)
            given["density_regularization"] = auto_density_regularization(box_size, grid_points)
    values = given.pop("sweep_values", "")
    if values:
        typ = int if given.get("sweep_kind") == "modes" else float
        try:
            given["sweep_values"] = tuple(typ(v) for v in values.split(","))
        except ValueError:
            errors.append(f"cannot parse sweep values {values!r}")
    velocity_modes = given.get("velocity_modes", default.velocity_modes)
    given.setdefault("temperature_modes", velocity_modes + 1)
    given.setdefault("magnetic_modes", velocity_modes)

    initial_family = default.initial_family
    initial_params: dict = {}
    if parser.has_section("initial"):
        for key, raw in parser.items("initial"):
            if key == "family":
                initial_family = raw.strip()
            else:
                initial_params[key] = _parse_scalar(raw)

    for section, cls in _DATACLASS_SECTIONS.items():
        given[section] = cls(**read(section, {f.name: type(f.default) for f in fields(cls)}))
    cfg = RunConfig(initial_family=initial_family, initial_params=initial_params, **given)
    errors.extend(validate_config(cfg))
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def sweep_cells(cfg: RunConfig) -> list[RunConfig]:
    """The runs of a sweep, one per value: the config with that
    [truncation] setting replaced, and with no sweep, output directory or
    snapshots of its own."""
    cells = []
    for v in cfg.sweep_values:
        if cfg.sweep_kind == "modes":
            k = int(v)
            change = {"velocity_modes": k, "magnetic_modes": k, "temperature_modes": k + 1}
        else:
            change = {"density_regularization": float(v)}
        cells.append(
            replace(cfg, **change, sweep_kind="", sweep_values=(), output_directory="", snapshots=False)
        )
    return cells


def validate_config(cfg: RunConfig) -> list[str]:
    """Every violated admissibility condition of a run configuration, one
    message each (empty when admissible).  A sweep's cells are checked as the
    runs they become; their problems that the base config does not share
    are prefixed with ``sweep value {v}: ``."""
    bad = validate_params(cfg.constitutive)
    bad += resolution_problems(
        cfg.box_size,
        cfg.grid_points,
        vector={"velocity_modes": cfg.velocity_modes, "magnetic_modes": cfg.magnetic_modes},
        scalar={"temperature_modes": cfg.temperature_modes},
    )
    if not cfg.density_regularization >= 0:
        bad.append(f"density_regularization must be nonnegative (got {cfg.density_regularization})")
    bad += cfg.step.validate()
    if cfg.cadence < 1:
        bad.append(f"cadence must be at least 1 (got {cfg.cadence})")
    bad += _validate_initial(cfg)
    if cfg.sweep_kind and cfg.sweep_kind not in SWEEP_KINDS:
        bad.append(f"unknown sweep kind {cfg.sweep_kind!r}; options {SWEEP_KINDS}")
    elif cfg.sweep_kind:
        # consecutive cells are compared as coarse then fine
        finer = 1 if cfg.sweep_kind == "modes" else -1
        listed = ",".join(map(str, cfg.sweep_values))
        for prev, v in zip(cfg.sweep_values, cfg.sweep_values[1:]):
            if not finer * (v - prev) > 0:
                bad.append(
                    f"sweep value {v}: does not refine {prev}; {cfg.sweep_kind} must strictly "
                    f"{'increase' if finer > 0 else 'decrease'} along the sweep (got {listed})"
                )
        for v, cell in zip(cfg.sweep_values, sweep_cells(cfg)):
            bad += [f"sweep value {v}: {msg}" for msg in validate_config(cell) if msg not in bad]
    return bad


def _validate_initial(cfg: RunConfig) -> list[str]:
    """The [initial] family and keys, each value's type (the type of its
    default in ``FAMILIES``), and the admissibility of the initial data
    implied by the family parameters with the family's defaults filled in."""
    defaults = FAMILIES.get(cfg.initial_family)
    if defaults is None:
        return [f"unknown initial family {cfg.initial_family!r}; options {tuple(FAMILIES)}"]
    given = cfg.initial_params
    bad = [
        f"unknown key {key!r} in section [initial] for family {cfg.initial_family!r}; "
        f"allowed keys {sorted(defaults)}"
        for key in given
        if key not in defaults
    ]
    mistyped = []
    for key, value in given.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            mistyped.append(f"key {key!r} in [initial] must be a number (got {value!r})")
        elif type(defaults.get(key)) is int and not isinstance(value, numbers.Integral):
            mistyped.append(f"key {key!r} in [initial] must be an integer (got {value!r})")
    if mistyped:
        return bad + mistyped
    ip = family_params(cfg)
    p = cfg.constitutive
    if ip["seed"] < 0:
        bad.append(f"seed={ip['seed']} must be a nonnegative integer")
    theta_base = float(ip["temperature_base"])
    theta_amp = abs(float(ip["temperature_amplitude"])) if "temperature_amplitude" in ip else 0.0
    if theta_base - theta_amp < p.temperature_floor:
        bad.append(
            f"initial temperature must stay at or above temperature_floor="
            f"{p.temperature_floor} (base {theta_base} minus amplitude {theta_amp})"
        )
    rho_mean, rho_amp = float(ip["density_mean"]), abs(float(ip["density_amplitude"]))
    if rho_mean - rho_amp < p.density_min or rho_mean + rho_amp > p.density_max:
        bad.append(
            f"initial density must stay within [{p.density_min}, {p.density_max}] "
            f"(mean {rho_mean}, amplitude {rho_amp})"
        )
    # the defaults' indices fit every admissible resolution, so only given ones are checked
    for key, limit in (("velocity_mode", cfg.velocity_modes), ("magnetic_mode", cfg.magnetic_modes)):
        if key in given and not 0 <= given[key] < limit:
            bad.append(f"{key}={given[key]} outside the truncation (0..{limit - 1})")
    if "band_modes" in given and given["band_modes"] < 0:
        bad.append(f"band_modes={given['band_modes']} must be nonnegative (0 picks the default band)")
    if "density_axis" in given and given["density_axis"] not in (0, 1, 2):
        bad.append(f"density_axis={given['density_axis']} is not an axis (0, 1 or 2)")
    if "density_wavenumber" in given:
        wavenumber, cutoff = given["density_wavenumber"], dealias_cutoff(cfg.grid_points)
        if not 1 <= wavenumber <= cutoff:
            bad.append(
                f"density_wavenumber={wavenumber} outside 1..{cutoff}, the dealiasing cutoff "
                f"at grid_points={cfg.grid_points}"
            )
    return bad


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; reloading it yields an equal RunConfig."""
    lines = [f"# specmhd configuration (schema {CONFIG_SCHEMA_VERSION})", ""]
    for section in _SECTIONS:
        if section == "sweep" and not cfg.sweep_kind:
            continue
        if section in _DATACLASS_SECTIONS:
            items = asdict(getattr(cfg, section)).items()
        elif section == "initial":
            items = [("family", cfg.initial_family), *sorted(cfg.initial_params.items())]
        else:
            items = [(key, getattr(cfg, name)) for key, name in _FIELD_KEYS[section].items()]
        lines += [f"[{section}]", *(f"{key} = {_format_scalar(value)}" for key, value in items), ""]
    return "\n".join(lines)
