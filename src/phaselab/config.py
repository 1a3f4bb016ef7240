"""Experiment configuration: parse, validate, canonicalize, build objects.

The format is an INI-style key-value file with a fixed schema.  Unknown
sections or keys are rejected, defaults are filled at parse time and written
back on emission, so the canonical form (sorted sections and keys) has a
digest independent of key order in the source file.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import grid as g
from . import physics as ph
from .dynamics import StepperConfig
from .errors import ParseError, ValidationError
from .stationary import SEED_KINDS


def _as_floats(s: str) -> tuple:
    return tuple(float(tok) for tok in s.replace(",", " ").split())


# schema: section -> key -> (converter, default-as-string or None if required)
_SCHEMA = {
    "grid": {
        "dim": (int, "1"),
        "nx": (int, "128"),
        "ny": (int, "32"),
        "lx": (float, "1.0"),
        "ly": (float, "1.0"),
        "bc": (str, "neumann"),
    },
    "potential": {
        "kind": (str, "logarithmic"),
        "theta": (float, "0.3"),
        "theta0": (float, "1.0"),
    },
    "mobility": {
        "kind": (str, "constant"),
        "m_star": (float, "1.0"),
        "coeffs": (_as_floats, "1.0"),
    },
    "diffusion": {
        "kind": (str, "constant"),
        "a_star": (float, "1.0"),
        "coeffs": (_as_floats, "1.0"),
    },
    "kernel": {
        "kind": (str, "gaussian"),
        "scale": (float, "0.1"),
        "support": (float, ""),
    },
    "model": {
        "preset": (str, ""),
        "alpha": (float, ""),
        "beta": (float, ""),
        "gamma": (float, ""),
        "sigma1": (int, ""),
        "sigma2": (int, ""),
    },
    "initial": {
        "kind": (str, "constant"),
        "mean": (float, "0.0"),
        "amplitude": (float, "0.0"),
        "mode": (int, "2"),
        "seed": (int, "0"),
        "path": (str, ""),
    },
    "time": {
        "t_max": (float, "10.0"),
        # every stepper setting, with StepperConfig's own default
        **{f.name: (type(f.default), repr(f.default)) for f in fields(StepperConfig)},
    },
    "analysis": {
        "m_levels": (_as_floats, "0.1 1.0 10.0"),
        "delta_levels": (_as_floats, "0.01"),
        "eq_seeds": (str, "constant tanh"),
    },
    "output": {
        "dir": (str, "runs/out"),
    },
}


def convert_value(section: str, key: str, raw: str):
    """The value of ``key = raw`` in ``[section]``; an empty ``raw`` leaves a key
    with an empty default unset (None) and is an error for any other key."""
    conv, default = _SCHEMA[section][key]
    if raw == "":
        if default:
            raise ValidationError(f"[{section}] {key} is empty; give a value or drop the "
                                  f"line for the default {default!r}")
        return None
    try:
        return conv(raw)
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"[{section}] {key} = {raw!r}: {exc}") from exc


_PRESET_BUILDERS = {"CH_NONLINEAR", "CONSERVED_AC", "NONLOCAL_CH"}


@dataclass
class ExperimentConfig:
    """Validated, defaults-filled experiment description."""

    values: dict

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ParseError(f"config parse failure: {exc}") from exc
        values: dict = {}
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ParseError(f"unknown section [{section}]")
            values[section] = {}
            for key, raw in parser[section].items():
                if key not in _SCHEMA[section]:
                    raise ParseError(f"unknown key {key!r} in section [{section}]")
                values[section][key] = convert_value(section, key, raw)
        for section, keys in _SCHEMA.items():
            values.setdefault(section, {})
            for key, (_, default) in keys.items():
                values[section].setdefault(key, convert_value(section, key, default))
        cfg = cls(values)
        cfg.validate()
        return cfg

    def validate(self):
        v = self.values
        if v["grid"]["dim"] not in (1, 2):
            raise ValidationError("grid dim must be 1 or 2")
        try:
            self.build_grid()
        except ValueError as exc:
            raise ValidationError(f"[grid] {exc}") from exc
        if v["potential"]["kind"] != "logarithmic":
            # a custom potential needs callables, which a config file cannot carry
            raise ValidationError(
                f"unknown potential kind {v['potential']['kind']!r}; only logarithmic")
        k = v["initial"]["mean"]
        if not (-1.0 < k < 1.0):
            raise ValidationError(
                f"initial mean {k} violates the admissible-mean constraint |k| < 1")
        if abs(k) + abs(v["initial"]["amplitude"]) > 1.0:
            raise ValidationError("mean + amplitude must keep |phi0| <= 1")
        preset = v["model"]["preset"]
        if preset:
            if preset not in _PRESET_BUILDERS:
                raise ValidationError(f"unknown preset {preset!r}")
            if v["model"]["sigma1"] is not None or v["model"]["sigma2"] is not None:
                raise ValidationError("sigma1/sigma2 are fixed by the preset")
        else:
            explicit = [v["model"][c] is not None for c in
                        ("alpha", "beta", "gamma", "sigma1", "sigma2")]
            if not all(explicit):
                raise ValidationError("without a preset all five constants are required")
        if v["initial"]["kind"] == "file":
            path = v["initial"]["path"]
            if not path or not Path(path).exists():
                raise ValidationError(f"initial data file not found: {path!r}")
        try:
            self.build_stepper()
        except ValueError as exc:
            raise ValidationError(f"[time] {exc}") from exc
        seeds = v["analysis"]["eq_seeds"]
        if not seeds or not set(seeds.split()) <= set(SEED_KINDS):
            raise ValidationError(f"[analysis] eq_seeds = {seeds!r}: not a subset of {SEED_KINDS}")

    # ---- canonical form ---------------------------------------------------

    def canonical(self) -> str:
        out = io.StringIO()
        for section in sorted(self.values):
            out.write(f"[{section}]\n")
            for key in sorted(self.values[section]):
                val = self.values[section][key]
                if val is None:
                    continue
                if isinstance(val, tuple):
                    val = " ".join(repr(float(x)) for x in val)
                elif isinstance(val, float):
                    val = repr(val)
                out.write(f"{key} = {val}\n")
            out.write("\n")
        return out.getvalue()

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def write(self, path):
        Path(path).write_text(self.canonical())

    # ---- builders ----------------------------------------------------------

    def build_grid(self) -> g.Grid:
        gv = self.values["grid"]
        if gv["dim"] == 1:
            return g.Grid((gv["nx"],), (gv["lx"],), gv["bc"])
        return g.Grid((gv["nx"], gv["ny"]), (gv["lx"], gv["ly"]), gv["bc"])

    def build_model(self) -> ph.ModelConfig:
        v = self.values
        P = ph.PotentialSpec.logarithmic(v["potential"]["theta"],
                                         v["potential"]["theta0"])
        mob_kind = v["mobility"]["kind"]
        if mob_kind == "constant":
            mob = ph.MobilitySpec.constant(v["mobility"]["coeffs"][0])
        elif mob_kind == "poly":
            mob = ph.MobilitySpec.polynomial(v["mobility"]["coeffs"],
                                             v["mobility"]["m_star"])
        else:
            raise ValidationError(f"unknown mobility kind {mob_kind!r}")
        dif_kind = v["diffusion"]["kind"]
        if dif_kind == "constant":
            dif = ph.DiffusionSpec.constant(v["diffusion"]["coeffs"][0])
        elif dif_kind == "poly":
            dif = ph.DiffusionSpec.polynomial(v["diffusion"]["coeffs"],
                                              v["diffusion"]["a_star"])
        else:
            raise ValidationError(f"unknown diffusion kind {dif_kind!r}")
        kernel = ph.KernelSpec(v["kernel"]["kind"], v["kernel"]["scale"],
                               v["kernel"]["support"])
        m = self.values["model"]
        preset = m["preset"]

        def pick(name, default):
            return default if m[name] is None else m[name]

        if preset == "CH_NONLINEAR":
            return ph.cahn_hilliard(P, mob, dif, alpha=pick("alpha", 1.0),
                                    gamma=pick("gamma", 0.01))
        if preset == "CONSERVED_AC":
            return ph.conserved_allen_cahn(P, beta=pick("beta", 1.0),
                                           gamma=pick("gamma", 0.01))
        if preset == "NONLOCAL_CH":
            return ph.nonlocal_cahn_hilliard(P, mob, kernel,
                                             alpha=pick("alpha", 1.0))
        return ph.ModelConfig(m["alpha"], m["beta"], m["gamma"],
                              m["sigma1"], m["sigma2"], P, mob, dif,
                              kernel=kernel if m["sigma2"] else None)

    def build_stepper(self) -> StepperConfig:
        # every stepper setting is a [time] key of the same name
        t = self.values["time"]
        return StepperConfig(**{f.name: t[f.name] for f in fields(StepperConfig)})

    def build_initial_field(self, grid: g.Grid) -> g.Field:
        iv = self.values["initial"]
        kind = iv["kind"]
        k = iv["mean"]
        amp = iv["amplitude"]
        if kind == "constant":
            return g.Field.constant(grid, k)
        if kind == "cosine-perturbation":
            axes = grid.cell_centers()
            prof = np.ones(grid.shape)
            for ax, L in zip(axes, grid.lengths):
                prof = prof * np.cos(iv["mode"] * np.pi * ax / L)
            return g.Field(grid, (k + amp * prof).ravel())
        if kind == "random-admissible":
            r = np.random.default_rng(np.random.Philox(iv["seed"]))
            noise = r.uniform(-amp, amp, grid.n_cells)
            noise -= noise.mean()
            vals = k + noise
            if np.max(np.abs(vals)) > 1.0:
                raise ValidationError("random initial data left [-1, 1]")
            return g.Field(grid, vals)
        if kind == "file":
            f = g.load_field(iv["path"])
            if f.grid != grid:
                raise ValidationError("initial data file grid does not match")
            peak, mean = float(np.abs(f.data).max()), f.mean()
            if not (peak <= 1.0 and abs(mean) < 1.0):
                raise ValidationError(f"initial data file {iv['path']}: max |phi| = {peak:g}, "
                                      f"mean {mean:g}; need |phi| <= 1 and a mean in (-1, 1)")
            return f
        raise ValidationError(f"unknown initial-data kind {kind!r}")

    @property
    def t_max(self) -> float:
        return self.values["time"]["t_max"]

    @property
    def output_dir(self) -> str:
        return self.values["output"]["dir"]

    def analysis_params(self) -> dict:
        return dict(self.values["analysis"])

    def provenance(self) -> dict:
        """What a run records about the config that produced it."""
        iv = self.values["initial"]
        return {"config_digest": self.digest(),
                "initial": {"kind": iv["kind"], "mean": iv["mean"],
                            "amplitude": iv["amplitude"], "seed": iv["seed"]}}


def parse_config(path) -> ExperimentConfig:
    """Read and validate an experiment file; fills documented defaults."""
    p = Path(path)
    if not p.exists():
        raise ParseError(f"config file not found: {path}")
    return ExperimentConfig.from_string(p.read_text())
