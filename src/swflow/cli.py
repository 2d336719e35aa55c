"""Experiment runner: randomized identity checks with reproducible reports.

Checks run one after another, in record order.  Each trial draws from a
counter-based substream keyed by (seed, trial index), so its record does
not depend on the other trials and a prefix of trials does not depend on
the total trial count.  The report's summary carries seconds=0.0 to keep
payloads byte-comparable; wall-clock timing goes to stderr.
"""

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import orient as omod
from . import specflow as sfmod
from . import swlocal as sl
from . import torus_model as tm

TOLERANCES = {
    "tol_spectrum": 1e-10,
    "tol_weitzenbock": 1e-10,
    "tol_gradient": 1e-6,
    "tol_symmetry": 1e-12,
    "tol_jacobian": 1e-5,
    "tol_adjoint": 1e-10,
    "tol_coclosure": 1e-8,
    "tol_crossing": 1e-12,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    trials: int = 8
    dim: int = 6
    cutoff: int = 2
    flux: tuple = (-3, -2, -1, 0, 1, 2, 3)
    out: str = None
    format: str = "json"
    tolerances: dict = field(default_factory=dict)

    def tol(self, name):
        return self.tolerances.get(name, TOLERANCES[name])


def _substream(seed, index):
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _parse_flux(text):
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"flux must be a comma-separated integer list: {text!r}") from exc


def _read_config_file(path):
    known_int = {"seed", "trials", "dim", "cutoff"}
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in known_int:
            try:
                out[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} must be an integer") from exc
        elif key in {"flux", "format", "out"}:
            out[key] = value
        elif key in TOLERANCES:
            try:
                out.setdefault("tolerances", {})[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} must be a number") from exc
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return out


def build_config(args):
    """RunConfig from the flags over the config file over the field
    defaults: only keys that were set are passed."""
    merged = _read_config_file(args.config) if args.config is not None else {}
    for key in ("seed", "trials", "dim", "cutoff", "flux", "out", "format"):
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    if "flux" in merged:
        merged["flux"] = _parse_flux(merged["flux"])
    cfg = RunConfig(command=args.command, **merged)
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("seed must fit in 64 bits")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.dim < 2:
        raise ConfigError("dim must be at least 2")
    if cfg.cutoff < 1:
        raise ConfigError("cutoff must be at least 1")
    if cfg.format not in ("json", "csv"):
        raise ConfigError("format must be json or csv")
    if cfg.command == "swcheck" and cfg.cutoff < 2:
        raise ConfigError(
            "swcheck requires cutoff >= 2: quadratic margins leave the truncation at cutoff 1"
        )
    return cfg


# ------------------------------------------------------------- commands


def _random_symmetric_path(rng, dim):
    while True:
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        c = rng.standard_normal((dim, dim))
        a, b, c = a + a.T, b + b.T, c + c.T
        if rng.random() < 0.5:
            path = sfmod.HermitianPath.affine(a, b, -1.0, 1.0)
        else:
            # ||A''||_2 = 1.7^2 |sin(1.7 t)| ||c||_2 <= 1.7^2 ||c||_2
            path = sfmod.HermitianPath.from_callable(
                lambda t: a + t * b + np.sin(1.7 * t) * c,
                -1.0,
                1.0,
                num_samples=25,
                derivative=lambda t: b + 1.7 * np.cos(1.7 * t) * c,
                curvature=1.7**2 * sfmod._sym_norm2(c),
            )
        e0 = np.abs(np.linalg.eigvalsh(path.values[0])).min()
        e1 = np.abs(np.linalg.eigvalsh(path.values[-1])).min()
        if min(e0, e1) > 1e-3:
            return path


def cmd_otsf(cfg):
    def trial(i):
        rng = _substream(cfg.seed, i)
        rep = omod.transport_report(_random_symmetric_path(rng, cfg.dim))
        return {
            "id": f"otsf-{i}",
            "citation": "orientation transport equals the spectral-flow parity",
            "pass": rep.eps_det == rep.eps_sf,
            "values": {
                "dim": cfg.dim,
                "eps_det": rep.eps_det,
                "eps_sf": rep.eps_sf,
                "sf": rep.sf,
            },
        }

    return [trial(i) for i in range(cfg.trials)]


def cmd_wallcross(cfg):
    def item(d):
        sfs = {
            depth: sfmod.spectral_flow(tm.magnetic_family_path(d, depth)).sf
            for depth in (2, 4, 8)
        }
        values = {"flux": d, "expected": -d}
        values.update({f"sf_depth_{depth}": sf for depth, sf in sfs.items()})
        return {
            "id": f"wallcross-{d}",
            "citation": "one-period spectral flow equals minus the flux",
            "pass": all(sf == -d for sf in sfs.values()),
            "values": values,
        }

    return [item(d) for d in cfg.flux]


def _analytic_dirac_residual(cutoff, alpha):
    trunc = tm.TorusTruncation(cutoff)
    want = []
    for k in trunc.modes:
        r = float(np.linalg.norm(k + alpha / 2.0))
        want.extend([-r, r])
    got = np.linalg.eigvalsh(tm.fourier_dirac(trunc, tm.FlatConnection(alpha)))
    return float(np.max(np.abs(np.sort(np.asarray(want)) - got)))


def cmd_torus(cfg):
    def spectrum(i):
        rng = _substream(cfg.seed, i)
        alpha = rng.uniform(-1.0, 1.0, size=3)
        resid = _analytic_dirac_residual(min(cfg.cutoff, 3), alpha)
        return {
            "id": f"spectrum-{i}",
            "citation": "truncated Dirac spectrum matches the closed form",
            "pass": resid <= cfg.tol("tol_spectrum"),
            "values": {"residual": resid, "tolerance": cfg.tol("tol_spectrum")},
        }

    def gauge_period():
        rng = _substream(cfg.seed, cfg.trials)
        alpha = rng.uniform(-1.0, 1.0, size=3)
        trunc = tm.TorusTruncation(cfg.cutoff)
        path = tm.dirac_family_path(trunc, alpha, alpha + np.array([2.0, 0.0, 0.0]))
        # flowed crossing by crossing: the two ends' spectra agree up to
        # the truncation's clipping, so an endpoint count would check little
        rep = sfmod.spectral_flow(path)
        return {
            "id": "gauge-period",
            "citation": "one gauge period produces zero net spectral flow",
            "pass": rep.sf == 0,
            "values": {"crossings": len(rep.crossings), "sf": rep.sf},
        }

    def weitz(i):
        rng = _substream(cfg.seed, 10_000 + i)
        trunc = tm.TorusTruncation(cfg.cutoff)
        conn = tm.FlatConnection(rng.uniform(-1.0, 1.0, size=3))
        mode = rng.integers(-1, 2, size=3)
        coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        resid = tm.weitzenbock_check(trunc, conn, mode, coeff)
        return {
            "id": f"weitzenbock-{i}",
            "citation": "coupled Dirac square matches its curvature expansion",
            "pass": resid <= cfg.tol("tol_weitzenbock"),
            "values": {"residual": resid, "tolerance": cfg.tol("tol_weitzenbock")},
        }

    return (
        [spectrum(i) for i in range(cfg.trials)]
        + [gauge_period()]
        + [weitz(i) for i in range(cfg.trials)]
    )


def _random_tangent(trunc, rng, radius):
    mask = trunc.radii <= radius
    count = int(mask.sum())
    phi = np.zeros((trunc.mode_count, 2), dtype=complex)
    phi[mask] = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    a = np.zeros((trunc.mode_count, 3))
    a[mask] = rng.standard_normal((count, 3))
    return sl.TangentVector(phi / max(np.linalg.norm(phi), 1e-12), a / max(np.linalg.norm(a), 1e-12))


def cmd_swcheck(cfg):
    trunc = tm.TorusTruncation(cfg.cutoff)
    radius = cfg.cutoff // 2

    def gradient(i):
        rng = _substream(cfg.seed, i)
        c = sl.random_configuration(trunc, rng)
        tv = _random_tangent(trunc, rng, radius)
        pairing = sl.tangent_inner(sl.sw_map(c), tv)
        step = 1e-4
        plus = sl.chern_simons_dirac(
            sl.Configuration(trunc, c.psi + step * tv.phi, c.alpha, c.a_field + step * tv.a)
        )
        minus = sl.chern_simons_dirac(
            sl.Configuration(trunc, c.psi - step * tv.phi, c.alpha, c.a_field - step * tv.a)
        )
        err = abs((plus - minus) / (2 * step) - pairing) / max(1.0, abs(pairing))
        return {
            "id": f"gradient-{i}",
            "citation": "monopole map is the L2 gradient of the action",
            "pass": err <= cfg.tol("tol_gradient"),
            "values": {"relative_error": err, "tolerance": cfg.tol("tol_gradient")},
        }

    def hessian(i):
        rng = _substream(cfg.seed, 20_000 + i)
        c = sl.random_configuration(trunc, rng)
        h = sl.sw_hessian(c)
        sym = sfmod._sym_defect(h)
        tv = _random_tangent(trunc, rng, radius)
        vec = sl.tangent_to_vector(tv)
        step = 1e-3
        c_plus = sl.Configuration(
            trunc, c.psi + step * tv.phi, c.alpha, c.a_field + step * tv.a
        )
        c_minus = sl.Configuration(
            trunc, c.psi - step * tv.phi, c.alpha, c.a_field - step * tv.a
        )
        fd = (
            sl.tangent_to_vector(sl.sw_map(c_plus))
            - sl.tangent_to_vector(sl.sw_map(c_minus))
        ) / (2 * step)
        jac = float(np.max(np.abs(fd - h @ vec)) / max(1.0, np.max(np.abs(fd))))
        return {
            "id": f"hessian-{i}",
            "citation": "linearization is symmetric and matches finite differences",
            "pass": sym <= cfg.tol("tol_symmetry") and jac <= cfg.tol("tol_jacobian"),
            "values": {"symmetry": sym, "jacobian_error": jac},
        }

    def adjoint(i):
        rng = _substream(cfg.seed, 30_000 + i)
        c = sl.random_configuration(trunc, rng)
        tv = _random_tangent(trunc, rng, radius)
        f = np.zeros(trunc.mode_count)
        mask = trunc.radii <= radius
        f[mask] = rng.standard_normal(int(mask.sum()))
        lhs = sl.tangent_inner(sl.gauge_deriv(c, f), tv)
        rhs = float(f @ sl.gauge_deriv_adjoint(c, tv))
        err = abs(lhs - rhs) / max(1.0, abs(lhs))
        return {
            "id": f"adjoint-{i}",
            "citation": "gauge derivative and its adjoint pair symmetrically",
            "pass": err <= cfg.tol("tol_adjoint"),
            "values": {"relative_error": err, "tolerance": cfg.tol("tol_adjoint")},
        }

    def coclosure(i):
        rng = _substream(cfg.seed, 40_000 + i)
        c = sl.random_configuration(trunc, rng)
        resid = sl.dastq_residual(c)
        return {
            "id": f"coclosure-{i}",
            "citation": "quadratic covector is co-closed against the Dirac pairing",
            "pass": resid <= cfg.tol("tol_coclosure"),
            "values": {"residual": resid, "tolerance": cfg.tol("tol_coclosure")},
        }

    def kernel():
        # Each assembled Hessian must split into the Dirac and form blocks;
        # the spectra are then taken by blocks.  Both Hessians are checked
        # and freed first, so that the second reuses the first's memory.
        rng = _substream(cfg.seed, 50_000)
        n_s = 4 * trunc.mode_count
        alphas = {"generic": rng.uniform(0.2, 0.8, size=3), "zero": np.zeros(3)}
        configs = {
            label: sl.Configuration(trunc, np.zeros((trunc.mode_count, 2)), alpha)
            for label, alpha in alphas.items()
        }
        split = True
        for c in configs.values():
            h = sl.extended_hessian(c)
            split = split and not (np.any(h[:n_s, n_s:]) or np.any(h[n_s:, :n_s]))
            del h
        dims = {}
        for label, c in configs.items():
            eigs, _ = sl._reducible_spectrum(c)
            dims[label] = int(np.sum(np.abs(eigs) <= 1e-8 * np.max(np.abs(eigs))))
        return {
            "id": "kernel",
            "citation": "reducible extended Hessian kernel has dimensions 4 and 8",
            "pass": split and dims["generic"] == 4 and dims["zero"] == 8,
            "values": dims,
        }

    def crossing():
        rng = _substream(cfg.seed, 60_000)
        psi0 = np.zeros((trunc.mode_count, 2), dtype=complex)
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi0[trunc.index((0, 0, 0))] = vec / np.linalg.norm(vec)
        w = rng.standard_normal(3)
        b0 = sl.crossing_matrix_b0(trunc, psi0)
        spec_err = float(
            np.max(np.abs(np.linalg.eigvalsh(b0) - np.array([-1.0, 0.0, 1.0])))
        )
        kap = sl.crossing_coefficient(trunc, psi0, w)
        passes = spec_err == 0.0
        det_err = None
        if abs(kap) > 1e-6:
            b1 = sl.crossing_matrix_b1(trunc, psi0, w)
            det_err = float(
                abs(np.linalg.det(b1) - (kap / np.linalg.norm(w)) ** 2)
            )
            passes = passes and det_err <= cfg.tol("tol_crossing")
        values = {"spectrum_error": spec_err, "coupling": kap}
        if det_err is not None:
            values["determinant_error"] = det_err
        return {
            "id": "crossing",
            "citation": "crossing operators have the pinned spectrum and determinant",
            "pass": passes,
            "values": values,
        }

    return (
        [gradient(i) for i in range(cfg.trials)]
        + [hessian(i) for i in range(min(cfg.trials, 3))]
        + [adjoint(i) for i in range(cfg.trials)]
        + [coclosure(i) for i in range(cfg.trials)]
        + [kernel(), crossing()]
    )


COMMANDS = {
    "otsf": cmd_otsf,
    "wallcross": cmd_wallcross,
    "torus": cmd_torus,
    "swcheck": cmd_swcheck,
}


# --------------------------------------------------------------- report


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def build_report(cfg, results):
    results = _jsonable(results)
    n_pass = sum(1 for rec in results if rec["pass"])
    return {
        "config": {
            "command": cfg.command,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "dim": cfg.dim,
            "cutoff": cfg.cutoff,
            "flux": list(cfg.flux),
            "format": cfg.format,
            "tolerances": dict(sorted(cfg.tolerances.items())),
        },
        "results": results,
        "summary": {
            "pass": n_pass,
            "fail": len(results) - n_pass,
            "seconds": 0.0,
        },
        "version": __version__,
    }


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "citation", "pass", "values"])
    for rec in report["results"]:
        writer.writerow(
            [
                rec["id"],
                rec["citation"],
                "true" if rec["pass"] else "false",
                json.dumps(rec["values"], sort_keys=True),
            ]
        )
    return buf.getvalue()


@functools.cache
def _parser():
    """The argument parser, built once: ``parse_args`` fills a fresh
    namespace on every call, so calls share no values."""
    parser = argparse.ArgumentParser(
        prog="swflow",
        description="Randomized identity checks for the truncated monopole toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("otsf", "orientation transport vs spectral-flow parity on random paths"),
        ("wallcross", "one-period spectral flow of the magnetic family per flux"),
        ("torus", "Dirac spectrum, gauge-period flow and curvature identities"),
        ("swcheck", "gradient, Hessian, gauge and crossing identities"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=None, help="64-bit substream seed")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--dim", type=int, default=None, help="matrix size for otsf")
        p.add_argument("--cutoff", type=int, default=None, help="Fourier truncation")
        p.add_argument("--flux", type=str, default=None, help="comma-separated integers")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--config", type=str, default=None, help="key = value overrides file")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    started = time.perf_counter()
    try:
        cfg = build_config(args)
        results = COMMANDS[cfg.command](cfg)
    except (ConfigError, tm.MarginError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = build_report(cfg, results)
    payload = render(report, cfg.format)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    elapsed = time.perf_counter() - started
    summary = report["summary"]
    print(
        f"# {cfg.command}: {summary['pass']} passed, {summary['fail']} failed"
        f" in {elapsed:.3f}s",
        file=sys.stderr,
    )
    return 0 if summary["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
