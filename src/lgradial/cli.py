"""Command line front end: `lg-radial COMMAND [--config FILE|-] [--key value ...]`.

Commands
--------
render   write intensity and phase maps (binary PGM, P5) of one mode or an
         (n, l) batch over a square window
phexp    write the hyperbolic-momentum expectation sweep (CSV) with a JSON
         sidecar of fit diagnostics, versus z or versus w0
overlap  write radial-mode overlap matrices versus propagation mismatch
         (CSV) plus per-mismatch completeness
verify   run the eigenvalue / commutator / dilation / overlap / hermiticity /
         synthesis / Maxwell suites and write a JSON report

Configuration is a single JSON document (file, or '-' for stdin) merged
over built-in defaults, then overridden by `--dotted.path value` flags: a
flag `--a.b v` is the document {"a": {"b": v}}, merged the same way, so
`--mode '{"n": 1}'` merges into its section as `--config` does.  `verify`
runs its analytic eigen checks on each mode's exact default Gauss grid.
All outputs are deterministic functions of the config: fixed sample points,
no RNG, stable JSON key order, 17-significant-digit CSV.

Exit codes: 0 success, 1 verification failure, 2 usage/config error (an
unreadable config file included), 3 I/O error (any OS-level read or write
failure, reading `--config -` from stdin included), 4 internal error,
5 accuracy error.  No exit prints a traceback.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import numpy as np

# the position-space core only: each command imports the families it uses
from .constants import C_LIGHT, SIGN_POLICIES
from .errors import DiagnosticError, QuadratureConvergenceError
from .lgmode import (FieldGrid, LGParams, PolarGrid, _radial_profiles,
                     quadrature_polar_grid, sample, uniform_polar_grid)

# Every config key once: a section is a dict, a leaf a (default, type) pair; a type
# names an entry of _LEAF_TYPES, "[]" marks a list of them and "?" allows null.
_CONFIG = {
    "command": (None, "command"),
    "mode": {"n": (0, "count"), "l": (0, "int"), "wavelength_nm": (633.0, "positive"),
             "w0_m": (1e-3, "positive")},
    "grid": {"window_diameter_m": (6e-3, "positive"), "pixels": (256, "size"),
             "z_m": (0.0, "number")},
    "sweep": {"z_list_m": (None, "number[]?"), "w0_list_m": (None, "positive[]?"),
              "dz_list_m": (None, "number[]?"), "n_list": (None, "count[]?"),
              "n_max": (9, "count"), "completeness_threshold": (0.99, "number")},
    "render": {"n_list": (None, "count[]?"), "l_list": (None, "int[]?")},
    "output": {"dir": (".", "str"), "basename": ("lg", "str")},
    "policy": ("symmetrized", "policy"),
}


def _defaults(tree=_CONFIG):
    """The config of every default, as a fresh tree of plain values."""
    return {key: _defaults(v) if isinstance(v, dict) else v[0] for key, v in tree.items()}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


COMMANDS = ("render", "phexp", "overlap", "verify")

_LEAF_TYPES = {
    "command": (f"one of {COMMANDS}", lambda v: v in COMMANDS),
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", _is_int),
    "size": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "count": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "number": ("a finite number", _is_number),
    "positive": ("a finite number > 0", lambda v: _is_number(v) and v > 0),
    "policy": (f"one of {SIGN_POLICIES}", lambda v: isinstance(v, str) and v in SIGN_POLICIES),
}


class ConfigError(ValueError):
    pass


def _merge(base, override):
    """base updated by override; a section is merged into, never replaced."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(out.get(key), dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{key} must be an object, got {val!r}")
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def parse_config(argv):
    """Positional command, optional --config, dotted overrides -> config dict."""
    args = list(argv)
    command = None
    if args and not args[0].startswith("-"):
        command = args.pop(0)
    cfg = _defaults()
    overrides = []
    it = iter(args)
    for a in it:
        if not a.startswith("--"):
            raise ConfigError(f"unexpected argument {a!r}")
        key, val = a[2:], next(it, None)
        if val is None:
            raise ConfigError(f"flag --{key} is missing a value")
        if key == "config":
            text = sys.stdin.read() if val == "-" else _read_text(val)
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e}") from e
            if not isinstance(doc, dict):
                raise ConfigError("config document must be a JSON object")
            cfg = _merge(cfg, doc)
            continue
        try:
            doc = json.loads(val)
        except json.JSONDecodeError:
            doc = val
        for part in reversed(key.split(".")):
            doc = {part: doc}
        overrides.append(doc)
    for doc in overrides:
        cfg = _merge(cfg, doc)
    if command is not None:
        cfg["command"] = command
    _validate(cfg)
    return cfg


def _validate(cfg, tree=_CONFIG, prefix=""):
    """Raise ConfigError for an unknown key, a wrong type, an out-of-range size or an empty list."""
    for key, value in cfg.items():
        path = prefix + key
        if key not in tree:
            raise ConfigError(f"unknown key {path!r}")
        if isinstance(tree[key], dict):  # _merge keeps every section an object
            _validate(value, tree[key], path + ".")
            continue
        want = tree[key][1]
        if value is None and want.endswith("?"):
            continue
        leaf = want.rstrip("?")
        if leaf.endswith("[]"):
            what, check = _LEAF_TYPES[leaf[:-2]]
            what = f"a nonempty list with each item {what}"
            ok = isinstance(value, list) and bool(value) and all(check(v) for v in value)
        else:
            what, check = _LEAF_TYPES[leaf]
            ok = check(value)
        if not ok:
            raise ConfigError(f"{path} must be {what}, got {value!r}")


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e


def _mode_params(cfg, n=None, l=None) -> LGParams:
    m = cfg["mode"]
    k = 2.0 * math.pi / (float(m["wavelength_nm"]) * 1e-9)
    return LGParams(int(m["n"] if n is None else n),
                    int(m["l"] if l is None else l),
                    k, float(m["w0_m"]))


# ---------------------------------------------------------------------------
# writers

def _fmt(x):
    return f"{x:.16e}"


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_pgm(path, image):
    """Binary PGM (P5, maxval 255) from a uint8 array indexed [row, col]."""
    image = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def _out_path(cfg, suffix):
    return os.path.join(cfg["output"]["dir"], f"{cfg['output']['basename']}_{suffix}")


# ---------------------------------------------------------------------------
# commands

def cmd_render(cfg):
    g = cfg["grid"]
    pixels = int(g["pixels"])
    half = 0.5 * float(g["window_diameter_m"])
    z = float(g["z_m"])
    axis = (np.arange(pixels) + 0.5) / pixels * 2 * half - half
    X, Y = np.meshgrid(axis, -axis, indexing="xy")  # row 0 at top
    R = np.hypot(X, Y)
    PHI = np.arctan2(Y, X)

    n_list = cfg["render"]["n_list"] or [int(cfg["mode"]["n"])]
    l_list = cfg["render"]["l_list"] or [int(cfg["mode"]["l"])]
    files = {}
    for l in l_list:
        # one radial pass per l: a table row does not depend on the table's length
        params = _mode_params(cfg, l=l)
        table, curvature, gouy = _radial_profiles(max(n_list), l, params.k, params.w0, z, R)
        azimuthal = np.exp(1j * l * PHI)
        for n in n_list:
            field = table[n] * curvature * gouy[n] * azimuthal  # lg_field's order of products
            intensity = np.abs(field) ** 2
            peak = intensity.max()
            img_i = np.rint(255.0 * intensity / peak).astype(np.uint8) if peak > 0 \
                else np.zeros_like(intensity, dtype=np.uint8)
            phase = np.angle(field)
            img_p = np.rint((phase + math.pi) / (2 * math.pi) * 255.0)
            img_p = np.clip(img_p, 0, 255).astype(np.uint8)
            fi = _out_path(cfg, f"n{n}_l{l}_intensity.pgm")
            fp = _out_path(cfg, f"n{n}_l{l}_phase.pgm")
            write_pgm(fi, img_i)
            write_pgm(fp, img_p)
            files[n, l] = [fi, fp]
    return [f for n in n_list for l in l_list for f in files[n, l]]


def cmd_phexp(cfg):
    from .analysis import ph_vs_w0, ph_vs_z

    sweep = cfg["sweep"]
    if sweep["z_list_m"] and sweep["w0_list_m"]:
        raise ConfigError("phexp takes sweep.z_list_m or sweep.w0_list_m, not both")
    if sweep["z_list_m"]:
        abscissa_name, xs, curve = "z_m", sweep["z_list_m"], ph_vs_z
    elif sweep["w0_list_m"]:
        z = float(cfg["grid"]["z_m"])
        abscissa_name, xs = "w0_m", sweep["w0_list_m"]
        curve = lambda params, w0_list: ph_vs_w0(params, w0_list, z)
    else:
        raise ConfigError("phexp requires sweep.z_list_m or sweep.w0_list_m")
    rows, sidecar = [], []
    for n in sweep["n_list"] or [int(cfg["mode"]["n"])]:
        series = curve(_mode_params(cfg, n=n), [float(x) for x in xs])
        rows += [(x, float(v), n) for x, v in zip(series.abscissa, series.values)]
        sidecar.append({"n": int(n), **series.diagnostics})
    csv_path = _out_path(cfg, "phexp.csv")
    write_csv(csv_path, (abscissa_name, "ph_expectation", "n"), rows)
    json_path = _out_path(cfg, "phexp_fit.json")
    write_json(json_path, {"abscissa": abscissa_name, "series": sidecar})
    return [csv_path, json_path]


def cmd_overlap(cfg):
    from .analysis import overlap_matrix

    sweep = cfg["sweep"]
    dz_list = sweep["dz_list_m"]
    if not dz_list:
        raise ConfigError("overlap requires sweep.dz_list_m")
    params = _mode_params(cfg)
    n_set = range(int(sweep["n_max"]) + 1)
    threshold = float(sweep["completeness_threshold"])
    rows, crows = [], []
    for dz in dz_list:
        M = overlap_matrix(params.l, n_set, 0.0, float(dz), params.w0, params.w0, params.k)
        for i, n in enumerate(M.n_set):
            for j, n_p in enumerate(M.n_set):
                e = M.entries[i, j]
                rows.append((float(dz), n, n_p, float(e.real), float(e.imag),
                             float(abs(e) ** 2)))
        comp = M.completeness()
        for j, n_p in enumerate(M.n_set):
            mm = M.min_modes(column=j, threshold=threshold)
            crows.append((float(dz), n_p, float(comp[j]), -1 if mm is None else mm))
    main_path = _out_path(cfg, "overlap.csv")
    write_csv(main_path, ("dz_m", "n", "n_prime", "re", "im", "abs2"), rows)
    comp_path = _out_path(cfg, "overlap_completeness.csv")
    write_csv(comp_path, ("dz_m", "n_prime", "completeness", "min_modes"), crows)
    return [main_path, comp_path]


# ---------------------------------------------------------------------------
# verify

def _check(name, measured, tolerance, mode="max"):
    ok = bool(measured <= tolerance) if mode == "max" else bool(measured >= tolerance)
    return {"name": name, "measured": float(measured), "tolerance": float(tolerance),
            "comparison": "<=" if mode == "max" else ">=", "pass": ok}


def _exact_eigen_residual(p, policy, kind="N0", z=0.0):
    """Analytic eigen residual of mode p on its own exact default Gauss grid at plane z."""
    from .paraxops import Operator, eigen_residual

    op = Operator(kind, params=p, z=z, sign_policy=policy)
    return eigen_residual(p, op, quadrature_polar_grid(p, z))


def _ph_checks(k, w0):
    """The paper's result (arXiv:1509.06875): the radial index is the intrinsic hyperbolic
    momentum charge, so <PH> = (2n + |l| + 1) z/zR.  `expectation` must give it to 1e-12
    relative, for modes up to n = 50 and one with l < 0, before and after the focus."""
    from .analysis import expectation

    checks, zr = [], k * w0**2 / 2
    for n, l in ((0, 0), (2, 1), (3, -2), (50, 7)):
        for t in (0.3, 2.0, -1.5):
            want = (2 * n + abs(l) + 1) * t
            err = abs(expectation("PH", LGParams(n, l, k, w0), t * zr) - want) / abs(want)
            checks.append(_check(f"ph/closed_form/n{n}l{l}/z{t:g}zR", err, 1e-12))
    return checks


def _verify_checks(cfg):
    from .analysis import overlap_matrix
    from .exactwave import (BesselModeParams, SpacetimePoint, chi_closed_form,
                            maxwell_residual, rs_bessel_field, synthesize_lg)
    from .momentum import (ExactMomentumParams, hermiticity_defect,
                           nk_eigen_residual, paraxial_norm_sq, psi_paraxial)
    from .paraxops import Operator, commutator_residual, dilation_check, eigen_residual

    checks = []
    policy = cfg["policy"]
    params0 = _mode_params(cfg)
    k, w0 = params0.k, params0.w0
    zr = k * w0**2 / 2

    # eigenrelations, analytic path
    for (n, l) in ((0, 0), (2, 1), (3, 2)):
        r = _exact_eigen_residual(LGParams(n, l, k, w0), policy)
        checks.append(_check(f"eigen/N0/analytic/n{n}l{l}", r, 1e-8))
    p = LGParams(2, 1, k, w0)
    r = _exact_eigen_residual(p, policy, "Nz", zr)
    checks.append(_check("eigen/Nz/analytic/n2l1/zR", r, 1e-8))
    checks += _ph_checks(k, w0)

    # one FD spot check
    gu = uniform_polar_grid(p, 0.0, n_max=4, l_max=3, nr=768, nphi=16)
    r = eigen_residual(p, Operator("N0", params=p, sign_policy=policy), gu, method="fd")
    checks.append(_check("eigen/N0/fd/n2l1", r, 1e-4))

    # commutators
    f22 = sample(LGParams(2, 2, k, w0), uniform_polar_grid(
        LGParams(2, 2, k, w0), 0.0, n_max=4, l_max=4, nr=768, nphi=16))
    r = commutator_residual(Operator("N0", params=LGParams(2, 2, k, w0)),
                            Operator("Lz"), f22)
    checks.append(_check("commutator/N0_Lz", r, 1e-6))
    rr = (np.arange(1024) + 0.5) * (8.0 / 1024)
    gsm = PolarGrid(rr, np.arange(16) * (2 * math.pi / 16),
                    r_weights=np.full(1024, 8.0 / 1024))
    fsm = FieldGrid(gsm, np.exp(-rr[:, None] ** 2) * np.ones((1, 16)))
    r = commutator_residual(Operator("laplacian_t"), Operator("PH"), fsm)
    checks.append(_check("commutator/lap_PH", r, 1e-5))

    # unitarity of su(1,1) group elements: dilations, and the overlaps at dz = zR
    gauss = lambda x: np.exp(-x**2)
    for gma in (0.3, -0.3, 1.0, -1.0):
        dc = dilation_check(gauss, gma)
        checks.append(_check(f"dilation/unitarity/gamma{gma}",
                             abs(dc.unitarity_ratio - 1.0), 1e-10))
    checks.append(_check("dilation/generator", dilation_check(gauss, 0.0).generator_defect, 1e-6))
    comp = overlap_matrix(0, range(121), 0.0, zr, w0, w0, k).completeness()[:13]
    checks.append(_check("overlap/unitarity", np.max(np.abs(1.0 - comp)), 1e-12))

    # momentum eigenrelations (pointwise)
    omega = C_LIGHT * k
    kml = np.linspace(0.05, 18.0, 25)
    kpl = np.linspace(0.0, 2 * math.pi, 25, endpoint=False)
    for (n, m, s) in ((0, 0, 1), (3, 2, 1), (2, 4, -1)):
        pp = ExactMomentumParams(n, m, s, omega, w0)
        r = nk_eigen_residual(pp, kml / pp.beta, kpl, policy)
        checks.append(_check(f"eigen/Nk/n{n}m{m}s{s:+d}", r, 1e-10))

    # hermiticity restriction
    pp = ExactMomentumParams(1, 2, 1, omega, w0)
    nrm = math.sqrt(paraxial_norm_sq(pp))
    good = lambda kt, kphi: psi_paraxial(pp, kt, kphi) / nrm
    hd = hermiticity_defect(good, w=w0, sigma=1, kt_max=14.0 / w0)
    checks.append(_check("hermiticity/lg_wavefunction", abs(hd.defect) / hd.norm_sq, 1e-9))
    bad = lambda kt, kphi: good(kt, kphi) * np.exp(1j * kt * w0)
    hb = hermiticity_defect(bad, w=w0, sigma=1, kt_max=14.0 / w0)
    checks.append(_check("hermiticity/complex_counterexample",
                         abs(hb.defect) / hb.norm_sq, 1e-3, mode="min"))

    # synthesis vs closed form, pointwise: no fitted scale
    t_ray = w0**2 * omega / C_LIGHT**2
    pts = SpacetimePoint(r=np.linspace(0.08, 2.6, 24) * w0, phi=np.linspace(0.0, 6.0, 24),
                         z=np.linspace(-2.0, 2.0, 24) * w0, t=np.linspace(-0.4, 0.4, 24) * t_ray)
    for (n, m, s) in ((0, 0, 1), (1, 1, -1)):
        pp = ExactMomentumParams(n, m, s, omega, w0)
        chi = chi_closed_form(pp, pts)
        err = np.max(np.abs(synthesize_lg(pp, pts, 96) - chi) / np.abs(chi))
        checks.append(_check(f"synthesis/n{n}m{m}s{s:+d}", err, 1e-6))

    # Maxwell residual of an exact Bessel mode
    lam = 2 * math.pi / k
    bp = BesselModeParams(m=1, sigma=1, k_t=0.05 * k, k_z=math.sqrt(1 - 0.05**2) * k)
    pt = SpacetimePoint(r=0.4e-3, phi=0.7, z=5 * lam, t=3.0 / bp.omega_k)
    res = maxwell_residual(lambda q: rs_bessel_field(bp, q), pt, wavenumber=bp.k)
    checks.append(_check("maxwell/curl", res.curl_defect, 1e-6))
    checks.append(_check("maxwell/divergence", res.div_defect, 1e-6))
    if res.warning:
        checks.append({"name": "maxwell/step_halving", "measured": res.warning,
                       "tolerance": None, "comparison": None, "pass": False})
    return checks


def _negative_index_section(k, w0):
    entries = []
    for l in (-1, -2):
        for n in (0, 1):
            p = LGParams(n, l, k, w0)
            entries.append({
                "n": n, "l": l,
                "verbatim_eigenvalue": n + abs(l),
                "verbatim_residual": _exact_eigen_residual(p, "verbatim"),
                "symmetrized_eigenvalue": n,
                "symmetrized_residual": _exact_eigen_residual(p, "symmetrized"),
            })
    return {
        "note": ("the radial-index operator as printed acts on exp(i l phi) "
                 "through -Lz/2 and returns n + |l| when l < 0; the "
                 "symmetrized variant (-|Lz|/2) restores eigenvalue n for "
                 "every l"),
        "cases": entries,
    }


def cmd_verify(cfg):
    checks = _verify_checks(cfg)
    params0 = _mode_params(cfg)
    report = {
        "policy": cfg["policy"],
        "checks": checks,
        "negative_index": _negative_index_section(params0.k, params0.w0),
        "all_pass": all(c["pass"] for c in checks),
    }
    path = _out_path(cfg, "verify.json")
    write_json(path, report)
    for c in checks:
        status = "pass" if c["pass"] else "FAIL"
        print(f"[{status}] {c['name']}: measured={c['measured']} tol={c['tolerance']}")
    print(f"report: {path}")
    return 0 if report["all_pass"] else 1


def main(argv=None):
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        # looked up at call time, so a replaced cmd_<name> is the one that runs
        out = globals()[f"cmd_{cfg['command']}"](cfg)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except QuadratureConvergenceError as e:
        print(f"accuracy error: {e}", file=sys.stderr)
        return 5
    except (ConfigError, DiagnosticError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # the CLI boundary: one line, never a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    if isinstance(out, int):  # verify prints its own report and verdict
        return out
    for f in out:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
