"""The workloads: crosstalk, operators and cli_readme.

Each is built from the workload seed, and lgradial receives only the
generated inputs. `round(index)` does one round: a fixed amount of work in
which every operation's result is checked against `reference.py` or
against the tolerance `lg-radial verify` uses for it. `probe()` runs after
traced rounds only: it calls the lower layers that a higher call hides
(`overlap_matrix` hides `specfun` and `lg_field`) on the same sizes, so the
trace can say which layer the time belongs to.

The benchmark calls only public names: those `lgradial` exports, plus
`lgradial.cli.main` (in child interpreters), `specfun.laguerre` and
`specfun.make_rule`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource

import numpy as np

import lgradial as lg
from lgradial import specfun

from . import reference as ref
from .harness import OUT, Tracer, import_samples, run_child

K, W0, ZR = ref.K, ref.W0, ref.ZR
IMPORT_PROBES = 5


class InProcess:
    """A workload that drives the library inside this process."""

    def setup(self):
        """Import times of lgradial in fresh interpreters that only import it."""
        return import_samples(1 if self.small else IMPORT_PROBES)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Crosstalk(InProcess):
    """Radial-mode crosstalk: an overlap-matrix ladder and one decomposition.

    One library session in one process, so caches stay warm across rounds.
    Nearly all the time goes to the radial tables (the specfun Laguerre
    recurrence, rule roots up to order 5152, lg_field); the FD path is never
    touched.
    """

    def __init__(self, seed, run, small=False):
        rng = np.random.default_rng(seed)
        self.run, self.tracer = run, run.tracer
        self.small = small
        self.ladder = (2, 4) if small else (12, 60, 120, 160)
        self.l = int(rng.integers(0, 4))
        # dz in [1, 1.8] zR and w0'/w0 in [0.8, 1.25]: across this box the
        # n_max = 160 rung overflows to NaN at the seed and n_max = 120 does
        # not, so every seed fails the same operation (README.md has the map)
        self.dz = float(rng.uniform(1.0, 1.8)) * ZR
        self.w0p = float(rng.uniform(0.8, 1.25)) * W0
        self.n_dec = 4 if small else 20
        coeffs = rng.normal(size=self.n_dec + 1) + 1j * rng.normal(size=self.n_dec + 1)
        self.coeffs = coeffs / np.linalg.norm(coeffs)
        self.order = 64 if small else 512
        self.refs = {(i, j): ref.overlap(i, j, self.l, K, W0, 0.0, self.w0p, self.dz)
                     for i in range(3) for j in range(3)}
        self.first = {}

    def round(self, index):
        for n_max in self.ladder:
            self.run.operation(f"overlap_matrix.n{n_max}", self._rung, n_max)
        self.run.operation("decompose", self._decompose)

    def _rung(self, n_max):
        run = self.run
        m = self.tracer.call(f"analysis.overlap_matrix.n{n_max}", lg.overlap_matrix,
                             self.l, range(n_max + 1), 0.0, self.dz, W0, self.w0p, K,
                             memory=n_max == self.ladder[-1])
        e = m.entries
        run.require("overlap/finite", np.isfinite(e).all())
        run.expect("overlap/|O| <= 1", np.max(np.abs(e)) - 1.0, 1e-9)
        run.expect("overlap/completeness <= 1", np.max(np.sum(np.abs(e) ** 2, axis=0)) - 1.0, 1e-9)
        for (i, j), value in self.refs.items():
            run.expect(f"overlap/reference[{i},{j}]", abs(e[i, j] - value), 1e-9)
        run.same(f"overlap.n{n_max}", np.array_equal(e, self.first.setdefault(n_max, e),
                                                     equal_nan=True))

    def _decompose(self):
        grid = self._grid()
        r, phi = grid.r_nodes[:, None], grid.phi_nodes[None, :]
        values = sum(c * ref.lg_mode(n, self.l, K, self.w0p, self.dz, r, phi)
                     for n, c in enumerate(self.coeffs))
        dec = self.tracer.call("analysis.decompose", lg.decompose, lg.FieldGrid(grid, values),
                               self.l, range(self.n_dec + 1), self.dz, self.w0p, K, memory=True)
        self.run.expect("decompose/coefficients",
                        np.max(np.abs(dec.coefficients - self.coeffs)), 1e-8)
        first = self.first.setdefault("decompose", dec.coefficients)
        self.run.same("decompose", np.array_equal(dec.coefficients, first))

    def _grid(self):
        return self.tracer.call("lgmode.quadrature_polar_grid", lg.quadrature_polar_grid,
                                lg.LGParams(self.n_dec, self.l, K, self.w0p), self.dz,
                                order=self.order, nphi=32)

    def probe(self):
        call = self.tracer.call
        for n_max in self.ladder:
            # the two rule orders and the extent overlap_matrix uses at the seed
            m = max(192, 16 * (n_max + 1))
            rmax = (1.5 * max(W0, ref.waist(K, self.w0p, self.dz))
                    * math.sqrt(2.0 * (2 * n_max + self.l + 1)))
            for order in (m, 2 * m):
                rule = call("specfun.make_rule", specfun.make_rule, "legendre", order,
                            interval=(0.0, rmax))
            u = 2.0 * rule.nodes**2 / W0**2
            for n in range(n_max + 1):
                call("lgmode.lg_field", lg.lg_field, lg.LGParams(n, self.l, K, W0),
                     rule.nodes, 0.0, 0.0)
                call("specfun.laguerre", specfun.laguerre, n, self.l, u)
        call("lgmode.sample", lg.sample, lg.LGParams(self.n_dec, self.l, K, self.w0p),
             self._grid(), memory=True)


class Operators(InProcess):
    """Operator application at many planes: FD, analytic, momentum, exact-wave.

    Every operation gets a fresh seeded plane z (or waist, probe cutoff or
    sample points), so every grid has new nodes and no cache is reused from
    an earlier round. Mode numbers are fixed per operation, so the work per
    round and the accuracy margins do not wander with the seed.
    """

    FD = (("N0", 2, 1, 0), ("N0", 3, -2, 1), ("Nz", 1, 3, 0), ("Nz", 3, 2, 1))

    def __init__(self, seed, run, small=False):
        self.seed = seed
        self.run, self.tracer = run, run.tracer
        self.small = small
        self.nr = (48, 64) if small else (768, 1152)

    def round(self, index):
        rng = np.random.default_rng([self.seed, index])
        op = self.run.operation
        for kind, n, l, size in self.FD:
            w0 = W0 * rng.uniform(0.8, 1.25)
            z = 0.0 if kind == "N0" else ZR * rng.uniform(0.1, 2.0)
            op(f"eigen_residual.fd.{kind}", self._fd_eigen, kind, lg.LGParams(n, l, K, w0), z,
               self.nr[size], size == 1)
        op("commutator_residual", self._commutator, lg.LGParams(2, 2, K, W0 * rng.uniform(0.8, 1.25)))
        op("eigen_residual.analytic", self._analytic, lg.LGParams(3, -2, K, W0),
           ZR * rng.uniform(0.1, 2.0))
        op("hermiticity_defect", self._hermiticity, rng.uniform(12.0, 16.0) / W0)
        op("synthesize_lg", self._synthesis, rng.uniform(-0.05, 0.05, size=4))
        op("maxwell_residual", self._maxwell, rng.uniform(0.03, 0.08), rng.uniform(size=4))

    def _fd_eigen(self, kind, p, z, nr, memory):
        call = self.tracer.call
        grid = call("lgmode.uniform_polar_grid", lg.uniform_polar_grid, p, z,
                    n_max=4, l_max=3, nr=nr, nphi=16)
        op = lg.Operator(kind, params=p, z=None if kind == "N0" else z)
        r = call("paraxops.eigen_residual.fd", lg.eigen_residual, p, op, grid, method="fd",
                 memory=memory)
        self.run.expect("eigen/fd", r, 1e-4)

    def _commutator(self, p):
        call = self.tracer.call
        grid = call("lgmode.uniform_polar_grid", lg.uniform_polar_grid, p, 0.0,
                    n_max=4, l_max=4, nr=self.nr[0], nphi=16)
        field = call("lgmode.sample", lg.sample, p, grid, memory=True)
        r = call("paraxops.commutator_residual", lg.commutator_residual,
                 lg.Operator("N0", params=p), lg.Operator("Lz"), field)
        self.run.expect("commutator/N0_Lz", r, 1e-6)

    def _analytic(self, p, z):
        call = self.tracer.call
        grid = call("lgmode.quadrature_polar_grid", lg.quadrature_polar_grid, p, z,
                    n_max=4, l_max=3)
        r = call("paraxops.eigen_residual.analytic", lg.eigen_residual, p,
                 lg.Operator("Nz", params=p, z=z), grid)
        self.run.expect("eigen/analytic", r, 1e-8)

    def _hermiticity(self, kt_max):
        hd = self.tracer.call("momentum.hermiticity_defect", lg.hermiticity_defect,
                              ref.paraxial_wavefunction(1, 2, W0), w=W0, sigma=1, kt_max=kt_max)
        self.run.expect("hermiticity/defect", abs(hd.defect) / hd.norm_sq, 1e-9)
        self.run.expect("hermiticity/norm", abs(hd.norm_sq - 1.0), 1e-9)

    def _synthesis(self, shift):
        call = self.tracer.call
        pp = lg.ExactMomentumParams(1, 1, -1, ref.OMEGA, W0)
        t_ray = W0**2 * ref.OMEGA / ref.C_LIGHT**2
        points = [lg.SpacetimePoint(r=r * W0, phi=phi, z=z * W0, t=t * t_ray)
                  for r, phi, z, t in zip(np.linspace(0.08, 2.6, 24) + shift[0],
                                          np.linspace(0.0, 6.0, 24) + 10 * shift[1],
                                          np.linspace(-2.0, 2.0, 24) + 10 * shift[2],
                                          np.linspace(-0.4, 0.4, 24) + shift[3])]
        synth = [call("exactwave.synthesize_lg", lg.synthesize_lg, pp, q, 96,
                      check_convergence=i == 0) for i, q in enumerate(points)]
        closed = [call("exactwave.chi_closed_form", lg.chi_closed_form, pp, q) for q in points]
        _, resid = call("exactwave.fit_global_scale", lg.fit_global_scale, closed, synth)
        own = ref.fit_residual(closed, synth)
        self.run.expect("synthesis/fit", own, 1e-6)
        self.run.expect("synthesis/fit_agrees", abs(resid - own), 1e-9)

    def _maxwell(self, fraction, u):
        bp = lg.BesselModeParams(m=1, sigma=1, k_t=fraction * K, k_z=math.sqrt(1 - fraction**2) * K)
        lam = 2 * math.pi / K
        pt = lg.SpacetimePoint(r=(0.2 + 0.4 * u[0]) * 1e-3, phi=2 * math.pi * u[1],
                               z=10 * lam * u[2], t=5.0 * u[3] / bp.omega_k)
        res = self.tracer.call("exactwave.maxwell_residual", lg.maxwell_residual,
                               lambda q: lg.rs_bessel_field(bp, q), pt, wavenumber=bp.k)
        self.run.expect("maxwell/curl", res.curl_defect, 1e-6)
        self.run.expect("maxwell/divergence", res.div_defect, 1e-6)
        self.run.require("maxwell/step_halving", res.warning is None)

    def probe(self):
        """Every layer call of this workload is direct; nothing is hidden."""


def cli_plan(seed, small=False):
    """The README commands with seeded mode numbers, as (tag, command, config)."""
    rng = np.random.default_rng(seed)
    pick = lambda: sorted(int(v) for v in rng.choice(5, 3, replace=False))  # noqa: E731
    plan = [
        ("render", "render", {"render": {"n_list": pick(), "l_list": pick()},
                              "grid": {"pixels": 32 if small else 256}}),
        ("phexp_z", "phexp", {"sweep": {"z_list_m": [-15, 0, 15] if small else
                                        [-15, -10, -5, 0, 5, 10, 15],
                                        "n_list": [0, 1, 2, 3, 4]}}),
        ("phexp_w0", "phexp", {"mode": {"n": int(rng.integers(0, 5))},
                               "sweep": {"w0_list_m": [0.0002, 0.0005, 0.001, 0.002]},
                               "grid": {"z_m": 1.0}}),
        ("overlap", "overlap", {"mode": {"l": int(rng.integers(0, 4))},
                                "sweep": {"dz_list_m": [0, 2.5, 5, 10, 20],
                                          "n_max": 2 if small else 12}}),
        ("verify", "verify", {}),
    ]
    return [plan[0], plan[2], plan[3]] if small else plan


def _argv(command, config, out_dir, tag):
    argv = [command, "--output.dir", str(out_dir), "--output.basename", tag]
    for section, values in config.items():
        for key, value in values.items():
            argv += [f"--{section}.{key}", json.dumps(value)]
    return argv


class CliReadme:
    """The README's lg-radial commands, each in a fresh interpreter.

    Users pay the import and cold caches on every command; each child
    times `import lgradial` and `lgradial.cli.main(argv)` separately. One
    child runs at a time.
    """

    def __init__(self, seed, run, small=False):
        self.seed, self.small = seed, small
        self.run, self.tracer = run, run.tracer
        self.out = OUT / f"cli-{seed}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.plan = cli_plan(seed, small)
        self.imports = []
        self.rss_kib = 0
        self.hashes = {}
        self.overlap_refs = {}
        for tag, _, config in self.plan:
            if tag == "overlap":
                l = config["mode"]["l"]
                self.overlap_refs = {(dz, i, j): ref.overlap(i, j, l, K, W0, 0.0, W0, float(dz))
                                     for dz in config["sweep"]["dz_list_m"]
                                     for i in range(3) for j in range(3)}

    def setup(self):
        """Import times come from the command children themselves."""
        return self.imports

    def peak_rss_mb(self):
        return self.rss_kib / 1024.0

    def round(self, index):
        for tag, command, config in self.plan:
            self.run.operation(f"cli.{tag}", self._command, tag, command, config)

    def _command(self, tag, command, config):
        report = run_child(_argv(command, config, self.out, tag))
        self.imports.append(report["import_s"])
        self.rss_kib = max(self.rss_kib, report["maxrss_kib"])
        self.tracer.add(f"cli.{command}", report["start"], report["end"])
        if not self.run.require(f"{tag}/exit 0", report["exit"] == 0):
            return
        files = sorted(self.out.glob(f"{tag}_*"))
        digest = hashlib.sha256(b"".join(f.name.encode() + f.read_bytes() for f in files)).hexdigest()
        self.run.same(f"cli.{tag}", digest == self.hashes.setdefault(tag, digest))
        getattr(self, f"_check_{command}")(tag, config)

    def _check_render(self, tag, config):
        pixels = config["grid"]["pixels"]
        for n in config["render"]["n_list"]:
            for l in config["render"]["l_list"]:
                img_i = ref.read_pgm(self.out / f"{tag}_n{n}_l{l}_intensity.pgm")
                img_p = ref.read_pgm(self.out / f"{tag}_n{n}_l{l}_phase.pgm")
                if not self.run.require("render/pgm", img_i is not None and img_p is not None):
                    return
                want_i, want_p, rel = ref.render_images(n, l, K, W0, 0.0, pixels, 6e-3)
                self.run.require("render/intensity", np.max(np.abs(img_i - want_i)) <= 1)
                d = np.abs(img_p.astype(float) - want_p)[rel > 1e-2]
                self.run.require("render/phase", np.max(np.minimum(d, 255 - d)) <= 1)

    def _check_phexp(self, tag, config):
        l = config.get("mode", {}).get("l", 0)
        with open(self.out / f"{tag}_phexp.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(self.out / f"{tag}_phexp_fit.json") as fh:
            fits = json.load(fh)["series"]
        worst = 0.0
        for x, value, n in rows:
            x, value, n = float(x), float(value), int(n)
            want = (ref.ph_expectation(n, l, K, W0, x) if "z_list_m" in config["sweep"]
                    else ref.ph_expectation(n, l, K, x, config["grid"]["z_m"]))
            worst = max(worst, abs(value - want) / max(1.0, abs(want)))
        self.run.require("phexp/rows", len(rows) > 0)
        self.run.expect("phexp/closed form", worst, 1e-9)
        for fit in fits:
            if "slope" in fit:
                scale = (2 * fit["n"] + abs(l) + 1) / ZR
                self.run.expect("phexp/slope", abs(fit["slope"] / scale - 1.0), 1e-9)
                self.run.expect("phexp/intercept", abs(fit["intercept"]), 1e-9)
            else:
                self.run.require("phexp/monotone", fit["monotone_decreasing"])
                self.run.expect("phexp/loglog slope", abs(fit["loglog_slope"] + 2.0), 1e-9)

    def _check_overlap(self, tag, config):
        with open(self.out / f"{tag}_overlap.csv", newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        with open(self.out / f"{tag}_overlap_completeness.csv", newline="") as fh:
            comp = [float(row[2]) for row in list(csv.reader(fh))[1:]]
        entries = np.array([complex(re, im) for _, _, _, re, im, _ in rows])
        self.run.require("overlap/finite", np.isfinite(entries).all() and np.isfinite(comp).all())
        self.run.expect("overlap/|O| <= 1", np.max(np.abs(entries)) - 1.0, 1e-9)
        self.run.expect("overlap/completeness <= 1", max(comp) - 1.0, 1e-9)
        for dz, n, n_p, re, im, _ in rows:
            want = self.overlap_refs.get((dz, int(n), int(n_p)))
            if want is not None:
                self.run.expect("overlap/reference", abs(complex(re, im) - want), 1e-9)

    def _check_verify(self, tag, config):
        with open(self.out / f"{tag}_verify.json") as fh:
            self.run.require("verify/all_pass", json.load(fh)["all_pass"] is True)

    def probe(self):
        """Replay the commands' lower-layer calls in a fresh interpreter, cold like the CLI."""
        report = run_child(["--probe", json.dumps({"seed": self.seed, "small": self.small,
                                                   "memory": self.tracer.memory})])
        for span in report["spans"]:
            self.tracer.add(span["name"], span["start"], span["end"], span["failed"],
                            span.get("peak_kib"))


def cli_probe(seed, small=False, memory=False):
    """Spans of the lower-layer calls the README commands make, on their sizes.

    Runs in a child interpreter. Mirrors `render` (lg_field on the pixel
    grid), `phexp` (one quadrature grid per mode and plane), `overlap`
    (overlap_matrix per dz) and `verify` (its FD, analytic, commutator,
    hermiticity, synthesis and Maxwell calls).
    """
    tracer = Tracer()
    tracer.enabled = True
    tracer.memory = memory
    call = tracer.call
    for tag, command, config in cli_plan(seed, small):
        mode = {"n": 0, "l": 0, **config.get("mode", {})}
        if command == "render":
            pixels = config["grid"]["pixels"]
            axis = (np.arange(pixels) + 0.5) / pixels * 6e-3 - 3e-3
            x, y = np.meshgrid(axis, -axis, indexing="xy")
            for n in config["render"]["n_list"]:
                for l in config["render"]["l_list"]:
                    call("lgmode.lg_field", lg.lg_field, lg.LGParams(n, l, K, W0),
                         np.hypot(x, y), np.arctan2(y, x), 0.0)
        elif command == "phexp":
            sweep = config["sweep"]
            for n in sweep.get("n_list", [mode["n"]]):
                for z in sweep.get("z_list_m", [config.get("grid", {}).get("z_m")]):
                    for w0 in sweep.get("w0_list_m", [W0]):
                        call("lgmode.quadrature_polar_grid", lg.quadrature_polar_grid,
                             lg.LGParams(n, mode["l"], K, w0), z, order=256)
        elif command == "overlap":
            n_max = config["sweep"]["n_max"]
            for dz in config["sweep"]["dz_list_m"]:
                call(f"analysis.overlap_matrix.n{n_max}", lg.overlap_matrix, mode["l"],
                     range(n_max + 1), 0.0, float(dz), W0, W0, K)
        else:
            _verify_calls(call)
    return tracer.spans


def _verify_calls(call):
    """The library calls of `lg-radial verify` at its default config."""
    analytic = [(lg.LGParams(n, l, K, W0), 0.0, "N0", "symmetrized", 4, 3, 192)
                for n, l in ((0, 0), (2, 1), (3, 2))]
    analytic.append((lg.LGParams(2, 1, K, W0), ZR, "Nz", "symmetrized", 4, 3, 192))
    analytic += [(lg.LGParams(n, l, K, W0), 0.0, "N0", policy, 3, 2, 160)
                 for l in (-1, -2) for n in (0, 1) for policy in ("verbatim", "symmetrized")]
    for p, z, kind, policy, n_max, l_max, order in analytic:
        g = call("lgmode.quadrature_polar_grid", lg.quadrature_polar_grid, p, z,
                 n_max=n_max, l_max=l_max, order=order)
        op = lg.Operator(kind, params=p, z=z if kind == "Nz" else None, sign_policy=policy)
        call("paraxops.eigen_residual.analytic", lg.eigen_residual, p, op, g)
    p = lg.LGParams(2, 1, K, W0)
    g = call("lgmode.uniform_polar_grid", lg.uniform_polar_grid, p, 0.0,
             n_max=4, l_max=3, nr=768, nphi=16)
    call("paraxops.eigen_residual.fd", lg.eigen_residual, p, lg.Operator("N0", params=p), g,
         method="fd", memory=True)
    p = lg.LGParams(2, 2, K, W0)
    g = call("lgmode.uniform_polar_grid", lg.uniform_polar_grid, p, 0.0,
             n_max=4, l_max=4, nr=768, nphi=16)
    f = call("lgmode.sample", lg.sample, p, g, memory=True)
    call("paraxops.commutator_residual", lg.commutator_residual, lg.Operator("N0", params=p),
         lg.Operator("Lz"), f)
    psi = ref.paraxial_wavefunction(1, 2, W0)
    for wave in (psi, lambda kt, kphi: psi(kt, kphi) * np.exp(1j * kt * W0)):
        call("momentum.hermiticity_defect", lg.hermiticity_defect, wave, w=W0, sigma=1,
             kt_max=14.0 / W0)
    t_ray = W0**2 * ref.OMEGA / ref.C_LIGHT**2
    points = [lg.SpacetimePoint(r=r * W0, phi=phi, z=z * W0, t=t * t_ray)
              for r, phi, z, t in zip(np.linspace(0.08, 2.6, 24), np.linspace(0.0, 6.0, 24),
                                      np.linspace(-2.0, 2.0, 24), np.linspace(-0.4, 0.4, 24))]
    for n, m, s in ((0, 0, 1), (1, 1, -1)):
        pp = lg.ExactMomentumParams(n, m, s, ref.OMEGA, W0)
        synth = [call("exactwave.synthesize_lg", lg.synthesize_lg, pp, q, 96,
                      check_convergence=i == 0) for i, q in enumerate(points)]
        closed = [call("exactwave.chi_closed_form", lg.chi_closed_form, pp, q) for q in points]
        call("exactwave.fit_global_scale", lg.fit_global_scale, closed, synth)
    bp = lg.BesselModeParams(m=1, sigma=1, k_t=0.05 * K, k_z=math.sqrt(1 - 0.05**2) * K)
    pt = lg.SpacetimePoint(r=0.4e-3, phi=0.7, z=5 * 2 * math.pi / K, t=3.0 / bp.omega_k)
    call("exactwave.maxwell_residual", lg.maxwell_residual,
         lambda q: lg.rs_bessel_field(bp, q), pt, wavenumber=bp.k)


WORKLOADS = {"crosstalk": Crosstalk, "operators": Operators, "cli_readme": CliReadme}

# call sites reported as per-layer metrics, and those that also report peak_kib
SPANS = (
    "analysis.overlap_matrix.n12", "analysis.overlap_matrix.n60",
    "analysis.overlap_matrix.n120", "analysis.overlap_matrix.n160", "analysis.decompose",
    "specfun.laguerre", "specfun.make_rule",
    "lgmode.lg_field", "lgmode.sample", "lgmode.quadrature_polar_grid",
    "lgmode.uniform_polar_grid",
    "paraxops.eigen_residual.fd", "paraxops.eigen_residual.analytic",
    "paraxops.commutator_residual", "momentum.hermiticity_defect",
    "exactwave.synthesize_lg", "exactwave.chi_closed_form", "exactwave.fit_global_scale",
    "exactwave.maxwell_residual",
    "cli.render", "cli.phexp", "cli.overlap", "cli.verify",
)
MEMORY_SPANS = ("analysis.overlap_matrix.n160", "analysis.decompose", "lgmode.sample",
                "paraxops.eigen_residual.fd")

