"""Acceptance suite: one test per release criterion, at pinned tolerances.

Every test prints a single verdict line (run with `pytest -s` to see them
inline); the assertions carry the same tolerances, so plain `pytest` is an
equivalent gate.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from lgradial.analysis import (decompose, overlap, overlap_matrix, ph_vs_w0,
                               ph_vs_z)
from lgradial.cli import main as cli_main
from lgradial.constants import C_LIGHT
from lgradial.exactwave import (BesselModeParams, SpacetimePoint,
                                chi_closed_form, fit_global_scale,
                                maxwell_residual, rs_bessel_field,
                                synthesize_lg)
from lgradial.lgmode import (FieldGrid, LGParams, PolarGrid, inner, norm,
                             quadrature_polar_grid, sample,
                             uniform_polar_grid)
from lgradial.momentum import (ExactMomentumParams, apply_nk,
                               apply_nk_paraxial, hermiticity_defect,
                               paraxial_norm_sq, psi_exact, psi_paraxial)
from lgradial.paraxops import (Operator, apply_to_mode, commutator_residual,
                               eigen_residual)

from conftest import K, OMEGA, W0, ZR


def _verdict(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_criterion_01_eigenrelation_suite(self):
        worst_analytic = 0.0
        worst_fd = 0.0
        z_values = [0.0, 0.5 * ZR, ZR, 2.0 * ZR]
        for z in z_values:
            g_an = quadrature_polar_grid(LGParams(5, 4, K, W0), z,
                                         n_max=5, l_max=4, nphi=8, order=288)
            g_fd = uniform_polar_grid(LGParams(5, 4, K, W0), z,
                                      n_max=5, l_max=4, nr=1152, nphi=16)
            for n in range(6):
                for l in range(5):
                    p = LGParams(n, l, K, W0)
                    op = (Operator("N0", params=p) if z == 0.0
                          else Operator("Nz", params=p, z=z))
                    worst_analytic = max(worst_analytic,
                                         eigen_residual(p, op, g_an, "analytic"))
                    worst_fd = max(worst_fd, eigen_residual(p, op, g_fd, "fd"))
        ok = worst_analytic < 1e-8 and worst_fd < 1e-4
        _verdict(1, ok, f"n<=5, l<=4, z in 0/0.5/1/2 zR: analytic residual "
                        f"max {worst_analytic:.2e} (<1e-8), fd max {worst_fd:.2e} (<1e-4)")

    def test_criterion_02_negative_index_ledger(self, tmp_path):
        worst_verbatim = 0.0
        worst_symmetrized = 0.0
        for l in (-1, -2):
            for n in (0, 1, 2):
                p = LGParams(n, l, K, W0)
                g = quadrature_polar_grid(p, 0.0, n_max=3, l_max=2, nphi=8, order=192)
                out = sample(p, g)
                verb = apply_to_mode(Operator("N0", params=p, sign_policy="verbatim"), p, g)
                resid = norm(FieldGrid(g, verb.values - (n + abs(l)) * out.values))
                worst_verbatim = max(worst_verbatim, resid / norm(out))
                worst_symmetrized = max(
                    worst_symmetrized,
                    eigen_residual(p, Operator("N0", params=p, sign_policy="symmetrized"), g))
        assert cli_main(["verify", "--output.dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "lg_verify.json").read_text())
        neg = report["negative_index"]
        recorded = all(c["verbatim_residual"] < 1e-8 and c["symmetrized_residual"] < 1e-8
                       and c["verbatim_eigenvalue"] == c["n"] + abs(c["l"])
                       for c in neg["cases"]) and "note" in neg
        ok = worst_verbatim < 1e-8 and worst_symmetrized < 1e-8 and recorded
        _verdict(2, ok, f"verbatim yields n+|l| (max resid {worst_verbatim:.2e}), "
                        f"symmetrized yields n (max resid {worst_symmetrized:.2e}); "
                        f"both recorded in the verify report")

    def test_criterion_03_momentum_eigenrelations(self, rng):
        worst = 0.0
        for n in range(6):
            for m in range(5):
                for sigma in (1, -1):
                    p = ExactMomentumParams(n, m, sigma, OMEGA, W0)
                    km = rng.uniform(0.05, 18.0, 40) / p.beta
                    kphi = rng.uniform(0.0, 2 * math.pi, 40)
                    psi = psi_exact(p, km, kphi)
                    out = apply_nk(p, km, kphi)
                    worst = max(worst, float(np.max(np.abs(out - n * psi) / np.abs(psi))))
                    kt = rng.uniform(0.05, 6.0, 40) / W0
                    psi_p = psi_paraxial(p, kt, kphi)
                    out_p = apply_nk_paraxial(p, kt, kphi)
                    worst = max(worst, float(np.max(np.abs(out_p - n * psi_p) / np.abs(psi_p))))
        ok = worst < 1e-10
        _verdict(3, ok, f"N_k and N'_k pointwise residual max {worst:.2e} "
                        f"(<1e-10) over n<=5, m<=4, sigma=+-1")

    def test_criterion_04_commutators(self):
        p22 = LGParams(2, 2, K, W0)
        f22 = sample(p22, uniform_polar_grid(p22, 0.0, n_max=4, l_max=4, nr=768, nphi=16))
        r1 = commutator_residual(Operator("N0", params=p22), Operator("Lz"), f22)
        h = 8.0 / 1536
        rr = (np.arange(1536) + 0.5) * h
        g = PolarGrid(rr, np.arange(16) * (2 * math.pi / 16), r_weights=np.full(1536, h))
        phi_row = np.arange(16) * (2 * math.pi / 16)
        r2 = 0.0
        # smooth on the plane: radial parts even in r for l = 0, r^|l|-type
        # behavior when an azimuthal phase is attached
        for values in (np.exp(-rr**2)[:, None] * np.ones((1, 16)),
                       ((1 + 0.3 * rr**2) * np.exp(-0.8 * rr**2))[:, None] * np.ones((1, 16)),
                       (rr * np.exp(-rr**2))[:, None] * np.exp(1j * phi_row)[None, :]):
            f = FieldGrid(g, values)
            r2 = max(r2, commutator_residual(Operator("laplacian_t"), Operator("PH"), f))
        ok = r1 < 1e-6 and r2 < 1e-5
        _verdict(4, ok, f"[N0, Lz] residual {r1:.2e} (<1e-6); "
                        f"[lap_t, PH] + 2i lap_t residual max {r2:.2e} (<1e-5)")

    def test_criterion_05_linear_hyperbolic_momentum(self):
        z_list = np.linspace(-3 * ZR, 3 * ZR, 13)
        slopes = []
        ok = True
        msg = []
        worst_r2 = 1.0
        worst_icpt = 0.0
        worst_quad_r2 = 1.0
        for n in range(5):
            s = ph_vs_z(LGParams(n, 0, K, W0), z_list)
            slopes.append(s.diagnostics["slope"])
            worst_r2 = min(worst_r2, s.diagnostics["r_squared"])
            worst_icpt = max(worst_icpt, abs(s.diagnostics["intercept"]))
            term = -(z_list / (K * W0**2)) * s.values
            coef, *_ = np.linalg.lstsq(z_list[:, None] ** 2, term, rcond=None)
            fit = coef[0] * z_list**2
            ss_tot = float(np.sum((term - term.mean()) ** 2))
            quad_r2 = 1.0 - float(np.sum((term - fit) ** 2)) / ss_tot
            worst_quad_r2 = min(worst_quad_r2, quad_r2)
        distinct = len({round(s, 9) for s in slopes}) == 5
        ok = (worst_r2 > 0.999999 and worst_icpt < 1e-8 and distinct
              and worst_quad_r2 > 0.9999)
        _verdict(5, ok, f"<PH>(z) linear: R^2 min {worst_r2:.8f} (> 0.999999), "
                        f"|intercept| max {worst_icpt:.2e} (<1e-8), five distinct "
                        f"slopes: {distinct}; curvature term quadratic fit R^2 min "
                        f"{worst_quad_r2:.6f} (> 0.9999)")

    def test_criterion_06_waist_decay(self):
        w0_list = np.geomspace(0.2e-3, 2.05e-3, 10)  # spans a bit over 10x
        s = ph_vs_w0(LGParams(1, 0, K, W0), w0_list, z=1.0)
        decreasing = bool(np.all(np.diff(s.values) < 0))
        tail = s.values[-1] < 0.01 * s.values[0]
        finite = bool(np.all(np.isfinite(s.values)))
        ok = decreasing and tail and finite
        _verdict(6, ok, f"<PH>(w0) strictly decreasing over 10x span: {decreasing}; "
                        f"final/initial = {s.values[-1] / s.values[0]:.4%} (< 1%); "
                        f"all finite: {finite}")

    def test_criterion_07_overlap_matrix(self):
        M0 = overlap_matrix(0, range(8), 0.0, 0.0, W0, W0, K)
        identity_err = float(np.max(np.abs(M0.entries - np.eye(8))))
        counts = []
        monotone_cols = True
        for dz in (0.5 * ZR, ZR, 2 * ZR, 4 * ZR):
            M = overlap_matrix(0, range(26), 0.0, dz, W0, W0, K)
            cum = M.cumulative_completeness()
            monotone_cols &= bool(np.all(np.diff(cum, axis=0) >= -1e-15))
            counts.append(M.min_modes(column=0, threshold=0.99))
        increasing = all(c is not None for c in counts) and \
            all(b > a for a, b in zip(counts, counts[1:]))
        dzs = np.linspace(0.0, 4.0, 33) * ZR
        oscillates = True
        for n_other in (4, 6):
            vals = np.array([abs(overlap(LGParams(5, 0, K, W0), 0.0,
                                         LGParams(n_other, 0, K, W0), dz)) ** 2
                             for dz in dzs])
            imax = int(np.argmax(vals))
            oscillates &= (0 < imax < len(vals) - 1) and (vals[-1] < vals[imax])
        # the mode count at a 15 m mismatch is reported (not asserted; it
        # depends on the wavelength/waist defaults)
        count_15m = overlap_matrix(0, range(26), 0.0, 15.0, W0, W0, K).min_modes(0, 0.99)
        ok = identity_err < 1e-8 and monotone_cols and increasing and oscillates
        _verdict(7, ok, f"identity at dz=0 (err {identity_err:.2e} < 1e-8); "
                        f"completeness monotone: {monotone_cols}; modes for 0.99 "
                        f"completeness over 0.5/1/2/4 zR: {counts} (strictly "
                        f"increasing: {increasing}); |<5|4 or 6>|^2 peaks then "
                        f"falls: {oscillates}; reported count at 15 m, 633 nm, "
                        f"1 mm waist: {count_15m}")

    def test_criterion_08_hermiticity_restriction(self):
        worst_good = 0.0
        for (n, m) in ((0, 0), (1, 2), (3, 1)):
            p = ExactMomentumParams(n, m, 1, OMEGA, W0)
            nrm = math.sqrt(paraxial_norm_sq(p))
            psi = lambda kt, kphi: psi_paraxial(p, kt, kphi) / nrm
            hd = hermiticity_defect(psi, w=W0, sigma=1, kt_max=(14.0 + 2 * n) / W0)
            worst_good = max(worst_good, abs(hd.defect) / hd.norm_sq)
        pc = ExactMomentumParams(1, 2, 1, OMEGA, W0)
        nrm = math.sqrt(paraxial_norm_sq(pc))
        bad = lambda kt, kphi: psi_paraxial(pc, kt, kphi) / nrm * np.exp(1j * kt * W0)
        hb = hermiticity_defect(bad, w=W0, sigma=1, kt_max=16.0 / W0)
        counter = abs(hb.defect) / hb.norm_sq
        ok = worst_good < 1e-9 and counter > 1e-3
        _verdict(8, ok, f"defect on LG momentum wavefunctions max {worst_good:.2e} "
                        f"(<1e-9); complex-radial-factor counterexample defect "
                        f"{counter:.2e} (>1e-3)")

    def test_criterion_09_synthesis_bridge(self, rng):
        t_ray = W0**2 * OMEGA / C_LIGHT**2
        pts = [SpacetimePoint(r=float(rv) * W0, phi=float(pv), z=float(zv) * W0,
                              t=float(tv) * t_ray)
               for rv, pv, zv, tv in zip(rng.uniform(0.05, 2.8, 200),
                                         rng.uniform(0, 2 * math.pi, 200),
                                         rng.uniform(-3.0, 3.0, 200),
                                         rng.choice([0.0, 0.5, -0.5], 200))]
        worst = 0.0
        for n in range(4):
            for m in range(4):
                for sigma in (1, -1):
                    p = ExactMomentumParams(n, m, sigma, OMEGA, W0)
                    synth = np.array([synthesize_lg(p, q, 128, check_convergence=False)
                                      for q in pts])
                    closed = np.array([chi_closed_form(p, q) for q in pts])
                    _, resid = fit_global_scale(closed, synth)
                    worst = max(worst, resid)
        ok = worst < 1e-6
        _verdict(9, ok, f"momentum-space synthesis vs closed form, one global "
                        f"scale, n<=3, m<=3, sigma=+-1: relative L2 residual max "
                        f"{worst:.2e} (<1e-6)")

    def test_criterion_10_maxwell_residual(self):
        worst_curl = 0.0
        worst_div = 0.0
        clean = True
        for (m, sigma, tilt) in ((1, 1, 0.05), (2, -1, 0.2)):
            bp = BesselModeParams(m=m, sigma=sigma, k_t=tilt * K,
                                  k_z=math.sqrt(1 - tilt**2) * K)
            lam = 2 * math.pi / bp.k
            pt = SpacetimePoint(r=0.4e-3, phi=0.7, z=5 * lam, t=3.0 / bp.omega_k)
            res = maxwell_residual(lambda q: rs_bessel_field(bp, q), pt, wavenumber=bp.k)
            worst_curl = max(worst_curl, res.curl_defect)
            worst_div = max(worst_div, res.div_defect)
            clean &= res.warning is None
        ok = worst_curl < 1e-6 and worst_div < 1e-6 and clean
        _verdict(10, ok, f"RS Bessel modes: curl defect max {worst_curl:.2e}, "
                         f"divergence defect max {worst_div:.2e} (<1e-6), "
                         f"step-halving confirmed: {clean}")

    def test_criterion_11_orthonormality_and_parseval(self):
        worst = 0.0
        for l in (0, 2):
            g = quadrature_polar_grid(LGParams(6, l, K, W0), 0.0,
                                      n_max=6, l_max=l, nphi=16, order=288)
            fields = [sample(LGParams(n, l, K, W0), g) for n in range(7)]
            for i in range(7):
                for j in range(7):
                    want = 1.0 if i == j else 0.0
                    worst = max(worst, abs(inner(fields[i], fields[j]) - want))
        g = quadrature_polar_grid(LGParams(5, 1, K, W0), 0.0, n_max=5, l_max=1, order=288)
        coeffs = np.array([0.4, -0.3j, 0.0, 0.62, 0.1, -0.5j])
        coeffs = coeffs / np.linalg.norm(coeffs)
        vals = np.zeros(g.shape, dtype=complex)
        for c, n in zip(coeffs, range(6)):
            vals = vals + c * sample(LGParams(n, 1, K, W0), g).values
        f = FieldGrid(g, vals)
        d = decompose(f, 1, range(6), 0.0, W0, K)
        parseval_err = abs(float(np.sum(np.abs(d.coefficients) ** 2)) - norm(f) ** 2)
        ok = worst < 1e-8 and parseval_err < 1e-7
        _verdict(11, ok, f"overlap deviation from identity max {worst:.2e} (<1e-8); "
                         f"Parseval defect {parseval_err:.2e} (<1e-7)")

    def test_criterion_12_cli_determinism(self, tmp_path):
        def run_all(target):
            target.mkdir()
            assert cli_main(["render", "--grid.pixels", "64", "--mode.n", "2",
                             "--mode.l", "1", "--output.dir", str(target)]) == 0
            assert cli_main(["phexp", "--sweep.z_list_m",
                             json.dumps([-ZR, 0.0, ZR]),
                             "--output.dir", str(target)]) == 0
            assert cli_main(["overlap", "--sweep.dz_list_m", "[2.5]",
                             "--sweep.n_max", "3", "--output.dir", str(target)]) == 0
            assert cli_main(["verify", "--output.dir", str(target)]) == 0
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(target.iterdir())}

        first = run_all(tmp_path / "run1")
        second = run_all(tmp_path / "run2")
        ok = first == second and len(first) >= 7
        _verdict(12, ok, f"two identical CLI runs produced byte-identical "
                         f"CSV/PGM/JSON outputs ({len(first)} files)")
