import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lgradial.cli import main

from lgradial.lgmode import LGParams, lg_field

from conftest import ZR


def run(tmp_path, *argv):
    return main(list(argv) + ["--output.dir", str(tmp_path)])


def read_pgm(path):
    data = path.read_bytes()
    assert data.startswith(b"P5\n")
    header, rest = data.split(b"\n255\n", 1)
    dims = header.split(b"\n")[1].split()
    w, h = int(dims[0]), int(dims[1])
    img = np.frombuffer(rest, dtype=np.uint8).reshape(h, w)
    return img


class TestConfigParsing:
    def test_unknown_command(self, tmp_path, capsys):
        assert main(["transmogrify"]) == 2

    def test_missing_command(self):
        assert main([]) == 2

    def test_malformed_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2

    def test_missing_flag_value(self):
        assert main(["render", "--mode.n"]) == 2

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": {"n": 1, "l": 0},
                                   "grid": {"pixels": 32},
                                   "output": {"dir": str(tmp_path)}}))
        assert main(["render", "--config", str(cfg), "--mode.l", "2"]) == 0
        assert (tmp_path / "lg_n1_l2_intensity.pgm").exists()

    def test_object_flag_merges_into_its_section(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert main(["render", "--grid.pixels", "24", "--mode", '{"n": 1}',
                     "--output.dir", str(a)]) == 0
        assert main(["render", "--grid.pixels", "24", "--mode.n", "1",
                     "--output.dir", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == ["lg_n1_l0_intensity.pgm", "lg_n1_l0_phase.pgm"]
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unwritable_output_is_io_error(self, capsys):
        assert main(["render", "--grid.pixels", "16",
                     "--output.dir", "/dev/null/nope"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ")
        assert "/dev/null/nope/lg_n0_l0_intensity.pgm" in err[0]

    def test_stdin_read_failure_is_io_error(self, tmp_path, capsys, monkeypatch):
        class BrokenStdin:
            def read(self):
                raise OSError(5, "Input/output error", "<stdin>")
        monkeypatch.setattr(sys, "stdin", BrokenStdin())
        assert run(tmp_path, "render", "--config", "-") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ")

    @pytest.mark.parametrize("content", [None, b'\xff{"mode": {}}'])  # missing, not UTF-8
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_bytes(content)
        assert run(tmp_path, "render", "--config", str(path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and str(path) in err[0]

    @pytest.mark.parametrize("argv", [
        ["render", "--grid.pixel", "64"],             # unknown key
        ["verify", "--nonsense.key", "1"],            # unknown section
        ["render", "--grid.pixels", "-4"],            # out-of-range size
        ["phexp", "--sweep.z_list_m", '"abc"'],       # wrong type
        ["render", "--grid.pixels", "8", "--format", "xml",
         "--grid.radial_nodes", "3"],                 # keys no command reads
        ["render", "--policy", "bogus"],              # not a sign policy
        ["verify", "--mode.omega_rad_per_s", "1e15"],  # a key no command reads
        ["render", "--mode", '{"n": 1, "p": 2}'],     # unknown key in an object flag
        ["render", "--mode", "5", "--mode.n", "1"],   # a section replaced by a scalar
        ["phexp", "--sweep.z_list_m", "[0.0]",
         "--sweep.w0_list_m", "[0.001]"],             # two sweeps at once
        ["render", "--render.n_list", "[]"],          # an explicit empty list...
        ["render", "--render.l_list", "[]"],
        ["phexp", "--sweep.z_list_m", "[]", "--sweep.w0_list_m", "[0.001]"],
        ["phexp", "--sweep.z_list_m", "[0]", "--sweep.n_list", "[]"],
        ["overlap", "--sweep.dz_list_m", "[]"],       # ...is never read as "use the default"
    ])
    def test_bad_config_exits_2_in_one_line(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not list(tmp_path.iterdir())

    def test_unexpected_error_exits_4_without_traceback(self, tmp_path, capsys, monkeypatch):
        import lgradial.cli as cli

        def boom(cfg):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_render", boom)
        assert run(tmp_path, "render") == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_accuracy_error_exits_5_in_one_line(self, tmp_path, capsys, monkeypatch):
        import lgradial.cli as cli
        from lgradial.errors import QuadratureConvergenceError

        def miss(cfg):
            raise QuadratureConvergenceError("expectation not converged")
        monkeypatch.setattr(cli, "cmd_phexp", miss)
        assert run(tmp_path, "phexp", "--sweep.z_list_m", "[0.0]") == 5
        assert capsys.readouterr().err == "accuracy error: expectation not converged\n"

    def test_imaginary_residue_exits_5_in_one_line(self, tmp_path, capsys, monkeypatch):
        import lgradial.analysis as analysis

        monkeypatch.setattr(analysis, "raw_expectation", lambda *a, **k: 1 + 1e-3j)
        assert run(tmp_path, "phexp", "--sweep.z_list_m", "[0,1]") == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("accuracy error: expectation: ")
        assert not list(tmp_path.iterdir())


class TestRender:
    def test_fundamental_mode_images(self, tmp_path):
        assert run(tmp_path, "render", "--grid.pixels", "64") == 0
        inten = read_pgm(tmp_path / "lg_n0_l0_intensity.pgm")
        phase = read_pgm(tmp_path / "lg_n0_l0_phase.pgm")
        assert inten.shape == (64, 64)
        # bright center
        c = inten.shape[0] // 2
        assert inten[c, c] == 255
        assert inten[0, 0] < 5
        # constant phase map (real positive mode)
        assert int(phase.max()) - int(phase.min()) <= 1

    def test_ring_and_winding_structure(self, tmp_path):
        assert run(tmp_path, "render", "--mode.n", "2", "--mode.l", "1",
                   "--grid.pixels", "257") == 0
        inten = read_pgm(tmp_path / "lg_n2_l1_intensity.pgm").astype(int)
        phase = read_pgm(tmp_path / "lg_n2_l1_phase.pgm").astype(int)
        c = inten.shape[0] // 2
        row = inten[c, c:]
        maxima = [i for i in range(1, len(row) - 1)
                  if row[i] > row[i - 1] and row[i] >= row[i + 1] and row[i] > 2]
        assert len(maxima) == 3  # n + 1 rings
        # one azimuthal winding: phase advances by 2 pi around a ring
        npts = 720
        ang = np.linspace(0, 2 * math.pi, npts, endpoint=False)
        radius = (maxima[0] + maxima[1]) // 2
        rows = np.clip(np.rint(c - radius * np.sin(ang)).astype(int), 0, 256)
        cols = np.clip(np.rint(c + radius * np.cos(ang)).astype(int), 0, 256)
        ph = phase[rows, cols] / 255.0 * 2 * math.pi - math.pi
        jumps = np.diff(np.unwrap(ph))
        total = float(np.sum(jumps)) + (ph[0] - ph[-1] + 2 * math.pi) % (2 * math.pi)
        assert total == pytest.approx(2 * math.pi, abs=0.3)
        # two radial phase discontinuities (pi flips at the ring nodes)
        radial_phase = np.unwrap(phase[c, c + 1:c + 120] / 255.0 * 2 * math.pi)
        flips = np.abs(np.diff(radial_phase))
        assert int(np.sum(flips > 2.0)) == 2

    def test_batch_matches_per_mode_lg_field(self, tmp_path, monkeypatch):
        # a 10 cm window takes u to ~1e4, so the radial table of l rescales mid-table: rows
        # 0, 5, 40 and 73 are scaled there, row 80 at the end, as each short table is
        import lgradial.lgmode as lgmode

        scalings = []
        scale_rows = lgmode._scale_rows
        monkeypatch.setattr(lgmode, "_scale_rows",
                            lambda rows, s: scalings.append(len(rows)) or scale_rows(rows, s))
        n_list, l_list, pixels, half, z = [5, 0, 80, 40, 73], [2, -3], 32, 0.05, 0.6 * ZR
        assert run(tmp_path, "render", "--grid.pixels", str(pixels), "--grid.z_m", str(z),
                   "--grid.window_diameter_m", str(2 * half),
                   "--render.n_list", json.dumps(n_list), "--render.l_list", json.dumps(l_list)) == 0
        assert len(scalings) > len(l_list)  # a rescale before the end of a table
        axis = (np.arange(pixels) + 0.5) / pixels * 2 * half - half
        x, y = np.meshgrid(axis, -axis, indexing="xy")
        for n in n_list:
            for l in l_list:
                params = LGParams(n, l, 2.0 * math.pi / (633.0 * 1e-9), 1e-3)  # the cli defaults
                field = lg_field(params, np.hypot(x, y), np.arctan2(y, x), z)
                intensity = np.abs(field) ** 2
                want_i = np.rint(255.0 * intensity / intensity.max()).astype(np.uint8)
                want_p = np.rint((np.angle(field) + math.pi) / (2 * math.pi) * 255.0)
                want_p = np.clip(want_p, 0, 255).astype(np.uint8)
                assert np.array_equal(read_pgm(tmp_path / f"lg_n{n}_l{l}_intensity.pgm"), want_i)
                assert np.array_equal(read_pgm(tmp_path / f"lg_n{n}_l{l}_phase.pgm"), want_p)

    def test_batch_matches_panel_layout(self, tmp_path):
        assert run(tmp_path, "render", "--grid.pixels", "32",
                   "--render.n_list", "[0,1,2]", "--render.l_list", "[0,1,2]") == 0
        files = sorted(p.name for p in tmp_path.glob("*.pgm"))
        assert len(files) == 18  # nine modes, intensity + phase each


class TestPhexp:
    def test_z_sweep_csv_and_sidecar(self, tmp_path):
        z = [-2 * ZR, -ZR, 0.0, ZR, 2 * ZR]
        assert run(tmp_path, "phexp", "--sweep.z_list_m", json.dumps(z),
                   "--sweep.n_list", "[0,1]") == 0
        lines = (tmp_path / "lg_phexp.csv").read_text().splitlines()
        assert lines[0] == "z_m,ph_expectation,n"
        assert len(lines) == 1 + 2 * len(z)
        # 17 significant digits in scientific notation
        assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", lines[1].split(",")[0])
        sidecar = json.loads((tmp_path / "lg_phexp_fit.json").read_text())
        assert [s["n"] for s in sidecar["series"]] == [0, 1]
        for s in sidecar["series"]:
            assert s["r_squared"] > 0.999999
            assert abs(s["intercept"]) < 1e-8

    def test_w0_sweep(self, tmp_path):
        w0s = list(np.geomspace(0.4e-3, 1.6e-3, 4))
        assert run(tmp_path, "phexp", "--sweep.w0_list_m", json.dumps(w0s),
                   "--grid.z_m", "1.0") == 0
        sidecar = json.loads((tmp_path / "lg_phexp_fit.json").read_text())
        assert sidecar["series"][0]["monotone_decreasing"] is True

    def test_sweep_required(self, tmp_path):
        assert run(tmp_path, "phexp") == 2

    def test_high_radial_index_gives_closed_form(self, tmp_path):
        # n >= ~100 needs more than a fixed quadrature order: each point is a
        # convergence-checked expectation, (2n+1) z/zR at l = 0
        assert run(tmp_path, "phexp", "--mode.n", "120", "--sweep.z_list_m", "[0,1,2]") == 0
        rows = (tmp_path / "lg_phexp.csv").read_text().splitlines()[1:]
        for row in rows:
            z, value, n = row.split(",")
            want = (2 * 120 + 1) * float(z) / ZR
            assert abs(float(value) - want) <= 1e-9 * max(1.0, want)

    def test_csv_rows_newline_terminated(self, tmp_path):
        assert run(tmp_path, "phexp", "--sweep.z_list_m", "[0.0,1.0]") == 0
        text = (tmp_path / "lg_phexp.csv").read_text()
        assert text.endswith("\n")
        assert "." in text.split("\n")[1]


class TestOverlapCommand:
    def test_matrix_and_completeness(self, tmp_path):
        assert run(tmp_path, "overlap", "--sweep.dz_list_m", "[0.0,5.0]",
                   "--sweep.n_max", "3") == 0
        lines = (tmp_path / "lg_overlap.csv").read_text().splitlines()
        assert lines[0] == "dz_m,n,n_prime,re,im,abs2"
        assert len(lines) == 1 + 2 * 16
        # dz = 0 block is the identity
        for row in lines[1:17]:
            parts = row.split(",")
            n, n_p = int(parts[1]), int(parts[2])
            want = 1.0 if n == n_p else 0.0
            assert abs(float(parts[5]) - want) < 1e-8
        clines = (tmp_path / "lg_overlap_completeness.csv").read_text().splitlines()
        assert clines[0] == "dz_m,n_prime,completeness,min_modes"
        first = clines[1].split(",")
        assert int(first[3]) == 1  # dz = 0: one mode is complete

    def test_n_max_200_is_finite(self, tmp_path):
        assert run(tmp_path, "overlap", "--sweep.dz_list_m", "[0.0,10.0]",
                   "--sweep.n_max", "200") == 0
        lines = (tmp_path / "lg_overlap.csv").read_text().splitlines()
        values = np.array([[float(v) for v in row.split(",")[3:]] for row in lines[1:]])
        assert len(lines) == 1 + 2 * 201**2
        assert np.all(np.isfinite(values))

    def test_dz_required(self, tmp_path):
        assert run(tmp_path, "overlap") == 2


class TestVerifyCommand:
    def test_report_passes_and_flags_negative_index(self, tmp_path):
        assert run(tmp_path, "verify") == 0
        report = json.loads((tmp_path / "lg_verify.json").read_text())
        assert report["all_pass"] is True
        neg = report["negative_index"]
        assert "n + |l|" in neg["note"]
        for case in neg["cases"]:
            assert case["verbatim_eigenvalue"] == case["n"] + abs(case["l"])
            assert case["verbatim_residual"] < 1e-8
            assert case["symmetrized_eigenvalue"] == case["n"]
            assert case["symmetrized_residual"] < 1e-8

    @pytest.mark.parametrize("policy", ["symmetrized", "verbatim"])
    def test_analytic_residuals_are_exact(self, tmp_path, policy):
        # each mode's own default Gauss grid integrates its residual exactly
        assert run(tmp_path, "verify", "--policy", policy) == 0
        report = json.loads((tmp_path / "lg_verify.json").read_text())
        analytic = [c for c in report["checks"] if "/analytic/" in c["name"]]
        assert len(analytic) == 4
        assert all(c["measured"] <= 1e-13 for c in analytic), analytic
        for case in report["negative_index"]["cases"]:
            assert case["verbatim_residual"] <= 1e-13, case
            assert case["symmetrized_residual"] <= 1e-13, case

    def test_overlap_unitarity_is_checked(self, tmp_path):
        assert run(tmp_path, "verify") == 0
        checks = {c["name"]: c for c in json.loads((tmp_path / "lg_verify.json").read_text())["checks"]}
        assert checks["overlap/unitarity"]["pass"] and checks["overlap/unitarity"]["measured"] <= 1e-12

    def test_paper_result_is_checked(self, tmp_path):
        # <PH> = (2n + |l| + 1) z/zR for four modes, one with l < 0, at three planes each
        assert run(tmp_path, "verify") == 0
        checks = json.loads((tmp_path / "lg_verify.json").read_text())["checks"]
        ph = {c["name"]: c for c in checks if c["name"].startswith("ph/closed_form/")}
        assert sorted(ph) == sorted(f"ph/closed_form/n{n}l{l}/z{t}zR"
                                    for n, l in ((0, 0), (2, 1), (3, -2), (50, 7))
                                    for t in ("0.3", "2", "-1.5"))
        assert all(c["pass"] and c["tolerance"] == 1e-12 and c["measured"] <= 1e-13
                   for c in ph.values()), ph

    def test_verbatim_policy_selectable(self, tmp_path):
        assert run(tmp_path, "verify", "--policy", "verbatim") == 0
        report = json.loads((tmp_path / "lg_verify.json").read_text())
        assert report["policy"] == "verbatim"


class TestDeterminism:
    @staticmethod
    def _digest(directory):
        import hashlib
        out = {}
        for p in sorted(directory.iterdir()):
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        return out

    def test_byte_identical_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        z = json.dumps([0.0, ZR])
        for target in (a, b):
            assert main(["render", "--grid.pixels", "48", "--mode.n", "1",
                         "--output.dir", str(target)]) == 0
            assert main(["phexp", "--sweep.z_list_m", z,
                         "--output.dir", str(target)]) == 0
            assert main(["overlap", "--sweep.dz_list_m", "[2.0]",
                         "--sweep.n_max", "2", "--output.dir", str(target)]) == 0
        assert self._digest(a) == self._digest(b)

    def test_verify_report_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for target in (a, b):
            assert main(["verify", "--output.dir", str(target)]) == 0
        assert (a / "lg_verify.json").read_bytes() == (b / "lg_verify.json").read_bytes()


# the runtime needs only numpy: the package import, every command (verify too), every
# Bessel J entry point and the batched exact-wave paths must leave scipy unloaded
IMPORT_GUARD = """
import sys
import numpy as np
import lgradial, lgradial.cli
from lgradial import exactwave, specfun
for argv in (["render", "--grid.pixels", "16"],
             ["phexp", "--sweep.z_list_m", "[0.0,1.0]"],
             ["overlap", "--sweep.dz_list_m", "[0.0,1.0]", "--sweep.n_max", "3"],
             ["verify"]):
    assert lgradial.cli.main(argv + ["--output.dir", sys.argv[1]]) == 0, argv
specfun.bessel_j(0, 1.0)
specfun._bessel_j_and_derivative(-3, [0.5, 7.0, 40.0])
omega, w = 2.9e15, 1e-3
pp = exactwave.ExactMomentumParams(1, 1, -1, omega, w)
exactwave.synthesize_lg(pp, exactwave.SpacetimePoint(r=w, phi=0.3, z=0.0), 96)
exactwave.synthesize_lg(pp, exactwave.SpacetimePoint(r=np.array([w, 2 * w]), phi=0.3, z=0.0), 96)
bp = exactwave.BesselModeParams(m=1, sigma=1, k_t=5e5, k_z=1e7)
pt = exactwave.SpacetimePoint(r=4e-4, phi=0.7, z=0.0)
exactwave.rs_bessel_field(bp, pt)
exactwave.maxwell_residual(lambda q: exactwave.rs_bessel_field(bp, q), pt, wavenumber=bp.k)
exactwave.wave_residual(lambda q: exactwave.chi_closed_form(pp, q), pt,
                        wavenumber=omega / lgradial.C_LIGHT)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def _fresh(script, *args):
    """stdout of `script` run in a fresh interpreter, with this tree's src/ first on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_scipy_stays_off_the_import_path(tmp_path):
    _fresh(IMPORT_GUARD, tmp_path)
    written = {p.name for p in tmp_path.iterdir()}
    assert {"lg_phexp.csv", "lg_overlap.csv", "lg_verify.json"} <= written


# `import lgradial` loads the position-space core; each command loads only its own families
FAMILIES = ("paraxops", "analysis", "momentum", "exactwave")
LOADED = """
import json, sys
import lgradial
core = sorted(m for m in sys.modules if m.startswith("lgradial"))
if len(sys.argv) > 2:
    import lgradial.cli
    assert lgradial.cli.main(sys.argv[2:] + ["--output.dir", sys.argv[1]]) == 0
print(json.dumps({"numpy": "numpy" in sys.modules, "core": core,
                  "families": [f for f in %r if "lgradial." + f in sys.modules]}))
""" % (FAMILIES,)


def test_import_loads_only_the_core(tmp_path):
    report = json.loads(_fresh(LOADED, tmp_path))
    assert report["numpy"]
    assert report["core"] == sorted(f"lgradial{m}" for m in
                                    ("", ".constants", ".errors", ".lgmode", ".specfun"))
    assert report["families"] == []


@pytest.mark.parametrize("argv, families", [
    (["render", "--grid.pixels", "16"], []),
    (["phexp", "--sweep.z_list_m", "[0.0,1.0]"], ["paraxops", "analysis"]),
    (["phexp", "--sweep.w0_list_m", "[0.0005,0.001]", "--grid.z_m", "1.0"],
     ["paraxops", "analysis"]),
    (["overlap", "--sweep.dz_list_m", "[0.0,1.0]", "--sweep.n_max", "3"],
     ["paraxops", "analysis"]),
    (["verify"], list(FAMILIES)),
], ids=["render", "phexp_z", "phexp_w0", "overlap", "verify"])
def test_each_command_loads_only_its_families(tmp_path, argv, families):
    report = json.loads(_fresh(LOADED, tmp_path, *argv).splitlines()[-1])
    assert report["families"] == families


# every name the package exported when it imported all its families eagerly
EXPORTS = {
    "constants": ("C_LIGHT", "DEFAULT_WAIST", "DEFAULT_WAVELENGTH", "DEFAULT_WAVENUMBER"),
    "errors": ("DiagnosticError", "GridError", "QuadratureConvergenceError"),
    "lgmode": ("BeamGeometry", "FieldGrid", "LGParams", "PolarGrid", "beam_geometry",
               "lg_field", "lg_partials", "norm", "quadrature_polar_grid", "sample",
               "uniform_polar_grid"),
    "paraxops": ("Operator", "apply_to_field", "apply_to_mode", "commutator_residual",
                 "dilation_check", "eigen_residual"),
    "analysis": ("Decomposition", "ExpectationSeries", "OverlapMatrix", "decompose",
                 "expectation", "overlap", "overlap_matrix", "ph_vs_w0", "ph_vs_z"),
    "momentum": ("ExactMomentumParams", "apply_nk", "apply_nk_paraxial", "hermiticity_defect",
                 "nk_polar", "plusminus_to_polar", "polar_to_plusminus", "psi_exact",
                 "psi_paraxial"),
    "exactwave": ("BesselModeParams", "RSField", "SpacetimePoint", "chi_bessel",
                  "chi_closed_form", "fit_global_scale", "maxwell_residual",
                  "rs_bessel_field", "synthesize_lg", "wave_residual"),
}
RESOLVE = """
import importlib, json, sys
import lgradial
exports = json.loads(sys.argv[1])
for module, names in exports.items():
    for name in names:
        value = getattr(lgradial, name)
        assert value is getattr(importlib.import_module("lgradial." + module), name), name
        assert vars(lgradial)[name] is value, name  # bound: the next lookup is a plain read
    assert getattr(lgradial, module) is sys.modules["lgradial." + module], module
public = sorted([*exports, "specfun", *(n for names in exports.values() for n in names)])
assert lgradial.__all__ == public, sorted(set(lgradial.__all__) ^ set(public))
assert set(public) <= set(dir(lgradial))
try:
    lgradial.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("an unknown name resolved")
"""


def test_every_export_resolves_to_its_module():
    _fresh(RESOLVE, json.dumps(EXPORTS))


def test_exactwave_after_a_bare_import():
    _fresh("""
import math, lgradial
pp = lgradial.exactwave.ExactMomentumParams(1, 1, -1, 2.9e15, 1e-3)
value = lgradial.exactwave.synthesize_lg(pp, lgradial.exactwave.SpacetimePoint(1e-3, 0.3, 0.0), 96)
assert math.isfinite(abs(value)) and value != 0
""")
