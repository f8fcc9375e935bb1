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

    def test_unwritable_output_is_io_error(self):
        assert main(["render", "--grid.pixels", "16",
                     "--output.dir", "/dev/null/nope"]) == 3

    @pytest.mark.parametrize("argv", [
        ["render", "--grid.pixel", "64"],             # unknown key
        ["verify", "--nonsense.key", "1"],            # unknown section
        ["render", "--grid.pixels", "-4"],            # out-of-range size
        ["phexp", "--sweep.z_list_m", '"abc"'],       # wrong type
        ["render", "--grid.pixels", "8", "--format", "xml",
         "--grid.radial_nodes", "3"],                 # keys no command reads
        ["render", "--policy", "bogus"],              # not a sign policy
        ["verify", "--mode.omega_rad_per_s", "1e15"],  # a key no command reads
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

    def test_overlap_unitarity_is_checked(self, tmp_path):
        assert run(tmp_path, "verify") == 0
        checks = {c["name"]: c for c in json.loads((tmp_path / "lg_verify.json").read_text())["checks"]}
        assert checks["overlap/unitarity"]["pass"] and checks["overlap/unitarity"]["measured"] <= 1e-12

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


# scipy is only needed by exactwave (Bessel J, Gauss-Laguerre nodes); the
# package import and the render/phexp/overlap commands must not load it
IMPORT_GUARD = """
import sys
import lgradial, lgradial.cli
from lgradial import specfun
for argv in (["render", "--grid.pixels", "16"],
             ["phexp", "--sweep.z_list_m", "[0.0,1.0]"],
             ["overlap", "--sweep.dz_list_m", "[0.0,1.0]", "--sweep.n_max", "3"]):
    assert lgradial.cli.main(argv + ["--output.dir", sys.argv[1]]) == 0, argv
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
specfun.bessel_j(0, 1.0)
assert "scipy" in sys.modules
"""


def test_scipy_stays_off_the_import_path(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert {"lg_phexp.csv", "lg_overlap.csv"} <= {p.name for p in tmp_path.iterdir()}
