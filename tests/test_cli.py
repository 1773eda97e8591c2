import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from abscatter import smatrix
from abscatter.cli import main
from abscatter.gaugefield import (
    GaussianScalar,
    ScalarMixture,
    VectorPotential,
    save_potential_json,
)
from abscatter.inverse import recover_flux, verdict_to_json
from abscatter.smatrix import load_kernel_csv, sample_kernel
from abscatter.xray import load_sinogram_csv


@pytest.fixture
def pot_path(tmp_path):
    path = tmp_path / "pot.json"
    save_potential_json(VectorPotential(alpha=0.7), path)
    return str(path)


def test_flux_command(pot_path, tmp_path, capsys):
    out = tmp_path / "flux.json"
    rc = main(["flux", "--config", pot_path, "--radii", "10,20,40", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert abs(payload["alpha"] - 0.7) <= 1e-9
    assert len(payload["sequence"]) == 3

    rc = main(["flux", "--config", pot_path, "--radii", "10"])
    assert rc == 0
    assert abs(json.loads(capsys.readouterr().out)["alpha"] - 0.7) <= 1e-9


@pytest.mark.parametrize("radii", ["nan", "5,nan,10", "5,inf"])
def test_flux_non_finite_radii_exit_three(pot_path, capsys, radii):
    assert main(["flux", "--config", pot_path, "--radii", radii]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize("config", [
    "[1, 2]",
    '{"alpha": 0.5, "bumps": [{"center": [1], "strength": 1.0, "width": 0.5}]}',
    '{"alpha": NaN}',
    '{"alpha": 0.5, "bumps": [{"center": [1, 0], "strength": 1.0, "width": Infinity}]}',
])
def test_flux_bad_config_exit_two(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(config)
    assert main(["flux", "--config", str(path), "--radii", "5,10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "schema error" in captured.err


def test_kernel_recover_round_trip(tmp_path):
    k = tmp_path / "k.csv"
    v = tmp_path / "v.json"
    assert main(["kernel", "--alpha", "0.5", "--n", "1024", "--out", str(k)]) == 0
    rc = main(["recover", "--kernel", str(k), "--strips", "0.1,0.05,0.025",
               "--convex", "--out", str(v)])
    assert rc == 0
    payload = json.loads(v.read_text())
    assert abs(payload["alpha"] - 0.5) <= 1e-4
    assert payload["witness"] is True


def test_default_kernel_then_default_recover_matches_library(tmp_path):
    # n = 256 by default: the strip schedule follows n, as in recover_flux
    k, v = tmp_path / "k.csv", tmp_path / "v.json"
    assert main(["kernel", "--alpha", "0.4", "--out", str(k)]) == 0
    assert main(["recover", "--kernel", str(k), "--convex", "--out", str(v)]) == 0
    verdict = recover_flux(load_kernel_csv(k), obstacle_convex=True)
    assert v.read_text() == verdict_to_json(verdict)
    assert abs(verdict.alpha - 0.4) <= 1e-4


def test_kernel_csv_matches_library(tmp_path):
    k = tmp_path / "k.csv"
    main(["kernel", "--alpha", "0.31", "--n", "128", "--out", str(k)])
    grid = load_kernel_csv(k)
    ref = sample_kernel(0.31, 128)
    assert np.array_equal(grid.values, ref.values)
    assert grid.delta_coeff == ref.delta_coeff


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["kernel", "--alpha", "0.5", "--n", "128", "--perturb", "0.05",
          "--seed", "7", "--out", str(a)])
    main(["kernel", "--alpha", "0.5", "--n", "128", "--perturb", "0.05",
          "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_exit_code_numeric_domain_error(tmp_path):
    k = tmp_path / "k.csv"
    main(["kernel", "--alpha", "0.5", "--n", "256", "--out", str(k)])
    # missing --convex flag: the pipeline refuses (numeric-domain contract)
    assert main(["recover", "--kernel", str(k), "--strips", "0.2,0.1"]) == 3
    # eps below the grid resolution
    assert main(["strip", "--kernel", str(k), "--eps", "0.01"]) == 3


@pytest.mark.parametrize("m_max", ["0", "-2"])
def test_recover_empty_mode_window_exit_three(tmp_path, capsys, m_max):
    k = tmp_path / "k.csv"
    main(["kernel", "--alpha", "0.3", "--n", "256", "--out", str(k)])
    assert main(["recover", "--kernel", str(k), "--m-max", m_max, "--convex"]) == 3
    assert "mode window is empty: m_max must be >= 1" in capsys.readouterr().err


def test_recover_flip_outside_mode_window_exit_three(tmp_path, capsys):
    # ceil(8.5) = 9 lies outside the default window [-8, 8]
    k = tmp_path / "k.csv"
    main(["kernel", "--alpha", "8.5", "--n", "256", "--out", str(k)])
    assert main(["recover", "--kernel", str(k), "--convex"]) == 3
    err = capsys.readouterr().err
    assert "flip ceil(alpha) lies outside the mode window [-8, 8]" in err


def test_exit_code_schema_error(tmp_path):
    k = tmp_path / "k.csv"
    main(["kernel", "--alpha", "0.5", "--n", "256", "--out", str(k)])
    assert main(["recover", "--kernel", str(k), "--strips", "zebra", "--convex"]) == 2


def test_argparse_exit_code_two():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--alpha"])  # missing value
    assert exc.value.code == 2


def test_wave_and_gauge_check(tmp_path):
    w = tmp_path / "w.csv"
    assert main(["wave", "--alpha", "0.5", "--extent", "3", "--grid", "21",
                 "--out", str(w)]) == 0
    lines = [ln for ln in w.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "x1,x2,re,im"
    assert len(lines) == 1 + 21 * 21 - 1  # origin grid point is filtered out

    k1, k2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
    main(["kernel", "--alpha", "0.4", "--n", "128", "--out", str(k1)])
    main(["kernel", "--alpha", "2.4", "--n", "128", "--out", str(k2)])
    rep = tmp_path / "rep.json"
    assert main(["gauge-check", "--kernel1", str(k1), "--kernel2", str(k2),
                 "--out", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["n"] == 2 and payload["equivalent"] is True


def test_radon_command(tmp_path):
    cfg = tmp_path / "ph.json"
    save_potential_json(VectorPotential(
        alpha=0.0, v=ScalarMixture((GaussianScalar((3.0, 0.0), 1.0, 0.5),))), cfg)
    sino_path = tmp_path / "s.csv"
    recon_path = tmp_path / "r.csv"
    rc = main(["radon", "--config", str(cfg), "--n-p", "64", "--n-phi", "90",
               "--p-max", "8", "--out", str(sino_path),
               "--invert", "64", "--recon", str(recon_path)])
    assert rc == 0
    sino = load_sinogram_csv(sino_path)
    assert sino.values.shape == (64, 90)
    assert recon_path.exists()

    # raw A sinogram over even offsets (no origin line)
    cfg2 = tmp_path / "pa.json"
    save_potential_json(VectorPotential(alpha=0.5), cfg2)
    a_path = tmp_path / "a.csv"
    rc = main(["radon", "--config", str(cfg2), "--quantity", "A", "--n-p", "64",
               "--n-phi", "64", "--p-max", "8", "--out", str(a_path)])
    assert rc == 0
    raw = load_sinogram_csv(a_path)
    assert np.allclose(np.abs(raw.values), 0.5 * math.pi)


def test_radon_bad_grid_exit_three(tmp_path):
    cfg = tmp_path / "pa.json"
    save_potential_json(VectorPotential(
        alpha=0.5, v=ScalarMixture((GaussianScalar((3.0, 0.0), 1.0, 0.5),))), cfg)
    out = tmp_path / "s.csv"
    assert main(["radon", "--config", str(cfg), "--p-max", "0", "--out", str(out)]) == 3
    # an odd offset count puts a line through the origin
    assert main(["radon", "--config", str(cfg), "--quantity", "A", "--n-p", "65",
                 "--out", str(out)]) == 3
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, abscatter.cli; "
            "print(','.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == ""


def test_cli_import_loads_no_process_pool():
    # io imports multiprocessing only when a large table is written or read
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, abscatter.cli; print(','.join(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == ""


@pytest.mark.parametrize("argv, code", [
    (["kernel", "--alpha", "nan"], 3),
    (["wave", "--alpha", "0.5", "--energy", "nan"], 3),
    (["wave", "--alpha", "nan"], 3),
    (["kernel", "--alpha", "0.5", "--perturb", "nan"], 2),
    (["kernel", "--alpha", "0.5", "--perturb", "inf"], 2),
    (["kernel", "--alpha", "0.5", "--perturb", "-0.1"], 2),
    (["wave", "--alpha", "0.5", "--grid", "0"], 2),
    (["wave", "--alpha", "0.5", "--grid", "1"], 2),
])
def test_bad_kernel_and_wave_inputs_write_nothing(tmp_path, argv, code):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--omega-deg", "nan"), ("--omega-deg", "inf"),
                                         ("--extent", "0"), ("--extent", "-5"),
                                         ("--extent", "inf"), ("--extent", "nan")])
def test_bad_wave_geometry_exits_two_naming_the_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "w.csv"
    assert main(["wave", "--alpha", "0.5", "--grid", "11", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert not out.exists()


# near the float maximum the phase first * gam of the short ladder would
# overflow (a RuntimeWarning, an error under this suite's settings); the long
# ladder is tried first and fails to allocate
@pytest.mark.parametrize("alpha", ["1e18", "1e300", "1.7e308", "-1.7e308"])
def test_wave_ladder_too_large_exits_three_at_once(tmp_path, capsys, alpha):
    out = tmp_path / "w.csv"
    start = time.perf_counter()
    assert main(["wave", f"--alpha={alpha}", "--grid", "11", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "orders" in err and "GiB" in err
    assert not out.exists()


def test_kernel_grid_too_large_exits_three_at_once(tmp_path, capsys):
    # 16 * n^2 bytes is about 1.5e8 GiB: the allocation is refused without
    # touching memory
    out = tmp_path / "k.csv"
    start = time.perf_counter()
    assert main(["kernel", "--alpha", "0.3", "--n", "100000000", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "100000000 x 100000000" in err and "GiB" in err
    assert not out.exists()


def test_other_memory_errors_exit_three(tmp_path, capsys, monkeypatch):
    def fail(grid, path):
        raise MemoryError
    monkeypatch.setattr(smatrix, "save_kernel_csv", fail)
    assert main(["kernel", "--alpha", "0.3", "--n", "64", "--out", str(tmp_path / "k.csv")]) == 3
    assert capsys.readouterr().err == "abscatter: out of memory: an allocation failed\n"
