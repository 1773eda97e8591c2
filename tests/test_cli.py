import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscatter import smatrix
from abscatter.abwave import ABWaveSpec, eval_ab_wave_grid, load_wave_csv
from abscatter.cli import main
from abscatter.gaugefield import (
    GaussianBump,
    GaussianScalar,
    ScalarMixture,
    VectorPotential,
    save_potential_json,
)
from abscatter.inverse import recover_flux
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


def test_flux_radius_whose_square_underflows_is_named(pot_path, capsys):
    # the circle's |x|^2 underflows, but it sweeps 2 pi about the flux line all the same
    assert main(["flux", "--config", pot_path, "--radii", "1e-200,10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"alpha": 0.7, "sequence": [0.7, 0.7]}


@pytest.mark.parametrize("radii", [pytest.param("1e160", id="1e160-1e+160"),
                                   pytest.param("10,1e200", id="10,1e200-1e+200")])
def test_flux_radius_whose_square_overflows_is_named(pot_path, capsys, radii):
    # the flux field is 0 where |x|^2 overflows, but the flux part is read as alpha times
    # the 2 pi a circle sweeps, so no radius the floats hold reads a flux of 0
    assert main(["flux", "--config", pot_path, "--radii", radii]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"alpha": 0.7, "sequence": [0.7] * len(radii.split(","))}


def test_flux_of_a_huge_flux(tmp_path, capsys):
    # at 1e308 the circulation 2 pi alpha overflows, the estimate alpha does not
    path = tmp_path / "huge.json"
    for alpha, radii in ((1e300, "1e10,2e10"), (1e308, "10,20"), (1e308, "3,7")):
        save_potential_json(VectorPotential(alpha=alpha), path)
        assert main(["flux", "--config", str(path), "--radii", radii]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["alpha"] == alpha


def test_a_sinogram_of_a_huge_flux_exits_three(tmp_path, capsys):
    # alpha * pi, every line's flux part, overflows at 1e308: no file, one line naming the flux
    cfg, out = tmp_path / "huge.json", tmp_path / "a.csv"
    save_potential_json(VectorPotential(alpha=1e308), cfg)
    assert main(["radon", "--config", str(cfg), "--quantity", "A", "--n-p", "8", "--n-phi", "8",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "flux alpha = 1e+308" in captured.err and not out.exists()


def test_a_sinogram_whose_flux_and_aprime_sum_overflows_exits_three(tmp_path, capsys):
    # each line's flux part and A' integral are finite, their sum is not: no file, no
    # warning, one line naming the flux and A'
    cfg, out = tmp_path / "sum.json", tmp_path / "a.csv"
    save_potential_json(VectorPotential(alpha=5.7e307,
                                        bumps=(GaussianBump((0.0, 0.0), 8e307, 1.0),)), cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["radon", "--config", str(cfg), "--quantity", "A", "--n-p", "8", "--n-phi",
                     "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and not caught and not out.exists()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "flux alpha = 5.7e+307" in captured.err and "A'" in captured.err


def test_a_sinogram_whose_line_integral_overflows_exits_three(tmp_path, capsys):
    # one wide, strong V component: each line's segment-rule sum overflows; no file, no
    # warning, one line naming the component
    cfg, out = tmp_path / "wide.json", tmp_path / "v.csv"
    save_potential_json(VectorPotential(
        alpha=0.0, v=ScalarMixture((GaussianScalar((0.0, 0.0), 1.7e308, 1e10),))), cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["radon", "--config", str(cfg), "--p-max", "1e10", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and not caught and not out.exists()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "component of strength 1.7e+308 and width 1e+10" in captured.err


@pytest.mark.parametrize("config", [
    "[1, 2]",
    '{"alpha": 0.5, "bumps": [{"center": [1], "strength": 1.0, "width": 0.5}]}',
    '{"alpha": NaN}',
    '{"alpha": 0.5, "bumps": [{"center": [1, 0], "strength": 1.0, "width": Infinity}]}',
    # 2 * 10 / 1.5e-154^2, the curl at the center, overflows
    '{"alpha": 0.3, "bumps": [{"center": [0, 0], "strength": 10.0, "width": 1.5e-154}]}',
    # each bump's own bound is finite, but B sums the two past the largest float
    '{"alpha": 0.3, "bumps": [{"center": [0, 0], "strength": 2.0224047767201054, '
    '"width": 1.5e-154}, {"center": [0, 0], "strength": 2.0224047767201054, '
    '"width": 1.5e-154}]}',
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
    rc = main(["recover", "--kernel", str(k), "--convex", "--out", str(v)])
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
    assert v.read_text() == json.dumps(dataclasses.asdict(verdict), indent=2) + "\n"
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
    # the perturbation recipe is smatrix.perturb_kernel; its bytes are pinned
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "4e90f2ec900ae0a78d942777024de8b589cc8c9dc678a01a1d32c8b750da8b16")
    ref = smatrix.perturb_kernel(sample_kernel(0.5, 128), 0.05, 7)
    assert np.array_equal(load_kernel_csv(a).values, ref.values)


def test_non_finite_kernel_entries_exit_two(tmp_path, capsys):
    k, other = tmp_path / "k.csv", tmp_path / "other.csv"
    main(["kernel", "--alpha", "0.3", "--n", "128", "--out", str(k)])
    main(["kernel", "--alpha", "0.3", "--n", "128", "--out", str(other)])
    lines = k.read_text().splitlines(keepends=True)
    lines[100] = lines[100].rsplit(",", 1)[0] + ",nan\n"
    j, col, _, im = lines[5000].split(",")
    lines[5000] = f"{j},{col},inf,{im}"
    k.write_text("".join(lines))
    for argv in (["gauge-check", "--kernel1", str(other), "--kernel2", str(k)],
                 ["strip", "--kernel", str(k), "--eps", "0.2"],
                 ["recover", "--kernel", str(k), "--convex"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "line 101: '" in captured.err and "finite" in captured.err


def test_non_finite_result_exits_three_and_writes_nothing(tmp_path, capsys, monkeypatch):
    k, out = tmp_path / "k.csv", tmp_path / "s.json"
    main(["kernel", "--alpha", "0.3", "--n", "128", "--out", str(k)])
    monkeypatch.setattr(smatrix, "strip_integral", lambda grid, strip: complex(math.nan, 1.0))
    assert main(["strip", "--kernel", str(k), "--eps", "0.2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "NaN" in captured.err
    assert not out.exists()


def test_winding_range_past_half_period_exits_three_at_once(tmp_path, capsys):
    k1, k2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
    main(["kernel", "--alpha", "0.4", "--n", "128", "--out", str(k1)])
    main(["kernel", "--alpha", "2.4", "--n", "128", "--out", str(k2)])
    start = time.perf_counter()
    assert main(["gauge-check", "--kernel1", str(k1), "--kernel2", str(k2),
                 "--n-range", "100000"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "N = 128" in captured.err and "n_range < 64" in captured.err


def test_default_strips_on_a_coarse_grid_name_the_grid(tmp_path, capsys):
    k = tmp_path / "k.csv"
    assert main(["kernel", "--alpha", "0.4", "--n", "64", "--out", str(k)]) == 0
    assert main(["recover", "--kernel", str(k), "--convex"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "64-point grid" in err and "0.7854" in err and "n > 64" in err


def test_exit_code_numeric_domain_error(tmp_path):
    k = tmp_path / "k.csv"
    main(["kernel", "--alpha", "0.5", "--n", "256", "--out", str(k)])
    # eps below the grid resolution
    assert main(["strip", "--kernel", str(k), "--eps", "0.01"]) == 3


# an integer flag below its floor exits 2 before any work: the kernel and
# config paths below do not exist, which would exit 3 once read
@pytest.mark.parametrize("argv, flag", [
    pytest.param(["kernel", "--alpha", "0.5", "--n", "10"], "--n", id="kernel-n-10"),
    pytest.param(["kernel", "--alpha", "0.5", "--n", "63"], "--n", id="kernel-n-63"),
    pytest.param(["radon", "--config", "missing.json", "--n-p", "10"], "--n-p",
                 id="radon-n-p-10"),
    pytest.param(["radon", "--config", "missing.json", "--n-phi", "63"], "--n-phi",
                 id="radon-n-phi-63"),
    pytest.param(["radon", "--config", "missing.json", "--quantity", "A", "--n-p", "0"],
                 "--n-p", id="radon-a-n-p-0"),
    pytest.param(["radon", "--config", "missing.json", "--quantity", "A", "--n-phi", "-3"],
                 "--n-phi", id="radon-a-n-phi--3"),
    pytest.param(["gauge-check", "--kernel1", "missing.csv", "--kernel2", "missing.csv",
                  "--n-range", "-1"], "--n-range", id="gauge-check-n-range--1"),
    pytest.param(["wave", "--alpha", "0.5", "--grid", "1"], "--grid", id="wave-grid-1"),
    pytest.param(["kernel", "--alpha", "0.3", "--n", "64", "--perturb", "0.1", "--seed", "-1"],
                 "--seed", id="kernel-seed--1"),
])
def test_argument_below_its_floor_exits_two_naming_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{flag} must be >= " in err
    assert not out.exists()


def test_recover_without_convex_exits_two_before_reading(tmp_path, capsys):
    # the kernel path does not exist, which would exit 3 once read: the missing
    # hypothesis flag is an argument violation, refused first
    out = tmp_path / "v.json"
    assert main(["recover", "--kernel", str(tmp_path / "missing.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--convex" in err
    assert not out.exists()


def test_raw_a_sinogram_takes_small_grids(tmp_path):
    # the 64-point floor is the V sinogram's; raw A line integrals take any grid
    cfg, out = tmp_path / "pa.json", tmp_path / "a.csv"
    save_potential_json(VectorPotential(alpha=0.5), cfg)
    assert main(["radon", "--config", str(cfg), "--quantity", "A", "--n-p", "24",
                 "--n-phi", "2", "--out", str(out)]) == 0
    assert load_sinogram_csv(out).values.shape == (24, 2)


def test_recover_flip_outside_mode_window_exit_three(tmp_path, capsys):
    # the window doubles from [-8, 8] up to [-n // 16, n // 16]: ceil(20.5) = 21
    # lies outside the largest window of a 256-point grid
    k = tmp_path / "k.csv"
    main(["kernel", "--alpha", "20.5", "--n", "256", "--out", str(k)])
    assert main(["recover", "--kernel", str(k), "--convex"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "flip ceil(alpha) lies outside the mode window [-16, 16]" in err


def test_exit_code_schema_error(tmp_path):
    # a kernel CSV cut short is refused before any recovery
    k = tmp_path / "k.csv"
    main(["kernel", "--alpha", "0.5", "--n", "256", "--out", str(k)])
    lines = k.read_text().splitlines(keepends=True)
    k.write_text("".join(lines[:-100]))
    assert main(["recover", "--kernel", str(k), "--convex"]) == 2


# options whose values the program derives itself: the mode window and strips
# from the kernel, the wave truncation from the farthest grid point
@pytest.mark.parametrize("argv, flag", [
    pytest.param(["recover", "--kernel", "k.csv", "--convex"], "--m-max", id="recover-m-max"),
    pytest.param(["recover", "--kernel", "k.csv", "--convex"], "--strips", id="recover-strips"),
    pytest.param(["recover", "--kernel", "k.csv", "--convex"], "--a", id="recover-a"),
    pytest.param(["recover", "--kernel", "k.csv", "--convex"], "--b", id="recover-b"),
    pytest.param(["wave", "--alpha", "0.5", "--out", "w.csv"], "--truncation",
                 id="wave-truncation"),
])
def test_removed_flag_exits_two(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


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


def test_wave_sign_minus_matches_library(tmp_path):
    w = tmp_path / "w.csv"
    assert main(["wave", "--alpha", "0.3", "--sign", "minus", "--extent", "3", "--grid", "21",
                 "--out", str(w)]) == 0
    pts, vals = load_wave_csv(w)
    spec = ABWaveSpec(alpha=0.3, lam=1.0, omega=(1.0, 0.0), sign=-1)
    assert np.array_equal(vals, eval_ab_wave_grid(spec, pts))
    plus = dataclasses.replace(spec, sign=1)
    assert float(np.max(np.abs(vals - eval_ab_wave_grid(plus, pts)))) > 0.1


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


# every pairing of radon's reconstruction flags ends in exit 0, 2 or 3 with a
# one-line message; a refused pairing writes nothing, and a recon exists only
# after exit 0
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([None, -5, 0, 1, 32]), st.booleans(), st.sampled_from(["V", "A"]))
def test_radon_reconstruction_flags(invert, recon, quantity):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, rec = Path(tmp, "p.json"), Path(tmp, "s.csv"), Path(tmp, "r.csv")
        save_potential_json(VectorPotential(
            alpha=0.5, v=ScalarMixture((GaussianScalar((3.0, 0.0), 1.0, 0.5),))), cfg)
        argv = ["radon", "--config", str(cfg), "--quantity", quantity, "--n-p", "64",
                "--n-phi", "64", "--out", str(out)]
        argv += [] if invert is None else ["--invert", str(invert)]
        argv += ["--recon", str(rec)] if recon else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:    # the console script would print a traceback
                pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue()
        if code != 0:
            assert err.getvalue().count("\n") == 1
            assert not out.exists() and not rec.exists()
        assert rec.exists() == (code == 0 and recon)
        assert code == (0 if (invert is None, recon) == (True, False)
                        or (invert, recon, quantity) in ((1, True, "V"), (32, True, "V")) else 2)


@pytest.mark.parametrize("argv", [
    ["radon", "--config", "{tmp}/pot.json", "--invert", str(10**21), "--recon", "{tmp}/r.csv"],
    ["wave", "--alpha", "0.5", "--grid", str(10**21)],
])
def test_grid_beyond_numpy_size_exits_three_at_once(tmp_path, capsys, argv):
    # 10**21 points a side exceed numpy's maximum array size: refused with no
    # allocation, and no file is written
    save_potential_json(VectorPotential(alpha=0.5), tmp_path / "pot.json")
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    assert main([*(a.replace("{tmp}", str(tmp_path)) for a in argv), "--out", str(out)]) == 3
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{10**21} x {10**21}" in err
    assert not out.exists() and not (tmp_path / "r.csv").exists()


def test_strip_is_checked_before_the_kernel_is_read(tmp_path, capsys):
    # the kernel path does not exist; the strip's own refusal comes first
    assert main(["strip", "--kernel", str(tmp_path / "missing.csv"), "--a", "nan",
                 "--eps", "0.2"]) == 3
    assert "strip a must be a finite float" in capsys.readouterr().err


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


# a width whose square is not a finite, normal float is refused by
# the config schema, before an envelope or a node count is formed
@pytest.mark.parametrize("strength, width", [(1e308, 1e300), (1.0, 1e-300)])
def test_radon_width_out_of_float_range_exits_two(tmp_path, capsys, strength, width):
    cfg, out = tmp_path / "p.json", tmp_path / "s.csv"
    cfg.write_text(json.dumps({"alpha": 0.3, "V": [
        {"center": [0.0, 0.0], "strength": strength, "width": width}]}))
    assert main(["radon", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "width" in err
    assert not out.exists()


# every line misses the disk of a component centred at 1e300; the hit test
# squares no offset, so no RuntimeWarning (an error under this suite) fires
@pytest.mark.parametrize("quantity", ["V", "A"])
def test_radon_far_centre_misses_every_line(tmp_path, capsys, quantity):
    cfg, out = tmp_path / "p.json", tmp_path / "s.csv"
    far = {"center": [1e300, -1e300], "strength": 1.0, "width": 1.0}
    cfg.write_text(json.dumps({"alpha": 0.3, "bumps": [far], "gradL": [far], "V": [far]}))
    assert main(["radon", "--config", str(cfg), "--quantity", quantity, "--n-p", "64",
                 "--n-phi", "64", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    sino = load_sinogram_csv(out)
    want = 0.0 if quantity == "V" else -0.3 * math.pi * np.sign(sino.offsets)[:, None]
    assert np.array_equal(sino.values, np.broadcast_to(want, sino.values.shape))


def test_flux_far_centre_is_clean(tmp_path, capsys):
    # a bump whose squared offset overflows contributes nothing: no warning, no NaN
    cfg, out = tmp_path / "p.json", tmp_path / "flux.json"
    far = {"center": [1e300, 0.0], "strength": 1.0, "width": 1.0}
    cfg.write_text(json.dumps({"alpha": 0.3, "bumps": [far], "gradL": [far], "V": [far]}))
    assert main(["flux", "--config", str(cfg), "--radii", "10,20,40", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    got = json.loads(out.read_text())
    assert all(abs(a - 0.3) <= 1e-12 for a in [got["alpha"], *got["sequence"]])


def test_flux_width_with_subnormal_square_exits_two(tmp_path, capsys):
    # (1e-160)^2 is below the least normal float
    cfg, out = tmp_path / "p.json", tmp_path / "flux.json"
    cfg.write_text(json.dumps({"alpha": 0.3, "bumps": [
        {"center": [0.0, 0.0], "strength": 1.0, "width": 1e-160}]}))
    assert main(["flux", "--config", str(cfg), "--radii", "10,20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "width" in err
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, abscatter.cli; "
            "print(','.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == ""


LAYERS = ("abwave", "specfun", "smatrix", "inverse", "gaugefield", "xray")
KERNEL_SIDE = ("abwave", "specfun", "gaugefield", "xray")


@pytest.mark.parametrize("argv, absent", [
    (["--version"], ("numpy", *LAYERS)),
    (["--help"], ("numpy", *LAYERS)),
    (["wave", "--alpha", "0.5"], ("numpy", *LAYERS)),                  # argparse error
    (["kernel", "--alpha", "0.3", "--n", "8", "--out", "{tmp}/k8.csv"], ("numpy", *LAYERS)),
    (["kernel", "--alpha", "0.3", "--perturb", "-1", "--out", "{tmp}/kp.csv"], ("numpy", *LAYERS)),
    (["wave", "--alpha", "0.5", "--omega-deg", "nan", "--out", "{tmp}/wn.csv"], ("numpy", *LAYERS)),
    (["wave", "--alpha", "0.5", "--grid", "5", "--extent", "2", "--out", "{tmp}/w.csv"],
     ("smatrix", "inverse", "gaugefield", "xray")),
    (["kernel", "--alpha", "0.3", "--n", "64", "--out", "{tmp}/k2.csv"], KERNEL_SIDE),
    (["recover", "--kernel", "{tmp}/k.csv", "--convex"], KERNEL_SIDE),
    (["gauge-check", "--kernel1", "{tmp}/k.csv", "--kernel2", "{tmp}/k.csv"], KERNEL_SIDE),
    (["strip", "--kernel", "{tmp}/k.csv", "--eps", "0.2"], KERNEL_SIDE),
    (["flux", "--config", "{tmp}/pot.json", "--radii", "5,10"],
     ("smatrix", "inverse", "abwave", "specfun", "xray")),
    (["radon", "--config", "{tmp}/pot.json", "--quantity", "A", "--n-p", "4", "--n-phi", "4",
      "--out", "{tmp}/s.csv"], ("abwave", "specfun", "smatrix", "inverse")),
    (["recover", "--kernel", "{tmp}/k.csv"], ("numpy", *LAYERS)),     # refused: no --convex
])
def test_cli_loads_only_the_modules_its_command_uses(tmp_path, argv, absent):
    # each command imports numpy and its layer modules itself, after its argument
    # checks: --version, --help and refused arguments load no numpy, and no command
    # loads another's layers
    assert main(["kernel", "--alpha", "0.3", "--n", "64", "--out", str(tmp_path / "k.csv")]) == 0
    save_potential_json(VectorPotential(alpha=0.7), tmp_path / "pot.json")
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\nfrom abscatter.cli import main\ntry:\n    main(sys.argv[1:])\n"
            "except SystemExit:\n    pass\nprint(' '.join(sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()[-1].split()
    loaded = {m.removeprefix("abscatter.") for m in out}
    assert loaded.isdisjoint(absent), sorted(loaded & set(absent))
    assert "abscatter.cli" in out


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
    # sqrt(lam) * max|x| overflows: refused before the truncation is sized from it
    (["wave", "--alpha", "0.5", "--energy", "1e308", "--extent", "1e155", "--grid", "3"], 3),
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
# ladder is tried first and passes the ladder's top order
@pytest.mark.parametrize("alpha", ["1e18", "1e300", "1.7e308", "-1.7e308"])
def test_wave_ladder_too_large_exits_three_at_once(tmp_path, capsys, alpha):
    out = tmp_path / "w.csv"
    start = time.perf_counter()
    assert main(["wave", f"--alpha={alpha}", "--grid", "11", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must lie in [0, 20000]" in err
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


@pytest.mark.parametrize("argv, size", [
    (["radon", "--config", "{cfg}", "--n-p", str(10**30), "--n-phi", "64"],
     f"a {10**30} x 64 sinogram"),
    (["radon", "--config", "{cfg}", "--quantity", "A", "--n-p", "8", "--n-phi", str(10**30)],
     f"a 8 x {10**30} sinogram"),
    (["kernel", "--alpha", "0.3", "--n", str(10**400)], f"a {10**400} x {10**400} kernel grid"),
], ids=["radon-n-p", "radon-a-n-phi", "kernel-n"])
def test_huge_size_exits_three_at_once(tmp_path, capsys, argv, size):
    # refused as numpy's largest array is passed, before any file is written
    out, cfg = tmp_path / "out.csv", tmp_path / "p.json"
    save_potential_json(VectorPotential(alpha=0.3), cfg)
    start = time.perf_counter()
    assert main([a.replace("{cfg}", str(cfg)) for a in argv] + ["--out", str(out)]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and size in err and "more than can be allocated" in err
    assert not out.exists()


def test_other_memory_errors_exit_three(tmp_path, capsys, monkeypatch):
    def fail(grid, path):
        raise MemoryError
    monkeypatch.setattr(smatrix, "save_kernel_csv", fail)
    assert main(["kernel", "--alpha", "0.3", "--n", "64", "--out", str(tmp_path / "k.csv")]) == 3
    assert capsys.readouterr().err == "abscatter: out of memory: an allocation failed\n"


@pytest.mark.parametrize("argv", [
    ["wave", "--alpha", "0.5", "--grid", "21", "--extent", "3", "--out", "{dir}"],
    ["recover", "--kernel", "{dir}", "--convex"],
], ids=["wave-out", "recover-kernel"])
def test_directory_path_exits_three(tmp_path, capsys, argv):
    assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Is a directory" in err and str(tmp_path) in err


@pytest.mark.parametrize("data, says", [
    (b'{"alpha": 0.3\xff}\n', "can't decode byte 0xff"),
    (b'{"alpha": 0.3, ', "Expecting property name"),
], ids=["not-ascii", "truncated"])
def test_config_that_is_not_ascii_json_exits_two(tmp_path, capsys, data, says):
    # a schema error naming the file, as the same byte in a kernel CSV is
    cfg = tmp_path / "p.json"
    cfg.write_bytes(data)
    assert main(["flux", "--config", str(cfg), "--radii", "10,20"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and says in err
    assert err.startswith(f"abscatter: schema error: {cfg}: ")
