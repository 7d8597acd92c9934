"""End-to-end checks of the batch CLI: files in, reports and exit codes out."""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from mdlab import cli, families
from mdlab.cli import SCHUR_SIZE_CAP, main
from mdlab.groups import ZnGroup
from mdlab.families import fejer_multiplier
from mdlab.multipliers import GRID_NODE_CAP, read_brackets_csv
from mdlab.schur import schur_norm, write_matrix_binary

from oracles import indicator01_circle_integral
from strategies import (
    group_descriptions,
    matrix_binary_bytes,
    matrix_csv_text,
    multiplier_descriptions,
)


@pytest.fixture
def groups(tmp_path):
    paths = {}
    for name, desc in (("z", {"kind": "zn", "n": 1}),
                       ("z2", {"kind": "zn", "n": 2}),
                       ("f2", {"kind": "free", "rank": 2})):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(desc))
        paths[name] = str(p)
    return paths


def data_lines(path):
    return [l for l in path.read_text().splitlines()
            if l and not l.startswith("#")]


class TestBall:
    def test_free_rank2_radius2(self, tmp_path, groups):
        out = tmp_path / "o"
        assert main(["ball", "--group", groups["f2"], "-R", "2",
                     "--out", str(out)]) == 0
        rows = data_lines(out / "ball.csv")
        assert rows[0] == "index,canonical_string,length"
        assert len(rows) - 1 == 17

    def test_lattice_radius1(self, tmp_path, groups):
        out = tmp_path / "o"
        assert main(["ball", "--group", groups["z2"], "-R", "1",
                     "--out", str(out)]) == 0
        assert len(data_lines(out / "ball.csv")) - 1 == 5

    def test_negative_radius_is_validation(self, tmp_path, groups):
        assert main(["ball", "--group", groups["f2"], "-R", "-1",
                     "--out", str(tmp_path)]) == 2

    def test_cap_exhaustion(self, tmp_path, groups, monkeypatch):
        monkeypatch.setenv("MDLAB_BALL_CAP", "40")
        assert main(["ball", "--group", groups["f2"], "-R", "3",
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("generator", [5, -1])
    def test_finite_generator_out_of_range(self, tmp_path, generator):
        g = tmp_path / "bad.json"
        g.write_text(json.dumps({"kind": "finite", "table": [[0, 1], [1, 0]],
                                 "generators": [generator]}))
        assert main(["ball", "--group", str(g), "-R", "1",
                     "--out", str(tmp_path)]) == 2

    @given(group_descriptions())
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_descriptions_exit_0_or_2(self, desc):
        with tempfile.TemporaryDirectory() as tmp:
            g = os.path.join(tmp, "g.json")
            with open(g, "w", encoding="utf-8") as fh:
                json.dump(desc, fh)
            assert main(["ball", "--group", g, "-R", "1", "--out", tmp]) in (0, 2)

    def test_missing_group_file(self, tmp_path):
        assert main(["ball", "--group", str(tmp_path / "nope.json"),
                     "-R", "1", "--out", str(tmp_path)]) == 2


class TestSchur:
    def test_ones(self, tmp_path, capsys):
        m = tmp_path / "ones.csv"
        m.write_text("1,1\n1,1\n")
        assert main(["schur", "--matrix", str(m), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"
        assert (tmp_path / "witness_x.csv").exists()
        assert (tmp_path / "witness_y.csv").exists()

    def test_hadamard_against_witness_oracle(self, tmp_path, capsys):
        m = tmp_path / "had.csv"
        m.write_text("1,1\n1,-1\n")
        assert main(["schur", "--matrix", str(m), "--out", str(tmp_path)]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(math.sqrt(2), abs=1e-4)

    def test_binary_input(self, tmp_path, capsys):
        m = tmp_path / "mat.bin"
        with open(m, "wb") as fh:
            write_matrix_binary(fh, np.eye(3))
        assert main(["schur", "--matrix", str(m), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    @pytest.mark.filterwarnings("error")
    def test_binary_with_an_infinite_imaginary_part_exits_2(self, tmp_path, capsys):
        m = tmp_path / "inf.bin"
        with open(m, "wb") as fh:
            write_matrix_binary(fh, np.array([[complex(1.0, math.inf)]]))
        assert main(["schur", "--matrix", str(m), "--out", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_binary_header_larger_than_the_file(self, tmp_path):
        m = tmp_path / "huge.bin"
        m.write_bytes(b"SCHR1" + struct.pack("<II", 65535, 65535))
        assert main(["schur", "--matrix", str(m), "--out", str(tmp_path)]) == 2

    def test_matrix_over_the_size_cap_exits_3_before_the_solve(self, tmp_path, capsys):
        m = tmp_path / "tall.csv"
        m.write_text("1\n" * (SCHUR_SIZE_CAP + 1))
        assert main(["schur", "--matrix", str(m), "--out", str(tmp_path)]) == 3
        assert "size cap" in capsys.readouterr().err
        assert not (tmp_path / "witness_x.csv").exists()

    def test_iteration_cap_exits_4_and_writes_no_witness(self, tmp_path, monkeypatch,
                                                         capsys):
        m = tmp_path / "a.csv"
        m.write_text("1,2,0\n0,1,3\n4,0,1\n")
        monkeypatch.setenv("MDLAB_MAX_ITER", "1")
        out = tmp_path / "o"
        assert main(["schur", "--matrix", str(m), "--out", str(out)]) == 4
        assert "solver failure" in capsys.readouterr().err
        assert not (out / "witness_x.csv").exists()
        assert not (out / "witness_y.csv").exists()

    def test_malformed_csv(self, tmp_path):
        m = tmp_path / "bad.csv"
        m.write_text("1,frog\n2\n")
        assert main(["schur", "--matrix", str(m), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flags,env,want", [
        ([], None, 1e-8),           # the default is tightened past print precision
        (["--tol", "1e-6"], None, 1e-6),
        ([], "1e-6", 1e-6),
    ], ids=["unset", "flag", "env"])
    def test_a_chosen_tolerance_reaches_the_solver(self, tmp_path, monkeypatch,
                                                   flags, env, want):
        m = tmp_path / "a.csv"
        m.write_text("1,2\n0,1\n")
        monkeypatch.delenv("MDLAB_TOL", raising=False)
        if env is not None:
            monkeypatch.setenv("MDLAB_TOL", env)
        seen = []

        def spy(A, tol, max_iter):
            seen.append(tol)
            return schur_norm(A, tol=tol, max_iter=max_iter)

        monkeypatch.setattr(cli, "schur_norm", spy)
        assert main(["schur", "--matrix", str(m), "--out", str(tmp_path)] + flags) == 0
        assert seen == [want]


# the exit codes malformed input may end with: success, validation, resource cap
CLEAN_EXITS = (0, 2, 3)


def _run_schur_on(payload: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        m = os.path.join(tmp, "m.dat")
        with open(m, "wb") as fh:
            fh.write(payload)
        return main(["schur", "--matrix", m, "--out", tmp])


class TestFuzzedMatrixFiles:
    @given(matrix_csv_text)
    @settings(max_examples=80, deadline=None)
    def test_csv(self, text):
        assert _run_schur_on(text.encode("utf-8")) in CLEAN_EXITS

    @given(matrix_binary_bytes())
    @settings(max_examples=80, deadline=None)
    def test_binary(self, payload):
        assert _run_schur_on(payload) in CLEAN_EXITS

    @pytest.mark.parametrize("text", ["1e308,1e308\n1e308,-1e308\n",
                                      "1.7e308+1.7e308j\n"])
    def test_entries_past_the_float_range_of_the_solve(self, tmp_path, text, capsys):
        assert _run_schur_on(text.encode()) == 2
        assert "below 2^1000" in capsys.readouterr().err


class TestBracket:
    def test_constant_any_order(self, tmp_path, groups):
        phi_json = tmp_path / "one.json"
        phi_json.write_text(json.dumps({"name": "one", "constant": 1.0}))
        out = tmp_path / "o"
        assert main(["bracket", "--group", groups["z"], "--multiplier",
                     str(phi_json), "-d", "3", "-R", "2", "--out", str(out)]) == 0
        with open(out / "brackets.csv") as fh:
            row = read_brackets_csv(fh)[0]
        assert row.lower == pytest.approx(1.0, abs=1e-9)
        assert row.upper == pytest.approx(1.0, abs=1e-12)
        assert row.d == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e300, -2.5e300, 1e-160, 1e-170, 1e-200])
    @pytest.mark.parametrize("d", [1, 2])
    def test_constant_at_extreme_magnitude_is_priced_exactly(self, tmp_path, groups, c, d):
        # squaring |c| in the certificate's norm overflows or underflows here
        phi_json = tmp_path / "c.json"
        phi_json.write_text(json.dumps({"constant": c}))
        out = tmp_path / "o"
        assert main(["bracket", "--group", groups["z"], "--multiplier",
                     str(phi_json), "-d", str(d), "--out", str(out)]) == 0
        with open(out / "brackets.csv") as fh:
            row = read_brackets_csv(fh)[0]
        assert row.lower == row.upper == abs(c)
        assert row.flags == ()

    def test_indicator_hits_the_circle_integral(self, tmp_path, groups):
        phi_json = tmp_path / "ind.json"
        phi_json.write_text(json.dumps({"name": "ind01", "support": [
            [[0], 1.0, 0.0], [[1], 1.0, 0.0]]}))
        out = tmp_path / "o"
        assert main(["bracket", "--group", groups["z"], "--multiplier",
                     str(phi_json), "-d", "2", "-R", "8", "--out", str(out)]) == 0
        with open(out / "brackets.csv") as fh:
            row = read_brackets_csv(fh)[0]
        target = indicator01_circle_integral()
        assert row.lower <= target + 1e-6
        assert row.upper == pytest.approx(target, abs=1e-4)
        assert "window" in row.upper_provenance

    def test_smoothed_radial_gets_density_upper(self, tmp_path, groups):
        phi = fejer_multiplier(ZnGroup(1), 8, 0.9)
        phi_json = tmp_path / "fej.json"
        phi_json.write_text(json.dumps(phi.to_json()))
        out = tmp_path / "o"
        assert main(["bracket", "--group", groups["z"], "--multiplier",
                     str(phi_json), "-d", "2", "-R", "2", "--out", str(out)]) == 0
        with open(out / "brackets.csv") as fh:
            row = read_brackets_csv(fh)[0]
        assert row.lower == pytest.approx(1.0, abs=1e-5)
        assert row.upper == pytest.approx(1.0, abs=1e-5)
        assert row.upper_provenance.startswith("density")

    def test_signed_radial_has_no_upper_route(self, tmp_path, groups):
        phi_json = tmp_path / "sgn.json"
        phi_json.write_text(json.dumps(
            {"name": "sgn", "radial": {"coeffs_by_length": [1.0, -0.9]}}))
        out = tmp_path / "o"
        assert main(["bracket", "--group", groups["z"], "--multiplier",
                     str(phi_json), "-d", "2", "-R", "2", "--out", str(out)]) == 0
        with open(out / "brackets.csv") as fh:
            row = read_brackets_csv(fh)[0]
        assert math.isinf(row.upper)
        assert row.upper_provenance == "none"
        assert row.lower > 1.0  # window SDP sees the oscillation

    def test_lattice_rank_three_hits_the_grid_cap(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the Z^3 quadrature grid was allocated")

        monkeypatch.setattr(np, "meshgrid", refuse)
        group_json = tmp_path / "z3.json"
        group_json.write_text(json.dumps({"kind": "zn", "n": 3}))
        phi_json = tmp_path / "ind.json"
        phi_json.write_text(json.dumps({"name": "ind", "support": [
            [[0, 0, 0], 1.0, 0.0], [[1, 0, 0], 1.0, 0.0]]}))
        assert main(["bracket", "--group", str(group_json), "--multiplier",
                     str(phi_json), "-d", "2", "-R", "1",
                     "--out", str(tmp_path / "o")]) == 3
        assert "resource cap" in capsys.readouterr().err

    @staticmethod
    def _z3_indicator(tmp_path):
        group_json = tmp_path / "z3.json"
        group_json.write_text(json.dumps({"kind": "zn", "n": 3}))
        phi_json = tmp_path / "ind.json"
        phi_json.write_text(json.dumps({"name": "ind", "support": [
            [[0, 0, 0], 1.0, 0.0], [[1, 0, 0], 1.0, 0.0]]}))
        return ["bracket", "--group", str(group_json), "--multiplier", str(phi_json),
                "-d", "2", "-R", "1", "--out", str(tmp_path / "o")]

    def test_lattice_rank_three_is_refused_before_the_fft(self, tmp_path, monkeypatch,
                                                           capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the Z^3 symbol values were computed")

        monkeypatch.setattr(np.fft, "ifft", refuse)
        assert main(self._z3_indicator(tmp_path)) == 3
        assert "resource cap" in capsys.readouterr().err

    def test_lattice_rank_three_refusal_allocates_little(self, tmp_path, capsys):
        argv = self._z3_indicator(tmp_path)
        tracemalloc.start()
        try:
            assert main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert "resource cap" in capsys.readouterr().err

    def test_radial_past_the_grid_cap_is_refused_before_any_grid(self, tmp_path, groups,
                                                                 monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a quadrature grid was built")

        monkeypatch.setattr(np.fft, "ifft", refuse)
        monkeypatch.setattr(np, "meshgrid", refuse)
        coeffs = [1.0] + [0.0] * (GRID_NODE_CAP // 4)     # Q = 4L > GRID_NODE_CAP
        phi_json = tmp_path / "long.json"
        phi_json.write_text(json.dumps({"radial": {"coeffs_by_length": coeffs}}))
        assert main(["bracket", "--group", groups["z"], "--multiplier", str(phi_json),
                     "-d", "2", "-R", "1", "--out", str(tmp_path / "o")]) == 3
        assert "resource cap" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        {"radial": 5}, {"support": 3}, {"radial": {"coeffs_by_length": [[1]]}},
        {"constant": [1]}, {"constant": "1+2j"}, {"radial": {"coeffs_by_length": "12"}},
        {"radial": {"coeffs_by_length": [True]}}, {"support": [[[1e300], 1, 0]]},
        {"support": [[[0], 1, 0]], "name": [1]}, {"constant": 1, "name": 2},
    ])
    def test_malformed_multiplier_shapes_exit_2(self, tmp_path, groups, body, capsys):
        phi_json = tmp_path / "bad.json"
        phi_json.write_text(json.dumps(body))
        assert main(["bracket", "--group", groups["z"], "--multiplier",
                     str(phi_json), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_multiplier_json_exits_2(self, tmp_path, groups):
        phi_json = tmp_path / "deep.json"
        phi_json.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["bracket", "--group", groups["z"], "--multiplier",
                     str(phi_json), "--out", str(tmp_path)]) == 2

    @given(multiplier_descriptions())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_multipliers(self, desc):
        with tempfile.TemporaryDirectory() as tmp:
            g = os.path.join(tmp, "z.json")
            p = os.path.join(tmp, "phi.json")
            with open(g, "w", encoding="utf-8") as fh:
                json.dump({"kind": "zn", "n": 1}, fh)
            with open(p, "w", encoding="utf-8") as fh:
                json.dump(desc, fh)
            assert main(["bracket", "--group", g, "--multiplier", p, "-R", "1",
                         "--out", tmp]) in CLEAN_EXITS

    def test_bad_multiplier_json(self, tmp_path, groups):
        phi_json = tmp_path / "bad.json"
        phi_json.write_text(json.dumps({"name": "x"}))
        assert main(["bracket", "--group", groups["z"], "--multiplier",
                     str(phi_json), "--out", str(tmp_path)]) == 2


class TestFejer:
    def test_fixed_radius_monotone(self, tmp_path, groups):
        out = tmp_path / "o"
        assert main(["fejer", "--group", groups["z"], "--N-list", "4,8,16",
                     "--r-list", "0.9", "--out", str(out)]) == 0
        rows = data_lines(out / "fejer_convergence.csv")
        residuals = [float(r.split(",")[3]) for r in rows[1:]]
        assert residuals == sorted(residuals, reverse=True)
        uppers = [float(r.split(",")[5]) for r in rows[1:]]
        assert all(u <= 1 + 1e-6 for u in uppers)
        header = (out / "fejer_convergence.csv").read_text()
        assert "# result=INCOMPLETE" in header

    def test_diagonal_reaches_success(self, tmp_path, groups):
        ns = ",".join(str(4 ** j) for j in range(1, 8))
        rs = ",".join(str(1 - 2.0 ** -j) for j in range(1, 8))
        out = tmp_path / "o"
        assert main(["fejer", "--group", groups["z"], "--N-list", ns,
                     "--r-list", rs, "--out", str(out)]) == 0
        assert "# result=SUCCESS" in (out / "fejer_convergence.csv").read_text()

    def test_free_group_route_is_empirical(self, tmp_path, groups):
        out = tmp_path / "o"
        assert main(["fejer", "--group", groups["f2"], "--N-list", "2",
                     "--r-list", "0.5", "--out", str(out)]) == 0
        rows = data_lines(out / "fejer_convergence.csv")
        assert "upper-empirical" in rows[1]

    def test_free_group_route_respects_the_ball_cap(self, tmp_path, groups,
                                                    monkeypatch):
        # the radius-5 tree ball has 485 elements
        monkeypatch.setenv("MDLAB_BALL_CAP", "100")
        assert main(["fejer", "--group", groups["f2"], "--N-list", "2",
                     "--r-list", "0.5", "--family-radius", "5",
                     "--out", str(tmp_path)]) == 3

    def test_one_degree_pairs_with_every_radius(self, tmp_path, groups):
        out = tmp_path / "o"
        assert main(["fejer", "--group", groups["z"], "--N-list", "8",
                     "--r-list", "0.5,0.7,0.9", "--out", str(out)]) == 0
        rows = data_lines(out / "fejer_convergence.csv")
        assert [r.split(",")[1:3] for r in rows[1:]] == [
            ["8", "0.5"], ["8", "0.7"], ["8", "0.9"]]

    def test_mismatched_grid(self, tmp_path, groups):
        assert main(["fejer", "--group", groups["z"], "--N-list", "4,8",
                     "--r-list", "0.5,0.7,0.9", "--out", str(tmp_path)]) == 2

    def test_no_route_on_lattices_above_rank_one(self, tmp_path, groups):
        assert main(["fejer", "--group", groups["z2"], "--N-list", "4",
                     "--r-list", "0.5", "--out", str(tmp_path)]) == 2

    def test_grid_cap_is_checked_before_the_coefficients_exist(self, tmp_path, groups,
                                                               capsys):
        # 4 (N + 1) nodes exceed GRID_NODE_CAP; the N + 1 coefficients alone
        # would take tens of MB
        argv = ["fejer", "--group", groups["z"], "--N-list", str(10 ** 6),
                "--r-list", "0.9", "--out", str(tmp_path / "o")]
        tracemalloc.start()
        try:
            assert main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert "resource cap" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_free_group_node_cap_is_checked_before_the_coefficients_exist(
            self, tmp_path, groups, capsys):
        # the coefficients alone take ~70 MB at N = 10^6, the nodes more
        argv = ["fejer", "--group", groups["f2"], "--N-list", str(10 ** 6),
                "--r-list", "0.9", "--out", str(tmp_path / "o")]
        tracemalloc.start()
        try:
            assert main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert f"the cap of {GRID_NODE_CAP}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("C", ["nan", "-inf"])
    def test_non_finite_bound_exits_2(self, tmp_path, groups, C, capsys):
        out = tmp_path / "o"
        assert main(["fejer", "--group", groups["z"], "--N-list", "4",
                     "--r-list", "0.9", f"-C={C}", "--out", str(out)]) == 2
        assert "-C must be" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_bound_is_accepted(self, tmp_path, groups):
        out = tmp_path / "o"
        assert main(["fejer", "--group", groups["z"], "--N-list", "4",
                     "--r-list", "0.9", "-C", "inf", "--out", str(out)]) == 0
        assert "# C=inf" in (out / "fejer_convergence.csv").read_text()


class TestExtension:
    def test_residuals_decrease(self, tmp_path):
        out = tmp_path / "o"
        assert main(["extension", "--k-list", "2,4,8,16",
                     "--out", str(out)]) == 0
        rows = data_lines(out / "extension_convergence.csv")
        residuals = [float(r.split(",")[3]) for r in rows[1:]]
        assert len(residuals) == 4
        assert residuals == sorted(residuals, reverse=True)
        assert residuals[0] == pytest.approx(1 / 3)
        assert residuals[-1] == pytest.approx(1 / 17)
        assert all("lower-certified" in r for r in rows[1:])

    @pytest.mark.parametrize("k", ["-1", "-2"])
    def test_negative_tent_parameter_exits_2(self, tmp_path, k, capsys):
        out = tmp_path / "o"
        assert main(["extension", f"--k-list=2,{k}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: tent parameter k must be >= 0\n"
        assert not out.exists()

    def test_needs_quotient_structure(self, tmp_path, groups):
        assert main(["extension", "--group", groups["z2"], "--k-list", "2",
                     "--out", str(tmp_path)]) == 2


class TestReport:
    def test_grid_payload(self, tmp_path):
        out = tmp_path / "o"
        assert main(["report", "-R", "3", "--z-list", "0.5,0.3j",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "family_report.json").read_text())
        assert [p["z"] for p in payload["points"]] == [[0.5, 0.0], [0.0, 0.3]]
        assert all(p["R"] == 3 for p in payload["points"])
        assert payload["config"]["tol"] == "1e-06"
        for p in payload["points"]:
            assert p["coefficient_residual"] < 1e-10

    @pytest.mark.parametrize("z", ["nan", "inf", "1+nanj"])
    def test_non_finite_parameter_exits_2(self, tmp_path, z, capsys):
        out = tmp_path / "o"
        assert main(["report", "-R", "3", "--z-list", f"0.5,{z}",
                     "--out", str(out)]) == 2
        assert "|z| < 1" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_check_cap_exits_3_before_writing(self, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.setattr(families, "DENSE_CHECK_CAP", 1000)
        out = tmp_path / "o"
        assert main(["report", "-R", "4", "--out", str(out)]) == 3
        assert "resource cap" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_grid(self, tmp_path):
        assert main(["report", "--z-list", "banana",
                     "--out", str(tmp_path)]) == 2


class TestHarness:
    def test_rerun_is_byte_identical(self, tmp_path, groups):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["fejer", "--group", groups["z"], "--N-list", "4,16",
                "--r-list", "0.5,0.75"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "fejer_convergence.csv").read_bytes() == \
            (out2 / "fejer_convergence.csv").read_bytes()

    def test_env_override_lands_in_header(self, tmp_path, groups, monkeypatch):
        monkeypatch.setenv("MDLAB_TOL", "0.0001")
        out = tmp_path / "o"
        assert main(["ball", "--group", groups["z"], "-R", "1",
                     "--out", str(out)]) == 0
        assert "tol=0.0001" in (out / "ball.csv").read_text().splitlines()[0]

    def test_unknown_env_is_rejected(self, tmp_path, groups, monkeypatch):
        monkeypatch.setenv("MDLAB_TYPO", "1")
        assert main(["ball", "--group", groups["z"], "-R", "1",
                     "--out", str(tmp_path)]) == 2

    def test_header_lists_the_seven_config_fields(self, tmp_path, groups):
        out = tmp_path / "o"
        assert main(["ball", "--group", groups["z"], "-R", "1",
                     "--out", str(out)]) == 0
        header = (out / "ball.csv").read_text().splitlines()[0]
        assert header == ("# config tol=1e-06 max_iter=500 ball_cap=500000 "
                          "quad_factor=4 window_radius=1 success_residual=0.01 seed=0")

    def test_deleted_config_name_is_rejected(self, tmp_path, groups, monkeypatch):
        monkeypatch.setenv("MDLAB_CERT_TOL", "1e-9")
        assert main(["ball", "--group", groups["z"], "-R", "1",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "ball.csv").exists()

    def test_tol_flag_overrides_env(self, tmp_path, groups, monkeypatch):
        monkeypatch.setenv("MDLAB_TOL", "0.1")
        out = tmp_path / "o"
        assert main(["ball", "--group", groups["z"], "-R", "1", "--tol",
                     "0.001", "--out", str(out)]) == 0
        assert "tol=0.001" in (out / "ball.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize("env,flags,source", [
        ({}, ["--tol", "nan"], "--tol"),
        ({"MDLAB_TOL": "-1"}, [], "MDLAB_TOL"),
        ({"MDLAB_QUAD_FACTOR": "0"}, [], "MDLAB_QUAD_FACTOR"),
        ({"MDLAB_SUCCESS_RESIDUAL": "nan"}, [], "MDLAB_SUCCESS_RESIDUAL"),
        ({"MDLAB_BALL_CAP": "-5"}, [], "MDLAB_BALL_CAP"),
    ])
    def test_out_of_range_setting_exits_2_before_any_report(
            self, tmp_path, groups, monkeypatch, capsys, env, flags, source):
        for key, raw in env.items():
            monkeypatch.setenv(key, raw)
        assert main(["fejer", "--group", groups["z"], "--N-list", "4",
                     "--r-list", "0.5", "--out", str(tmp_path)] + flags) == 2
        assert f"bad value for {source}" in capsys.readouterr().err
        assert not (tmp_path / "fejer_convergence.csv").exists()

    def test_bad_flag_value(self, tmp_path, groups):
        assert main(["fejer", "--group", groups["z"], "--N-list", "x",
                     "--r-list", "0.9", "--out", str(tmp_path)]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2


def test_cli_import_leaves_scipy_sparse_to_the_tree_family():
    """Only the tree family loads scipy.sparse, at its first operator.

    Run in a fresh interpreter: this process has loaded it already, and a
    later module-level import anywhere under mdlab.cli would show here.
    """
    code = ("import sys\n"
            "import mdlab.cli\n"
            "assert 'scipy.sparse' not in sys.modules, 'loaded by import mdlab.cli'\n"
            "from mdlab.families import TreeFamily\n"
            "bounds = TreeFamily(2, 3).empirical_bounds([0.5])\n"
            "assert bounds.shape == (1,) and bounds[0] >= 1.0, bounds\n"
            "assert 'scipy.sparse' in sys.modules\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
