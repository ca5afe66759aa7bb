import argparse
import io
import json
import math
import os
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tlbraid import (RepShape, bell_representation, evaluate,
                     jones_representation, linalg, max_abs, parse, tl_params)
from tlbraid import cli
from tlbraid.cli import main, parse_angle
from tlbraid.errors import DomainError
from tlbraid.states import basis_state
from tlbraid.tla import involution_spec

from conftest import EDGE_FLOATS, random_state, signed_zero_state, sparse_state

S2 = 1.0 / math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out.strip() else None, err


def state_dict(v):
    """The JSON interchange object of a state, built with json's types."""
    return {"n_qubits": v.size.bit_length() - 1,
            "amplitudes": v.view(np.float64).reshape(-1, 2).tolist()}


def write_state(tmp_path, v, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(state_dict(v)))
    return f"@{path}"


class TestParseAngle:
    def test_forms(self):
        assert parse_angle("0.5") == 0.5
        assert abs(parse_angle("pi/8") - math.pi / 8) < 1e-15
        assert abs(parse_angle("-pi/6") + math.pi / 6) < 1e-15
        assert abs(parse_angle("pi+pi/8") - (math.pi + math.pi / 8)) < 1e-15
        assert abs(parse_angle("-pi/8") + math.pi / 8) < 1e-15
        assert abs(parse_angle("3*pi/4") - 3 * math.pi / 4) < 1e-15
        assert abs(parse_angle("(pi)/2") - math.pi / 2) < 1e-15

    def test_rejects_garbage(self):
        from tlbraid.errors import DomainError
        with pytest.raises(DomainError):
            parse_angle("import os")

    def test_rejects_power(self, capsys, tmp_path):
        from tlbraid.errors import DomainError
        with pytest.raises(DomainError):
            parse_angle("2**3")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": "2**3"}))
        code, _, err = run_cli(capsys, "generate", "ghz", "--n", "2",
                               "--config", str(cfg))
        assert code == 2 and "cannot parse angle" in err


class TestVerify:
    def test_tla_restricted_grid(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "tla", "--n", "2")
        assert code == 0
        assert obj["pass"] is True
        assert obj["reports"]["tla"]["pass"] is True

    def test_all_small_grid(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "all", "--n", "2",
                                "--s", "x,h")
        assert code == 0
        assert set(obj["reports"]) == {"tla", "braid", "ybe", "powers", "cnot"}
        assert obj["failures"] == []

    def test_domain_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "tla", "--theta", "pi/4")
        assert code == 2
        assert "DomainError" in err

    def test_powers_reports_m16(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "powers")
        assert code == 0
        rep = obj["reports"]["powers"]
        assert "16" in rep["note"]
        names = {r["relation_name"] for r in rep["relations"]}
        assert "b1^16_eq_I" in names and "R8_eq_I" in names

    def test_powers_without_a_root_of_unity(self, capsys):
        # A is no root of unity at theta = 0.3: the Bell identities still
        # run, so the report applies, and the note says what was skipped
        code, obj, _ = run_json(capsys, "verify", "powers", "--theta", "0.3")
        assert code == 0
        rep = obj["reports"]["powers"]
        assert rep["pass"] and "applicable" not in rep
        assert "Jones power identity skipped" in rep["note"]
        assert {r["relation_name"] for r in rep["relations"]} == {
            "R8_eq_I", "b1^8_eq_I", "b2^8_eq_I"}

    def test_ybe_defaults(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "ybe")
        assert code == 0
        assert obj["reports"]["ybe"]["tol"] == 1e-14

    def test_zero_tol_is_kept(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "tla", "--n", "1",
                                "--tol", "0")
        assert code in (0, 1)
        assert obj["reports"]["tla"]["tol"] == 0.0

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_exit_2(self, capsys, tol):
        code, _, err = run_cli(capsys, "verify", "tla", "--n", "1",
                               f"--tol={tol}")
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    def test_cnot_suite(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "cnot")
        assert code == 0
        names = {r["relation_name"] for r in obj["reports"]["cnot"]["relations"]}
        assert names == {"cnot_decomposition", "psi_equals_hadamards_on_ghz"}

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ybe")
        assert code == 0
        assert "[ybe] PASS" in out


class TestGenerate:
    def test_ghz3_amplitudes(self, capsys):
        code, obj, _ = run_json(capsys, "generate", "ghz", "--n", "3")
        assert code == 0
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        assert abs(amps[0] - (-S2)) < 1e-13
        assert abs(amps[7] - (-S2)) < 1e-13
        assert all(abs(a) < 1e-14 for a in amps[1:7])
        # single-qubit cuts are maximally entangled
        for rep in obj["entanglement"]:
            if len(rep["bipartition"]) == 1:
                assert abs(rep["entropy_bits"] - 1.0) < 1e-9

    def test_ghz_inverse(self, capsys):
        code, obj, _ = run_json(capsys, "generate", "ghz", "--n", "4",
                                "--inverse")
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        assert abs(amps[0] - (-S2)) < 1e-13
        assert abs(amps[15] - (-1j * S2)) < 1e-13

    def test_cluster_4_3(self, capsys):
        code, obj, _ = run_json(capsys, "generate", "cluster",
                                "--n", "4", "--k", "3")
        assert code == 0
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        nonzero = {i: a for i, a in enumerate(amps) if abs(a) > 1e-13}
        assert set(nonzero) == {0b0000, 0b0011, 0b1100, 0b1111}
        # the k..n vs 1..k-1 cut is reported first
        assert obj["entanglement"][0]["bipartition"] == [1, 2]

    def test_ghz_n1_hadamard_column(self, capsys):
        code, obj, _ = run_json(capsys, "generate", "ghz", "--n", "1")
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        assert abs(amps[0] - (-S2)) < 1e-13 and abs(amps[1] - (-S2)) < 1e-13

    def test_basis_superpose(self, capsys):
        code, obj, _ = run_json(capsys, "generate", "basis-superpose",
                                "--state", "010", "--k", "2")
        assert code == 0
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        nonzero = sorted(i for i, a in enumerate(amps) if abs(a) > 1e-13)
        assert nonzero == sorted([0b010, 0b001])

    def test_product_cuts_have_rank_one(self, capsys):
        # at k = n every cut of this state is a product; Schmidt ranks taken
        # from square roots of Gram eigenvalues read rounding noise as rank 2
        code, obj, _ = run_json(capsys, "generate", "basis-superpose",
                                "--n", "8", "--k", "8", "--state", "10000011",
                                "--theta=-0.23")
        assert code == 0
        for rep in obj["entanglement"]:
            assert rep["entropy_bits"] <= 1e-12
            assert rep["schmidt_rank"] == 1 and rep["is_product"]

    def test_missing_n_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "ghz")
        assert code == 2 and "needs --n" in err


class TestApply:
    def test_bell_word_psi(self, capsys):
        code, obj, _ = run_json(capsys, "apply", "b1 b2", "--rep", "bell",
                                "--state", "000")
        assert code == 0
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        expected = {0b000: 0.5, 0b011: 0.5, 0b101: 0.5, 0b110: 0.5}
        for i, a in enumerate(amps):
            assert abs(a - expected.get(i, 0.0)) < 1e-13

    def test_word_times_inverse(self, capsys):
        code, obj, _ = run_json(capsys, "apply", "b1 b1^-1", "--rep", "bell",
                                "--state", "01")
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        assert abs(amps[0b01] - 1.0) < 1e-13

    def test_jones_structured_n5(self, capsys):
        code, obj, _ = run_json(capsys, "apply", "b1 b2", "--rep", "jones",
                                "--state", "00000", "--k", "1")
        assert code == 0
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        nonzero = sorted(i for i, a in enumerate(amps) if abs(a) > 1e-13)
        assert nonzero == [0, 31]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "apply", "b9^x", "--rep", "bell",
                               "--state", "00")
        assert code == 2 and "BraidSyntaxError" in err

    def test_state_file_roundtrip(self, capsys, tmp_path):
        ref = write_state(tmp_path, basis_state("00"))
        code, obj, _ = run_json(capsys, "apply", "b1", "--rep", "bell",
                                "--state", ref)
        assert code == 0
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        assert abs(amps[0] - S2) < 1e-13 and abs(amps[3] - S2) < 1e-13

    @pytest.mark.parametrize("rep_name", ["bell", "jones"])
    @pytest.mark.parametrize("exponent", [1_000_001, 2 ** 60 + 1, 10 ** 400],
                             ids=["10^6+1", "2^60+1", "10^400"])
    def test_huge_exponent_keeps_the_norm_or_exits_2(self, capsys, tmp_path,
                                                     rng, rep_name, exponent):
        # binary powering of the jones pair drifts from unitarity with every
        # squaring; the bell factor is R^(e mod 8)
        text = f"b1^{exponent}"
        ref = write_state(tmp_path, random_state(rng, 3))
        code, out, err = run_cli(capsys, "apply", text, "--rep", rep_name,
                                 "--state", ref, "--format", "json")
        if rep_name == "jones" and exponent > 1_000_001:
            assert code == 2 and out == ""
            line, = err.splitlines()
            error = json.loads(line)
            assert error["error"] == "DomainError"
            assert text[:40] in error["message"]
        else:
            assert code == 0 and err == ""
            amps = np.array(json.loads(out)["state"]["amplitudes"])
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-9

    @pytest.mark.parametrize("rep_name", ["bell", "jones"])
    def test_beyond_the_dense_cap(self, capsys, tmp_path, rng, rep_name):
        # 14 qubits, v9 x |00000>, and a word that acts on qubits 1..9 only
        v9 = random_state(rng, 9)
        names = ["x", "h", "y", "z", "x", "i", "h", "y"] + ["i"] * 5
        if rep_name == "bell":
            text, flags = "b1 b8^-1 b4^3 b2", []
            small = bell_representation(9)
        else:
            text = "b1 b2^-1 b1^3 b2^5"
            flags = ["--k", "4", "--theta=-pi/8", "--phi", "pi/3",
                     "--s", ",".join(names)]
            small = jones_representation(tl_params(-math.pi / 8, math.pi / 3),
                                         RepShape(9, 4),
                                         involution_spec(names[:8]))
        ref = write_state(tmp_path, np.kron(v9, basis_state("00000")))
        code, obj, _ = run_json(capsys, "apply", text, "--rep", rep_name,
                                "--state", ref, *flags)
        assert code == 0
        out = np.array([complex(re, im)
                        for re, im in obj["state"]["amplitudes"]])
        word = parse(text, declared_strands=small.strands)
        expected = np.kron(evaluate(word, small) @ v9, basis_state("00000"))
        assert max_abs(out - expected) < 1e-12


class TestEntropy:
    def test_ghz3_measure_qubit1_separable(self, capsys, tmp_path):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = S2
        ref = write_state(tmp_path, ghz)
        code, obj, _ = run_json(capsys, "entropy", "--state", ref,
                                "--measure", "1")
        assert code == 0
        assert abs(obj["measurement"]["probability"] - 0.5) < 1e-12
        for rep in obj["entanglement"]:
            assert rep["entropy_bits"] <= 1e-9
            assert rep["is_product"]

    def test_psi_measure_qubit1_stays_entangled(self, capsys, tmp_path):
        psi = np.zeros(8, dtype=complex)
        for idx in (0b000, 0b011, 0b101, 0b110):
            psi[idx] = 0.5
        ref = write_state(tmp_path, psi)
        code, obj, _ = run_json(capsys, "entropy", "--state", ref,
                                "--measure", "1", "--outcome", "0")
        assert code == 0
        for rep in obj["entanglement"]:
            assert abs(rep["entropy_bits"] - 1.0) < 1e-9

    def test_product_state_zero_entropy(self, capsys):
        code, obj, _ = run_json(capsys, "entropy", "--state", "0101")
        assert code == 0
        for rep in obj["entanglement"]:
            assert rep["entropy_bits"] <= 1e-12

    def test_explicit_cut(self, capsys, tmp_path):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = S2
        ref = write_state(tmp_path, ghz)
        code, obj, _ = run_json(capsys, "entropy", "--state", ref,
                                "--cut", "2,3")
        assert code == 0
        assert obj["entanglement"][0]["bipartition"] == [2, 3]
        assert abs(obj["entanglement"][0]["entropy_bits"] - 1.0) < 1e-9


    @pytest.mark.parametrize("argv", [
        ["entropy", "--state", "@{c7}", "--measure", "2", "--outcome", "1"],
        ["generate", "basis-superpose", "--state", "010110", "--k", "3",
         "--s", "I,H,Y,X,Z", "--inverse"],
    ])
    def test_rank_one_cuts_read_zero_entropy(self, capsys, tmp_path, argv):
        c7 = tmp_path / "c7.json"
        run_cli(capsys, "generate", "cluster", "--n", "7", "--k", "4",
                "--format", "json", "--out", str(c7))
        code, obj, _ = run_json(capsys, *[a.format(c7=c7) for a in argv])
        assert code == 0
        reports = obj["entanglement"]
        assert any(r["schmidt_rank"] == 1 for r in reports)
        for r in reports:
            assert r["entropy_bits"] >= 0
            if r["schmidt_rank"] == 1:
                assert r["entropy_bits"] == 0.0

    def test_reads_back_generate_output(self, capsys, tmp_path):
        gen = tmp_path / "ghz.json"
        code, _, _ = run_cli(capsys, "generate", "ghz", "--n", "3",
                             "--format", "json", "--out", str(gen))
        assert code == 0
        code, obj, _ = run_json(capsys, "entropy", "--state", f"@{gen}")
        assert code == 0
        assert len(obj["entanglement"]) == 3
        for rep in obj["entanglement"]:
            assert abs(rep["entropy_bits"] - 1.0) < 1e-9

    @pytest.mark.parametrize("payload", [
        {"n_qubits": 1},
        {"amplitudes": [[1, 0], [0, 0]]},
        {"n_qubits": 1, "amplitudes": [1, 0]},
        {"state": {"n_qubits": "one", "amplitudes": [[1, 0], [0, 0]]}},
        [[1, 0], [0, 0]],
        {"n_qubits": 1, "amplitudes": [[10 ** 400, 0], [0, 0]]},
        {"n_qubits": 1, "amplitudes": [["1", 0], [0, 0]]},
        {"n_qubits": True, "amplitudes": [[1, 0], [0, 0]]},
        {"n_qubits": "1", "amplitudes": [[1, 0], [0, 0]]},
        {"n_qubits": 1.9, "amplitudes": [[1, 0], [0, 0]]},
    ])
    def test_malformed_state_file_exit_2(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "entropy", "--state", f"@{path}")
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("cut", [None, [2, 3]])
    def test_dense_cut_reports_build_no_index_array(self, rng, cut):
        # a dense state's cut is one copy of it in the cut matrix; an index
        # array of its support would add another half of the state
        v = random_state(rng, 16)
        tracemalloc.start()
        try:
            if cut is None:
                cli._cut_reports(v, None, 1e-9)
            else:
                cli.entanglement_report(v, cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * v.nbytes

    @pytest.mark.parametrize("cut", [[], ["--cut", "1"]])
    def test_all_zero_state_exit_2(self, capsys, tmp_path, cut):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"n_qubits": 2, "amplitudes":
                                    [[0.0, 0.0], [-0.0, 0.0], [0, 0], [0, -0.0]]}))
        code, out, err = run_cli(capsys, "entropy", "--state", f"@{path}", *cut)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        error = json.loads(err)
        assert error["error"] == "DomainError" and "norm" in error["message"]


class TestSizes:
    @pytest.mark.parametrize("argv", [
        ["verify", "tla", "--n", "-1"],
        ["verify", "tla", "--n", "0"],
        ["verify", "tla", "--n", "3", "--k", "7"],
        ["verify", "tla", "--k", "9"],
        ["verify", "tla", "--n", "30", "--s", "x"],
        ["verify", "tla", "--n", "13", "--s", "x"],
        ["generate", "ghz", "--n", "100000000000000000000"],
    ])
    def test_refused_with_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(err)["error"] in ("DomainError", "CapacityError")

    def test_oversized_grid_allocates_nothing(self, capsys):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "verify", "tla", "--n", "13", "--s", "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 10 * 2**20

    def test_grid_over_the_work_limit_allocates_nothing(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "verify", "tla", "--n", "7")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 10 * 2**20
        message = json.loads(err)["message"]
        assert "matrix work" in message
        assert all(flag in message for flag in ("--k", "--s", "--theta", "--phi"))

    def test_narrowed_grid_under_the_work_limit_runs(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "tla", "--n", "7", "--k", "1",
                                "--s", "x", "--theta", "pi/8", "--phi", "0")
        assert code == 0 and obj["pass"]


class TestSinglePath:
    @pytest.mark.parametrize("argv", [
        ["generate", "cluster", "--n", "4", "--k", "3"],
        ["apply", "b1 b2", "--rep", "bell", "--state", "000"],
        ["entropy", "--state", "0101", "--measure", "2", "--outcome", "1"],
    ])
    @pytest.mark.parametrize("fmt, unused", [("json", "_state_text"),
                                             ("text", "state_to_json")])
    def test_renders_only_the_requested_format(self, capsys, monkeypatch,
                                               argv, fmt, unused):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{unused} called in a {fmt} run")

        monkeypatch.setattr(cli, unused, refuse)
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0 and out


class TestJsonWriter:
    """The CLI streams a state's amplitudes, and its bytes still equal
    json.dumps(payload, indent=2) + "\\n"."""

    @staticmethod
    def check(capsys, v, reports=None):
        fields = {"kind": "k", "measurement": {"qubit": 1, "probability": 0.5}}
        cli._emit(cli.RunConfig(format="json"), fields, [], v, reports)
        want = dict(fields, state=state_dict(v))
        if reports is not None:
            want["entanglement"] = [r.to_json() for r in reports]
        out, want = capsys.readouterr().out, json.dumps(want, indent=2) + "\n"
        if out != want:     # a diff of the whole texts is too slow to show
            at = len(os.path.commonprefix([out, want]))
            context = slice(max(at - 60, 0), at + 60)
            pytest.fail(f"output differs from offset {at} of {len(want)}: "
                        f"{out[context]!r} != {want[context]!r}")

    def test_edge_floats(self, capsys):
        self.check(capsys, np.array(EDGE_FLOATS).view(np.complex128))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_random_dense_states(self, capsys, rng, n):
        v = random_state(rng, n)
        self.check(capsys, v, cli._cut_reports(v, 2, 1e-9))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 16, 17])
    def test_chunk_boundaries(self, capsys, monkeypatch, rng, chunk):
        monkeypatch.setattr(linalg, "_CHUNK_PAIRS", chunk)
        self.check(capsys, random_state(rng, 4))

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_signed_zero_pairs(self, capsys, rng, n):
        self.check(capsys, signed_zero_state(rng, n))

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_zero_runs_across_chunks(self, capsys, monkeypatch, rng, chunk):
        # pairs 0-15 dense, 16-31 zero: with 16 per chunk, a dense chunk
        # beside an all-zero one; with 1 or 3, zero runs cross chunks
        monkeypatch.setattr(linalg, "_CHUNK_PAIRS", chunk)
        v = sparse_state(rng, 6, [*range(16), 33, 40, 41, 47, 63])
        self.check(capsys, v)

    def test_no_state(self, capsys):
        cli._emit(cli.RunConfig(format="json"), {"pass": True}, [])
        assert capsys.readouterr().out == '{\n  "pass": true\n}\n'

    def test_non_finite_amplitude_is_refused(self, capsys):
        v = np.array([np.nan, 1.0], dtype=complex)
        with pytest.raises(DomainError):
            cli._emit(cli.RunConfig(format="json"), {}, [], v)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["generate", "ghz", "--n", "5", "--inverse"],
        ["generate", "cluster", "--n", "5", "--k", "3"],
        ["generate", "basis-superpose", "--state", "01101", "--k", "3",
         "--s", "h,y,x,z"],
        ["apply", "b1 b2^-1", "--rep", "jones", "--state", "0110", "--k", "2"],
        ["apply", "b1 b3", "--rep", "bell", "--state", "0110"],
        ["entropy", "--state", "@{c5}", "--measure", "2", "--outcome", "1"],
        ["entropy", "--state", "@{c5}", "--cut", "1,4"],
        ["verify", "ybe"],
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_commands_are_fixed_points(self, capsys, tmp_path, argv, to_file):
        c5 = tmp_path / "c5.json"
        run_cli(capsys, "generate", "cluster", "--n", "5", "--k", "3",
                "--format", "json", "--out", str(c5))
        argv = [a.format(c5=c5) for a in argv] + ["--format", "json"]
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, *argv,
                               *(["--out", str(target)] if to_file else []))
        assert code == 0
        if to_file:
            assert out == ""
            out = target.read_text()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_emit_memory_is_flat(self, tmp_path, rng):
        # json.dumps(indent=2) of the whole payload peaks at 116 MiB here
        v = random_state(rng, 18)
        cfg = cli.RunConfig(format="json", out=str(tmp_path / "v.json"))
        tracemalloc.start()
        try:
            cli._emit(cfg, {"kind": "k"}, [], v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_text_emit_memory_is_flat(self, tmp_path, rng):
        # the whole-string text render peaked at 65.4 MiB here
        v = random_state(rng, 18)
        cfg = cli.RunConfig(format="text", out=str(tmp_path / "v.txt"))
        tracemalloc.start()
        try:
            cli._emit(cfg, {}, ["# kind k"], v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


def per_amplitude_state_text(v):
    """The text state render as a loop over the amplitudes."""
    n = (len(v) - 1).bit_length()
    lines = [f"# {n}-qubit state, nonzero amplitudes:"]
    for idx in np.flatnonzero(np.abs(v) > 1e-14):
        z = v[idx]
        bits = f"{idx:0{n}b}" if n else ""
        lines.append(f"|{bits}>  {z.real:.12g}{z.imag:+.12g}i")
    return "\n".join(lines)


class TestStateText:
    """The text state render, streamed a chunk at a time through `cli._emit`,
    equals the per-amplitude loop at every chunk size."""

    @staticmethod
    def check(capsys, monkeypatch, v):
        want = per_amplitude_state_text(v) + "\n"
        for chunk in (1, 3, 16, linalg._CHUNK_PAIRS):
            monkeypatch.setattr(linalg, "_CHUNK_PAIRS", chunk)
            cli._emit(cli.RunConfig(format="text"), {}, [], v)
            assert capsys.readouterr().out == want, f"chunks of {chunk}"

    @pytest.mark.parametrize("amplitudes", [
        [1.0], [-1j], [complex(-0.0, -1.0)], [complex(0.6, -0.0)],
        [0.0, -1.0], [1e-14, 1.0000000000001e-14, -1.5e-14, 1e-14j],
        [complex(-0.0, 2e-14), complex(3e-14, -0.0), 9.9e-15 + 9.9e-15j,
         0.1 + 0.2j],
        [S2, 0, 0, -0.0, 0, 0, 0, -S2 + 1e-300j],
    ])
    def test_matches_the_per_amplitude_loop(self, capsys, monkeypatch,
                                            amplitudes):
        v = np.array(amplitudes, dtype=np.complex128)
        self.check(capsys, monkeypatch, v)

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_random_states(self, capsys, monkeypatch, rng, n):
        v = random_state(rng, n)
        v[rng.random(v.size) < 0.3] = 0
        self.check(capsys, monkeypatch, v)

    def test_nonzero_runs_straddle_zero_chunks(self, capsys, monkeypatch, rng):
        # runs across the boundaries of 3 and 16, all-zero chunks between
        v = sparse_state(rng, 7, [2, 3, 14, 15, 16, 17, 80, 95, 96, 127])
        self.check(capsys, monkeypatch, v)

    @pytest.mark.parametrize("amplitude", [0.0, -0.5j])
    def test_zero_qubit_state(self, capsys, monkeypatch, amplitude):
        self.check(capsys, monkeypatch, np.array([amplitude], dtype=complex))


class TestFlagContract:
    @pytest.mark.parametrize("argv, config", [
        (["verify", "powers", "--n", "30"], None),
        (["verify", "ybe", "--k", "40", "--s", "q"], None),
        (["verify", "cnot", "--phi", "pi/3"], None),
        (["verify", "tla", "--n", "2", "--a-sign", "-1"], None),
        (["generate", "ghz", "--n", "3", "--k", "3", "--s", "h,h"], None),
        (["generate", "ghz", "--n", "3"], {"k": 3}),
        (["generate", "cluster", "--n", "4", "--k", "3", "--s", "x,x,x"], None),
        (["apply", "b1", "--rep", "bell", "--state", "00", "--k", "1"], None),
        (["apply", "b1", "--state", "00", "--tol", "1e-9"], None),
        (["entropy", "--state", "01", "--n", "2"], None),
        (["entropy", "--state", "01"], {"theta": "pi/8"}),
        (["generate", "basis-superpose", "--state", "010", "--n", "4"], None),
        (["verify", "cnot", "--theta", "pi/6"], None),
    ])
    def test_unread_keys_exit_2(self, capsys, tmp_path, argv, config):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        error = json.loads(err)
        assert code == 2 and out == "" and error["error"] == "DomainError"
        assert "--" in error["message"]     # the key named as its flag

    def test_verify_all_reads_every_suites_keys(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "all", "--n", "2", "--k", "1",
                                "--s", "x", "--theta", "pi/8", "--phi", "pi/3",
                                "--tol", "1e-9")
        assert code == 0
        assert set(obj["reports"]) == {"tla", "braid", "ybe", "powers", "cnot"}

    def test_cnot_checks_at_pi_8_whatever_the_grid_theta(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "all", "--theta", "pi/6",
                                "--n", "2")
        assert code == 0
        assert obj["reports"]["cnot"]["pass"]

    def test_every_key_is_read_somewhere(self):
        assert set().union(*cli.READS.values()) | {"format", "out"} \
            == set(cli.RunConfig.__dataclass_fields__) \
            | {"state", "inverse", "cut", "measure", "outcome"}

    def test_every_flag_is_in_the_table(self):
        # besides --config and the row selector --rep, an optional flag that
        # is no key of READS would escape the unread check
        keys = set().union(*cli.READS.values()) | {"format", "out"}
        subcommands = next(a for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        for name, parser in subcommands.choices.items():
            for action in parser._actions:
                if action.option_strings and action.dest != "help":
                    assert action.dest in keys | {"config", "rep"}, \
                        (name, action.option_strings)

    def test_needs_name_the_missing_flag(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "generate", "cluster", "--n", "4")
        error = json.loads(err)
        assert code == 2 and out == "" and error["error"] == "DomainError"
        assert error["message"] == "generate cluster needs --k"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "k": 3}))
        assert run_cli(capsys, "generate", "cluster",
                       "--config", str(cfg))[0] == 0

    @pytest.mark.parametrize("argv, flag", [
        (["generate", "ghz", "--n", "3", "--state", "000"], "--state"),
        (["generate", "cluster", "--n", "4", "--k", "3", "--state", "0000"],
         "--state"),
        (["generate", "cluster", "--n", "4", "--k", "3", "--inverse"],
         "--inverse"),
        (["entropy", "--state", "01", "--outcome", "1"], "--outcome"),
        # a zero value is given too
        (["entropy", "--state", "01", "--outcome", "0"], "--outcome"),
    ], ids=["ghz_state", "cluster_state", "cluster_inverse", "outcome",
            "outcome_zero"])
    def test_unread_flags_exit_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "DomainError" and flag in error["message"]

    def test_flags_read_where_they_apply(self, capsys):
        assert run_cli(capsys, "generate", "ghz", "--n", "3", "--inverse")[0] == 0
        assert run_cli(capsys, "entropy", "--state", "01", "--measure", "2",
                       "--outcome", "1")[0] == 0
        assert run_cli(capsys, "generate", "basis-superpose", "--state", "01",
                       "--inverse")[0] == 0

    @pytest.mark.parametrize("argv", [
        ["generate", "basis-superpose", "--state", "000", "--k", "2",
         "--s", "x,x,x"],
        ["apply", "b1", "--state", "000", "--s", "x"],
    ])
    def test_involution_count_is_checked_where_the_chain_enters(self, capsys,
                                                                argv):
        code, out, err = run_cli(capsys, *argv)
        error = json.loads(err)
        assert code == 2 and out == ""
        assert error["error"] == "DimensionMismatchError"
        assert "involutions for n=3" in error["message"]

    def test_measuring_the_only_qubit_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--state", "0",
                                 "--measure", "1")
        assert code == 2 and out == ""
        assert "only qubit" in json.loads(err)["message"]


class TestConfigAndOutput:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": "pi/6", "format": "json", "n": 2}))
        code, obj, _ = run_json(capsys, "generate", "ghz",
                                "--config", str(cfg), "--n", "3")
        assert code == 0
        # flag --n 3 overrides file n=2; theta=pi/6 from file (b=0) gives a
        # single nonzero amplitude
        amps = [complex(re, im) for re, im in obj["state"]["amplitudes"]]
        assert len(amps) == 8
        nonzero = [i for i, a in enumerate(amps) if abs(a) > 1e-13]
        assert nonzero == [0]

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetaa": 1}))
        code, _, err = run_cli(capsys, "verify", "ybe", "--config", str(cfg))
        assert code == 2 and "unknown config keys" in err

    @pytest.mark.parametrize("argv, config", [
        (["generate", "ghz"], {"n": "5"}),
        (["generate", "ghz", "--n", "3"], {"theta": [1]}),
        (["generate", "basis-superpose", "--state", "0101"], {"s": 5}),
        (["generate", "ghz", "--n", "3"], {"a_sign": True}),
        (["generate", "ghz", "--n", "3"], {"theta": 10 ** 400}),
        (["verify", "ybe"], [1, 2]),
        (["verify", "ybe"], "pi/8"),
        (["verify", "ybe"], {"format": "xml"}),
        (["entropy", "--state", "0101", "--cut", "abc"], None),
        (["entropy", "--state", "01a1"], None),
        (["generate", "ghz", "--n", "3", "--theta", "1e308"], None),
        (["verify", "ybe"], {"tol": -1}),
        (["entropy", "--state", "00", "--cut", ""], None),
    ])
    def test_input_errors_exit_2(self, capsys, tmp_path, argv, config):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("flag", ["--config", "--state"])
    def test_deeply_nested_json_exit_2(self, capsys, tmp_path, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = (["verify", "ybe", "--config", str(path)] if flag == "--config"
                else ["entropy", "--state", f"@{path}"])
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    def test_non_object_config_message(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "verify", "ybe", "--config", str(cfg))
        assert code == 2 and "not hold a JSON object" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "verify", "ybe", "--format", "json",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        obj = json.loads(target.read_text())
        assert obj["pass"] is True

    def test_text_state_format(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "ghz", "--n", "2")
        assert code == 0
        assert "|00>" in out and "|11>" in out
        # 12-significant-digit amplitudes
        assert "-0.707106781187" in out


# ---- fuzz: argv that argparse accepts, plus --config files of any JSON ----

def _flag(name, values):
    """An optional `--name=value` flag, absent or drawn from `values`."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


_ANGLES = st.sampled_from(["pi/8", "-pi/8", "pi/6", "pi+pi/8", "3*pi/4",
                           "0.3", "-0.2", "pi/4", "0", "nan", "inf", "1e308"])
_BITS = st.text(alphabet="01", max_size=5) | st.text(alphabet="01a ,", max_size=4)
_INTS = st.integers(-1, 6).map(str)
_NAMES = st.lists(st.sampled_from(["i", "x", "y", "z", "h", "q", "", "cnot"]),
                  max_size=5).map(",".join)
_EXPONENTS = st.integers(-3, 3) | st.sampled_from([1_000_001, -(2 ** 70)])
_WORDS = st.lists(
    st.tuples(st.integers(0, 4), _EXPONENTS).map(
        lambda f: f"b{f[0]}^{f[1]}") | st.sampled_from(["b", "x1", "b1^"]),
    max_size=4).map(" ".join)


def _common():
    parts = [_flag("theta", _ANGLES), _flag("phi", _ANGLES), _flag("k", _INTS),
             _flag("s", _NAMES), _flag("a-sign", st.sampled_from(["1", "-1"])),
             _flag("tol", st.sampled_from(["1e-10", "0", "-1", "nan"])),
             _flag("format", st.sampled_from(["json", "text"]))]
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_COMMANDS = st.one_of(
    st.tuples(st.just(["verify"]), st.sampled_from(["ybe", "powers", "cnot"])
              .map(lambda s: [s]), _flag("n", st.integers(1, 5).map(str))),
    st.tuples(st.just(["generate"]),
              st.sampled_from(["ghz", "cluster", "basis-superpose"]).map(
                  lambda s: [s]),
              _flag("n", _INTS), _flag("state", _BITS),
              st.sampled_from([[], ["--inverse"]])),
    st.tuples(st.just(["entropy"]), _BITS.map(lambda b: [f"--state={b}"]),
              _flag("cut", st.text(alphabet="0123,a ", max_size=4)),
              _flag("measure", _INTS),
              _flag("outcome", st.sampled_from(["0", "1"]))),
    st.tuples(st.just(["apply"]), _WORDS.map(lambda w: [w]),
              _BITS.map(lambda b: [f"--state={b}"]),
              _flag("rep", st.sampled_from(["jones", "bell"])),
              _flag("n", _INTS)),
)
_ARGV = st.tuples(_COMMANDS, _common()).map(
    lambda c: [a for part in c[0] for a in part] + c[1])

# "out" would write files; every other RunConfig key is drawn, next to
# arbitrary ones
_KEYS = st.sampled_from(["theta", "phi", "n", "k", "s", "a_sign", "b_sign",
                         "tol", "seed", "format"]) | st.text(max_size=5)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 8)
    | st.sampled_from([2 ** 40, 10 ** 400]) | st.floats()
    | st.text(max_size=8) | _ANGLES | st.sampled_from(["pi/", "2**3"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=8)


def _must_refuse(argv) -> bool:
    """Flags the command does not read, an empty --cut, or a measurement of
    the only qubit (or of no qubit): exit 2 whatever else is drawn."""
    flags = dict(a.split("=", 1) for a in argv if a.startswith("--") and "=" in a)
    if argv[:2] in (["generate", "ghz"], ["generate", "cluster"]) \
            and "--state" in flags:
        return True
    if argv[:2] == ["generate", "cluster"] and "--inverse" in argv:
        return True
    if argv[0] == "entropy" and "--outcome" in flags and "--measure" not in flags:
        return True
    if argv[:2] == ["verify", "powers"] and "--n" in flags:
        return True
    if argv[:2] == ["verify", "cnot"] and "--theta" in flags:
        return True
    if argv[:2] in (["verify", "ybe"], ["generate", "ghz"]):
        return bool({"--k", "--s"} & set(flags))
    if argv[0] == "entropy" and not flags.get("--cut", "1").strip(", "):
        return True         # an empty qubit subset
    return (argv[0] == "entropy" and "--measure" in flags
            and len(flags["--state"].strip()) <= 1)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_ARGV, config=st.none() | _JSON.map(lambda v: [v]))
@example(argv=["verify", "powers", "--n=30"], config=None)
@example(argv=["verify", "ybe", "--k=40", "--s=q"], config=None)
@example(argv=["verify", "cnot", "--theta=pi/6"], config=None)
@example(argv=["generate", "ghz", "--n=3", "--k=3", "--s=h,h"], config=None)
@example(argv=["entropy", "--state=0", "--measure=1"], config=None)
@example(argv=["entropy", "--state=00", "--cut="], config=None)
@example(argv=["generate", "ghz", "--n=3", "--state=000"], config=None)
@example(argv=["generate", "cluster", "--n=4", "--k=3", "--inverse"], config=None)
@example(argv=["entropy", "--state=01", "--outcome=1"], config=None)
def test_fuzz_cli_exits_cleanly(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config[0]))
            argv = argv + ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert code == 2 or not _must_refuse(argv)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
    else:
        assert err.getvalue() == ""
