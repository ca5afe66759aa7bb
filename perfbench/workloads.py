"""The benchmark's workloads: seeded inputs, the operations, output checks.

verify_grid, gen_write and state_read are lists of `tlbraid` command lines;
amp_monomial and amp_mixing are lists of library calls.  Each operation has a
check against `oracles`, run outside the timed region; a check returns None
when the output is right and a one-line reason when it is not.  `small=True`
shrinks every size so that `selftest.py` can run all of them in seconds.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import oracles

CLI_WORKLOADS = ("verify_grid", "gen_write", "state_read")
LIB_WORKLOADS = ("amp_monomial", "amp_mixing")
WORKLOADS = CLI_WORKLOADS + LIB_WORKLOADS
#: Qubits of the largest state each workload handles at full size (for
#: verify_grid, of its largest matrices).
#: The slice of the standard verification grid that verify_grid runs.
GRID_N = 4
STATE_QUBITS = {"verify_grid": GRID_N, "gen_write": 18, "state_read": 16,
                "amp_monomial": 23, "amp_mixing": 21}
#: Qubits of the state the `apply` ops of state_read act on.
APPLY_QUBITS = 9

#: Tolerance each verification suite's residuals must meet.
SUITE_TOLS = {"tla": 1e-10, "braid": 1e-10, "ybe": 1e-14, "powers": 1e-10,
              "cnot": 1e-12}
#: Relations per grid point in the two grid suites.
GRID_RELATIONS = {"tla": 10, "braid": 5}
#: The CLI prints 12 significant digits, so text amplitudes carry ~5e-13.
TEXT_TOL = 1e-11
ENTROPY_TOL = 1e-9
#: Amplitudes the CLI treats as zero when it prints a state as text.
TEXT_ZERO = 1e-14
#: Admissible angles given as the pi expressions the CLI parses.
ANGLES = (("pi/8", math.pi / 8), ("-pi/8", -math.pi / 8),
          ("pi/10", math.pi / 10), ("-pi/12", -math.pi / 12),
          ("pi+pi/8", math.pi + math.pi / 8), ("-pi/7", -math.pi / 7))

@dataclass
class CliOp:
    label: str
    argv: list[str]
    out: Path
    #: called with `out`; returns (failure or None, Schmidt-rank mismatches)
    check: Callable[[Path], tuple[Optional[str], int]]


@dataclass
class LibOp:
    label: str
    run: Callable[[], Any]
    #: called with what `run` returned; returns the failure or None
    check: Callable[[Any], Optional[str]]


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normalised dense random state, drawn in chunks to keep temporaries
    small next to the state itself."""
    v = np.empty(1 << n, dtype=np.complex128)
    step = 1 << 20
    for lo in range(0, v.size, step):
        m = min(step, v.size - lo)
        v[lo:lo + m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v /= math.sqrt(np.vdot(v, v).real)
    return v


def write_state(path: Path, v: np.ndarray) -> None:
    """The interchange format: {"n_qubits", "amplitudes": [[re, im], ...]}."""
    n = v.size.bit_length() - 1
    amps = v.view(np.float64).reshape(-1, 2).tolist()
    path.write_text(json.dumps({"n_qubits": n, "amplitudes": amps}))


def _word(rng: np.random.Generator, generators: int):
    """Five factors, two of them squared, so every seed costs the same."""
    mags = np.ones(5, dtype=int)
    mags[rng.choice(5, size=2, replace=False)] = 2
    factors = [(int(rng.integers(1, generators + 1)),
                int(m * rng.choice((-1, 1)))) for m in mags]
    text = " ".join(f"b{i}" if e == 1 else f"b{i}^{e}" for i, e in factors)
    return factors, text


def _dressing(rng: np.random.Generator, slots: int, h: int, y: int) -> list[str]:
    """Involution names: h Hadamards and y Ys at seeded slots, I/X/Z elsewhere."""
    names = list(rng.choice(list("IXZ"), size=slots))
    picked = rng.choice(slots, size=h + y, replace=False)
    for pos in picked[:h]:
        names[pos] = "H"
    for pos in picked[h:]:
        names[pos] = "Y"
    return [str(nm) for nm in names]


def _bitstring(rng: np.random.Generator, n: int) -> str:
    return "".join(str(b) for b in rng.integers(0, 2, size=n))


# --- reading the CLI's outputs ---------------------------------------------

_NUM = r"(?:\d+\.?\d*(?:e[+-]\d+)?|nan|inf)"
AMP_LINE = re.compile(rf"\|([01]+)>  ([+-]?{_NUM})([+-]{_NUM})i$")
_CUT_LINE = re.compile(r"^  cut \{([0-9,]*)\}: entropy (\S+) bits, "
                       r"schmidt rank (\d+), (product|entangled)$")
_PROB_LINE = re.compile(r"^# measured qubit (\d+) -> ([01]) with probability (\S+)$")


def parse_text(path: Path):
    """(amplitudes {index: z}, [(keep, entropy, rank, is_product)], prob)."""
    amps, cuts, prob = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("|"):
            m = AMP_LINE.match(line)
            if m is None:
                raise ValueError(f"bad amplitude line {line!r}")
            amps[int(m.group(1), 2)] = complex(float(m.group(2)),
                                               float(m.group(3)))
        elif line.startswith("  cut"):
            m = _CUT_LINE.match(line)
            if m is None:
                raise ValueError(f"bad cut line {line!r}")
            keep = tuple(int(q) for q in m.group(1).split(","))
            cuts.append((keep, float(m.group(2)), int(m.group(3)),
                         m.group(4) == "product"))
        elif line.startswith("# measured"):
            m = _PROB_LINE.match(line)
            if m is None:
                raise ValueError(f"bad measurement line {line!r}")
            prob = float(m.group(3))
    return amps, cuts, prob


def json_cuts(obj: dict):
    return [(tuple(r["bipartition"]), float(r["entropy_bits"]),
             int(r["schmidt_rank"]), bool(r["is_product"]))
            for r in obj["entanglement"]]


def json_state(obj: dict) -> np.ndarray:
    amps = np.asarray(obj["amplitudes"], dtype=np.float64)
    if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] != 1 << obj["n_qubits"]:
        raise ValueError(f"amplitudes of shape {amps.shape} for "
                         f"{obj['n_qubits']} qubits")
    return amps.view(np.complex128).reshape(-1)


# --- comparisons: each returns None or the reason for failing ---------------

def compare_dense(got: np.ndarray, want: np.ndarray, tol: float) -> Optional[str]:
    if got.shape != want.shape:
        return f"state of shape {got.shape}, want {want.shape}"
    err = float(np.max(np.abs(got - want)))
    return None if err <= tol else f"amplitudes off by {err:.3e} > {tol:.0e}"


def compare_text_state(got: dict, want: np.ndarray, tol: float) -> Optional[str]:
    idx = np.array(sorted(got), dtype=np.int64)
    want_idx = np.flatnonzero(np.abs(want) > TEXT_ZERO)
    if idx.shape != want_idx.shape or np.any(idx != want_idx):
        return f"{idx.size} printed amplitudes, want {want_idx.size} nonzero"
    vals = np.array([got[i] for i in idx.tolist()], dtype=np.complex128)
    err = float(np.max(np.abs(vals - want[idx]), initial=0.0))
    return None if err <= tol else f"printed amplitudes off by {err:.3e}"


def compare_cuts(got, want, state_failure: Optional[str]):
    """(first failure, Schmidt-rank mismatches) of the reported cuts.

    A rank that differs from the SVD rank is counted, not failed: the seed
    code squares the singular values into Gram eigenvalues, so noise of
    1e-17 there reads as a coefficient of 3e-9, above the 1e-9 rank
    tolerance.  The count keeps that defect visible without failing ops.
    """
    if state_failure:
        return state_failure, 0
    if [g[0] for g in got] != [w[0] for w in want]:
        return f"cuts {[g[0] for g in got]}, want {[w[0] for w in want]}", 0
    mismatches = 0
    for (keep, ent, rank, product), (_, went, wrank) in zip(got, want):
        if not abs(ent - went) <= ENTROPY_TOL:
            return f"cut {keep}: entropy {ent!r}, want {went!r}", 0
        if product != (rank == 1):
            return f"cut {keep}: product flag disagrees with rank {rank}", 0
        mismatches += rank != wrank
    return None, mismatches


def sparse_cuts(state: dict, n: int, k: int):
    """What `generate` reports: the {1..k-1} cut when k > 1, then every
    single-qubit cut."""
    keeps = ([tuple(range(1, k))] if k > 1 else []) + [(q,) for q in range(1, n + 1)]
    return [(keep, *oracles.sparse_cut_entropy(state, n, keep)) for keep in keeps]


def dense_single_cuts(v: np.ndarray):
    n = v.size.bit_length() - 1
    return [((q,), *oracles.cut_entropy(v, (q,))) for q in range(1, n + 1)]


# --- verify_grid ------------------------------------------------------------

def check_verify(path: Path, points: int) -> Optional[str]:
    out = json.loads(path.read_text())
    if out.get("pass") is not True or out.get("failures"):
        return "verify reports a failure"
    if set(out["reports"]) != set(SUITE_TOLS):
        return f"suites {sorted(out['reports'])}"
    for suite, tol in SUITE_TOLS.items():
        relations = out["reports"][suite]["relations"]
        if suite in GRID_RELATIONS and len(relations) != GRID_RELATIONS[suite]:
            return f"{suite}: {len(relations)} relations"
        for rel in relations:
            if not rel["max_residual"] <= tol or rel["pass"] is not True:
                return (f"{suite}/{rel['relation_name']}: residual "
                        f"{rel['max_residual']!r} > {tol:.0e}")
            if suite in GRID_RELATIONS and rel.get("instances") != points:
                return (f"{suite}/{rel['relation_name']}: {rel.get('instances')}"
                        f" instances, want {points}")
    return None


def verify_grid_ops(rng, workdir: Path, small: bool) -> list[CliOp]:
    """`verify all` on the n = GRID_N slice of the standard grid.

    The slice keeps every theta, phi, slot and involution assignment; the
    whole grid (n = 1..5) takes one 15 s pass, too long to repeat within a
    run, and a single pass spreads too much on a shared machine.  The grid
    is fixed by the paper's claim, so no input is drawn from the seed.
    """
    n = 2 if small else GRID_N
    out = workdir / "verify.json"
    argv = ["verify", "all", "--n", str(n), "--format", "json", "--out", str(out)]
    points = oracles.grid_points((n,))
    return [CliOp("verify_all", argv, out, lambda p: (check_verify(p, points), 0))]


# --- gen_write --------------------------------------------------------------

def check_generate_json(path: Path, n: int, k: int, want: dict, ghz: bool = False):
    out = json.loads(path.read_text())
    cuts = json_cuts(out)
    if ghz and not all(abs(c[1] - 1.0) <= ENTROPY_TOL for c in cuts):
        return "a GHZ single-qubit entropy is not 1 bit", 0
    return compare_cuts(
        cuts, sparse_cuts(want, n, k),
        compare_dense(json_state(out["state"]), oracles.densify(want, n), 1e-12))


def check_generate_text(path: Path, n: int, k: int, want: dict):
    amps, cuts, _ = parse_text(path)
    return compare_cuts(
        cuts, sparse_cuts(want, n, k),
        compare_text_state(amps, oracles.densify(want, n), TEXT_TOL))


def gen_write_ops(rng, workdir: Path, small: bool) -> list[CliOp]:
    n = 6 if small else STATE_QUBITS["gen_write"]
    kc = n // 2 + 1
    ops = []

    out = workdir / "ghz.json"
    ops.append(CliOp(
        "generate_ghz_json",
        ["generate", "ghz", "--n", str(n), "--format", "json", "--out", str(out)],
        out, lambda p: check_generate_json(p, n, 1, oracles.ghz_closed_form(n),
                                           ghz=True)))

    out = workdir / "cluster.txt"
    ops.append(CliOp(
        "generate_cluster_text",
        ["generate", "cluster", "--n", str(n), "--k", str(kc), "--out", str(out)],
        out, lambda p: check_generate_text(p, n, kc, oracles.cluster_state(n, kc))))

    # k stays <= 8: the {1..k-1} cut's reduced density is 2^(k-1) square
    bits = _bitstring(rng, n)
    k = int(rng.integers(2, min(8, n) + 1))
    expr, theta = ANGLES[rng.integers(len(ANGLES))]
    want = oracles.apply_b_sparse({int(bits, 2): 1.0 + 0j}, n, k, theta, 0.0,
                                  oracles.default_names(n, k))
    out = workdir / "superpose.json"
    ops.append(CliOp(
        "basis_superpose_json",
        ["generate", "basis-superpose", "--state", bits, "--k", str(k),
         f"--theta={expr}", "--format", "json", "--out", str(out)],
        out, lambda p, k=k, want=want: check_generate_json(p, n, k, want)))

    bits = _bitstring(rng, n)
    k = int(rng.integers(2, min(8, n) + 1))
    expr, theta = ANGLES[rng.integers(len(ANGLES))]
    phi = float(rng.uniform(0.0, 2 * math.pi))
    names = _dressing(rng, n - 1, h=2 if small else 3, y=2 if small else 3)
    want = oracles.apply_b_sparse({int(bits, 2): 1.0 + 0j}, n, k, theta, phi,
                                  names)
    out = workdir / "superpose_dressed.txt"
    ops.append(CliOp(
        "basis_superpose_dressed_text",
        ["generate", "basis-superpose", "--state", bits, "--k", str(k),
         f"--theta={expr}", f"--phi={phi!r}", "--s", ",".join(names),
         "--out", str(out)],
        out, lambda p, k=k, want=want: check_generate_text(p, n, k, want)))
    return ops


# --- state_read -------------------------------------------------------------

def check_entropy_text(path: Path, v: np.ndarray, prob: Optional[float] = None):
    amps, cuts, got_prob = parse_text(path)
    if prob is not None and not (got_prob is not None and abs(got_prob - prob) <= 1e-9):
        return f"probability {got_prob!r}, want {prob!r}", 0
    return compare_cuts(cuts, dense_single_cuts(v),
                        compare_text_state(amps, v, TEXT_TOL))


def check_entropy_cut_json(path: Path, v: np.ndarray, keep):
    out = json.loads(path.read_text())
    return compare_cuts(json_cuts(out), [(tuple(keep), *oracles.cut_entropy(v, keep))],
                        compare_dense(json_state(out["state"]), v, 1e-12))


def check_apply_json(path: Path, word: str, want: np.ndarray) -> Optional[str]:
    out = json.loads(path.read_text())
    if out.get("word") != word:
        return f"word {out.get('word')!r}, want {word!r}"
    return compare_dense(json_state(out["state"]), want, 1e-9)


def state_read_ops(rng, workdir: Path, small: bool) -> list[CliOp]:
    n, m = (6, 4) if small else (STATE_QUBITS["state_read"], APPLY_QUBITS)
    big, little = random_state(rng, n), random_state(rng, m)
    big_path, little_path = workdir / "dense_big.json", workdir / "dense_small.json"
    write_state(big_path, big)
    write_state(little_path, little)
    ops = []

    out = workdir / "entropy.txt"
    ops.append(CliOp("entropy_text",
                     ["entropy", "--state", f"@{big_path}", "--out", str(out)],
                     out, lambda p: check_entropy_text(p, big)))

    keep = list(range(1, n // 2 + 1))
    out = workdir / "entropy_cut.json"
    ops.append(CliOp(
        "entropy_cut_json",
        ["entropy", "--state", f"@{big_path}", "--cut", ",".join(map(str, keep)),
         "--format", "json", "--out", str(out)],
        out, lambda p: check_entropy_cut_json(p, big, keep)))

    q, outcome = int(rng.integers(1, n + 1)), int(rng.integers(0, 2))
    prob, post = oracles.measure(big, q, outcome)
    out = workdir / "entropy_measure.txt"
    ops.append(CliOp(
        "entropy_measure_text",
        ["entropy", "--state", f"@{big_path}", "--measure", str(q),
         "--outcome", str(outcome), "--out", str(out)],
        out, lambda p: check_entropy_text(p, post, prob)))

    factors, word = _word(rng, 2)
    k = int(rng.integers(1, m + 1))
    theta, phi = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0, 2 * math.pi))
    names = [str(s) for s in rng.choice(list("IXYZH"), size=m - 1)]
    want_jones = oracles.apply_jones_word(little, factors, k, theta, phi, names)
    out = workdir / "apply_jones.json"
    ops.append(CliOp(
        "apply_jones_json",
        ["apply", word, "--rep", "jones", "--state", f"@{little_path}",
         "--k", str(k), f"--theta={theta!r}", f"--phi={phi!r}",
         "--s", ",".join(names), "--format", "json", "--out", str(out)],
        out, lambda p, word=word: (check_apply_json(p, word, want_jones), 0)))

    factors, word = _word(rng, m - 1)
    want_bell = oracles.apply_bell_word(little, factors)
    out = workdir / "apply_bell.json"
    ops.append(CliOp(
        "apply_bell_json",
        ["apply", word, "--rep", "bell", "--state", f"@{little_path}",
         "--format", "json", "--out", str(out)],
        out, lambda p, word=word: (check_apply_json(p, word, want_bell), 0)))
    return ops


def cli_ops(workload: str, seed: int, workdir: Path,
            small: bool = False) -> list[CliOp]:
    """Write the workload's input files into `workdir`; return its ops."""
    build = {"verify_grid": verify_grid_ops, "gen_write": gen_write_ops,
             "state_read": state_read_ops}[workload]
    return build(rng_for(workload, seed), workdir, small)


def roundtrip_ops(workdir: Path) -> list[CliOp]:
    """Feed `generate --format json` output back into `entropy --state @`.

    A known defect makes the second command fail today; the benchmark only
    counts whether the pair succeeds, so fixing it changes no timed work.
    """
    gen, ent = workdir / "roundtrip_gen.json", workdir / "roundtrip_ent.json"
    return [
        CliOp("roundtrip_generate",
              ["generate", "ghz", "--n", "3", "--format", "json", "--out", str(gen)],
              gen, lambda p: (None, 0)),
        CliOp("roundtrip_entropy",
              ["entropy", "--state", f"@{gen}", "--format", "json", "--out", str(ent)],
              ent, lambda p: (None, 0)),
    ]


# --- amp_monomial / amp_mixing: library calls -------------------------------

SAMPLES = 2048


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| in slices, so no temporary of the state's size is made;
    NaN anywhere makes the result NaN, which fails every `<=` test."""
    step = 1 << 20
    return float(np.max([np.max(np.abs(a[lo:lo + step] - b[lo:lo + step]))
                         for lo in range(0, a.size, step)]))


def sparse_diff(v: np.ndarray, want: dict) -> float:
    """max |v - want| for a few-term `want`, in slices."""
    step = 1 << 20
    worst = []
    for lo in range(0, v.size, step):
        seg = v[lo:lo + step].copy()
        for idx, amp in want.items():
            if lo <= idx < lo + step:
                seg[idx - lo] -= amp
        worst.append(np.max(np.abs(seg)))
    return float(np.max(worst))


def check_forward(out, v, idxs, k, theta, phi, names) -> Optional[str]:
    """Sampled entries against the oracle, plus the norm of the whole state."""
    if out.shape != v.shape:
        return f"result of shape {out.shape}"
    want = oracles.b_amplitudes(v, idxs, k, theta, phi, names)
    err = float(np.max(np.abs(out[idxs] - want)))
    if not err <= 1e-12:
        return f"sampled amplitudes off by {err:.3e}"
    drift = abs(math.sqrt(np.vdot(out, out).real) - 1.0)
    return None if drift <= 1e-12 else f"norm drifted by {drift:.3e}"


def lib_ops(workload: str, seed: int, small: bool = False):
    """The ops of a library workload.

    Results pass from each forward op to its inverse through `held`; the
    inverse op drops them once checked, so at most one pair is alive.
    """
    from tlbraid import states, tla

    rng = rng_for(workload, seed)
    if workload == "amp_monomial":
        n = 9 if small else STATE_QUBITS[workload]
        ks = (1, n // 2 + 1, n)
    else:
        n = 8 if small else STATE_QUBITS[workload]
        ks = (2, n // 2 + 1)
    v = random_state(rng, n)
    theta = float(rng.uniform(-0.5, 0.5) + math.pi * rng.integers(0, 2))
    phi = float(rng.uniform(0, 2 * math.pi))
    idxs = np.unique(np.concatenate(
        [[0, v.size - 1], rng.integers(0, v.size, size=SAMPLES)]))
    held: dict = {}
    ops = []

    for k in ks:
        if workload == "amp_monomial":
            names = [str(s) for s in rng.choice(list("IXYZ"), size=n - 1)]
        else:
            names = _dressing(rng, n - 1, h=int(rng.integers(1, 4)), y=1)

        def forward(k=k, names=names):
            op = states.structured_braid_op(
                tla.RepShape(n=n, k=k), params=tla.tl_params(theta, phi),
                spec=tla.involution_spec(names))
            held["op"] = op
            held["out"] = states.apply_structured(op, v)
            return held["out"]

        def inverse():
            return states.apply_structured(held.pop("op"), held["out"],
                                           inverse=True)

        def check_inverse(back):
            del held["out"]
            err = max_abs_diff(back, v)
            return None if err <= 1e-12 else f"inverse leaves error {err:.3e}"

        ops.append(LibOp(f"forward_k{k}", forward,
                         lambda out, k=k, names=names: check_forward(
                             out, v, idxs, k, theta, phi, names)))
        ops.append(LibOp(f"inverse_k{k}", inverse, check_inverse))

    if workload == "amp_monomial":
        kc = n // 2 + 1
        ghz = oracles.ghz_closed_form(n)
        cluster = oracles.cluster_state(n, kc)
        ops.append(LibOp(
            "ghz_state", lambda: states.ghz_state(n),
            lambda out: (None if sparse_diff(out, ghz) <= 1e-12
                         else "GHZ differs from its closed form")))
        ops.append(LibOp(
            "cluster_like_state", lambda: states.cluster_like_state(n, kc),
            lambda out: (None if sparse_diff(out, cluster) <= 1e-12
                         else "cluster-like state differs from the oracle")))
    return ops
