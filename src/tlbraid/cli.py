"""Command-line surface: verify / generate / apply / entropy.

Angles accept plain floats or simple pi expressions ("pi/8", "-pi/6",
"3*pi/4").  States are given as bit strings ("0101") or "@file" references
to the JSON interchange format or to a subcommand's JSON output.  Flags
override values from --config FILE (a JSON object with the same key names).
READS lists the keys and flags each command reads and NEEDS those a choice
requires; a key given but not read ("generate ghz does not read --k") or
needed but not given ("generate cluster needs --k") is refused.
Exit codes: 0 all checks passed, 1 a verification check failed, 2
usage/config/domain error.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import math
import operator
import sys
from dataclasses import dataclass
from typing import (Literal, Optional, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from . import verify as verify_mod
from .braidrep import bell_representation, jones_representation
from .entangle import entanglement_report, measure_qubit, nonzero_support
from .errors import DomainError, TLBraidError
from .linalg import _write_chunks, num_qubits, state_from_json, state_to_json
from .states import (apply_to_basis, basis_state, cluster_like_state,
                     ghz_state, parse_bits, structured_braid_op)
from .tla import RepShape, TLParams, default_involution_spec, tl_params
from . import braidlang

#: Longer angle text is refused before parsing: deep nesting exhausts the parser.
_ANGLE_MAX_CHARS = 200
_ANGLE_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv}


def _angle_value(node: ast.AST) -> float:
    """Value of a numeric literal, pi, + - * /, or unary minus; else raise."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_angle_value(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _ANGLE_OPS:
        return _ANGLE_OPS[type(node.op)](_angle_value(node.left),
                                         _angle_value(node.right))
    raise ValueError(f"{type(node).__name__} is not allowed in an angle")


def parse_angle(text: str) -> float:
    """Float literal or a simple arithmetic expression over pi."""
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) > _ANGLE_MAX_CHARS:
        raise DomainError(f"angle text longer than {_ANGLE_MAX_CHARS} characters")
    try:
        return _angle_value(ast.parse(text.strip(), mode="eval").body)
    except (SyntaxError, ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse angle {text!r}") from None


@dataclass
class RunConfig:
    """Effective run parameters; None means 'not set, use the default'."""

    theta: Optional[float] = None
    phi: Optional[float] = None
    n: Optional[int] = None
    k: Optional[int] = None
    s: Optional[list[str]] = None
    a_sign: int = 1
    b_sign: int = 1
    tol: Optional[float] = None
    format: Literal["text", "json"] = "text"
    out: Optional[str] = None

    def params(self) -> TLParams:
        """TLParams with defaults theta=pi/8, phi=0; validates the domain."""
        return tl_params(
            math.pi / 8 if self.theta is None else self.theta,
            0.0 if self.phi is None else self.phi,
            self.a_sign, self.b_sign,
        )


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DomainError(f"{path} nests JSON too deeply") from None


def _load_config(path: str) -> dict:
    values = _read_json(path)
    if not isinstance(values, dict):
        raise DomainError(f"config file {path} does not hold a JSON object")
    return values


def _fits(hint, value) -> bool:
    """Whether a decoded JSON value fits a RunConfig field annotation."""
    if get_origin(hint) is Literal:
        return value in get_args(hint)
    if get_origin(hint) is Union:
        return any(_fits(h, value) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(get_args(hint)[0], x)
                                               for x in value)
    if hint is type(None):
        return value is None
    if isinstance(value, bool):     # JSON true/false is no number
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


#: The RunConfig keys and own flags each command reads besides format and
#: out, by verify suite (from the suite table), generate kind and apply
#: representation, which are also the commands' choices; `verify all` reads
#: its suites' rows and `entropy --measure` adds a row.  NEEDS names the keys
#: a choice requires.
_PARAMS = {"theta", "phi", "a_sign", "b_sign"}
_KINDS = {
    "ghz": _PARAMS | {"n", "tol", "inverse"},
    "cluster": _PARAMS | {"n", "k", "tol"},
    "basis-superpose": _PARAMS | {"n", "k", "s", "tol", "state", "inverse"},
}
_REPS = {"jones": _PARAMS | {"n", "k", "s", "state"}, "bell": {"n", "state"}}
READS = {**{name: suite.reads for name, suite in verify_mod.SUITES.items()},
         **_KINDS, **_REPS, "entropy": {"tol", "state", "cut", "measure"},
         "entropy --measure": {"outcome"}}
NEEDS = {"ghz": {"n"}, "cluster": {"n", "k"}, "basis-superpose": {"state"}}
_KEYS = {"format", "out"}.union(*READS.values())


def _rows(args: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    """The command's name and its rows of READS."""
    if args.command == "verify":
        rows = tuple(verify_mod.SUITES) if args.suite == "all" else (args.suite,)
        return f"verify {args.suite}", rows
    if args.command == "generate":
        return f"generate {args.kind}", (args.kind,)
    if args.command == "apply":
        return f"apply --rep {args.rep}", (args.rep,)
    measured = () if args.measure is None else ("entropy --measure",)
    return "entropy", ("entropy", *measured)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    hints = get_type_hints(RunConfig)
    given = set()       # keys set to a value by the config file or a flag
    if getattr(args, "config", None):
        file_values = _load_config(args.config)
        unknown = set(file_values) - set(hints)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            if key in ("theta", "phi") and isinstance(value, str):
                value = parse_angle(value)
            if key == "s" and isinstance(value, str):
                value = [p.strip() for p in value.split(",")]
            if not _fits(hints[key], value):
                raise DomainError(
                    f"config key {key!r} needs {hints[key]}, got {value!r:.80}")
            setattr(cfg, key, value)
            if value is not None:
                given.add(key)
    for key, value in vars(args).items():
        if key in _KEYS and value is not None:
            if key in hints:
                setattr(cfg, key, value)
            given.add(key)
    name, rows = _rows(args)
    reads = {"format", "out"}.union(*(READS[r] for r in rows))
    needs = set().union(*(NEEDS.get(r, ()) for r in rows))
    for verb, keys in (("does not read", given - reads), ("needs", needs - given)):
        if keys:
            raise DomainError(f"{name} {verb} " + ", ".join(
                f"--{key.replace('_', '-')}" for key in sorted(keys)))
    cfg.params()    # reject out-of-domain theta at load time
    if cfg.tol is not None and not 0 <= cfg.tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {cfg.tol}")
    return cfg


def _state_text(n: int, start: int, chunk: np.ndarray) -> str:
    """The lines of an n-qubit state's chunk from index start, as text."""
    idx = np.flatnonzero(np.abs(chunk) > 1e-14)
    z = chunk[idx]
    line = f"|{{0:0{n}b}}>" if n else "|>"
    return "".join(map((line + "  {1:.12g}{2:+.12g}i\n").format,
                       (idx + start).tolist(), z.real.tolist(), z.imag.tolist()))


def _report_text(name: str, report) -> str:
    lines = [f"[{name}] {'PASS' if report.passed else 'FAIL'}"
             + (f"  ({report.note})" if report.note else "")]
    for c in report.checks:
        extra = f" x{c.instances}" if c.instances != 1 else ""
        lines.append(
            f"  {'ok ' if c.passed else 'FAIL'} {c.name:<28} "
            f"max residual {c.residual:.3e}{extra}"
        )
        if not c.passed and c.worst_at:
            lines.append(f"       worst at {c.worst_at}")
    return "\n".join(lines)


def _entanglement_text(reports) -> str:
    lines = ["# entanglement reports (keep-subset cuts):"]
    for r in reports:
        cut = ",".join(str(q) for q in r.bipartition)
        lines.append(
            f"  cut {{{cut}}}: entropy {r.entropy_bits:.12g} bits, "
            f"schmidt rank {r.schmidt_rank}, "
            f"{'product' if r.is_product else 'entangled'}"
        )
    return "\n".join(lines)


def _emit(cfg: RunConfig, fields: dict, header: list[str],
          v: Optional[np.ndarray] = None, reports=None) -> None:
    """Render one result in cfg.format only, to cfg.out or stdout: the JSON
    fields, or the text header lines, followed by the state and the cut
    reports when given."""
    with (open(cfg.out, "w") if cfg.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if cfg.format == "json":
            payload = dict(fields)
            if v is not None:
                payload["state"] = None     # its place; state_to_json fills it
            if reports is not None:
                payload["entanglement"] = [r.to_json() for r in reports]
            if v is None:
                fh.write(json.dumps(payload, indent=2) + "\n")
            else:
                state_to_json(fh, v, payload)
        else:
            fh.write("".join(line + "\n" for line in header))
            if v is not None:
                n = num_qubits(v)
                fh.write(f"# {n}-qubit state, nonzero amplitudes:\n")
                _write_chunks(fh, v, lambda start, z: _state_text(n, start, z))
            if reports is not None:
                fh.write(_entanglement_text(reports) + "\n")


def _load_state(spec: str) -> np.ndarray:
    if spec.startswith("@"):
        return state_from_json(_read_json(spec[1:]))
    return basis_state(parse_bits(spec))


def _cut_reports(v: np.ndarray, k: Optional[int], tol: float):
    """The {1..k-1} vs {k..n} cut (when k > 1) plus all single-qubit cuts."""
    n = num_qubits(v)
    cuts = [range(1, k)] if k is not None and 1 < k <= n else []
    if n > 1:
        cuts += [[q] for q in range(1, n + 1)]
    support = nonzero_support(v)
    return [entanglement_report(v, cut, tol=tol, support=support)
            for cut in cuts]


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    reports = verify_mod.run_suite(suite, **vars(cfg))
    failures = [
        dict(suite=name, **c.to_json())
        for name, rep in reports.items() for c in rep.failures()
    ]
    fields = {
        "suite": suite,
        "reports": {name: rep.to_json() for name, rep in reports.items()},
        "pass": not failures,
        "failures": failures,
    }
    _emit(cfg, fields, [_report_text(name, rep) for name, rep in reports.items()])
    return 0 if not failures else 1


def cmd_generate(cfg: RunConfig, kind: str, state: Optional[str],
                 inverse: bool) -> int:
    params = cfg.params()
    tol = cfg.tol if cfg.tol is not None else 1e-9
    if kind == "ghz":
        v = ghz_state(cfg.n, params=params, use_inverse=inverse)
        k = 1
    elif kind == "cluster":
        v = cluster_like_state(cfg.n, cfg.k, params=params)
        k = cfg.k
    else:       # basis-superpose
        bits = parse_bits(state)
        n = len(bits)
        if cfg.n is not None and cfg.n != n:
            raise DomainError(
                f"--n {cfg.n} disagrees with the {n} bits of --state")
        k = cfg.k if cfg.k is not None else 1
        shape = RepShape(n=n, k=k)
        op = structured_braid_op(shape, params=params, spec=cfg.s)
        v = apply_to_basis(op, bits, inverse=inverse)
    _emit(cfg, {"kind": kind}, [], v, _cut_reports(v, k, tol))
    return 0


def cmd_apply(cfg: RunConfig, word_text: str, state: str, rep_name: str) -> int:
    v = _load_state(state)
    n = num_qubits(v)
    if cfg.n is not None and cfg.n != n:
        raise DomainError(f"--n {cfg.n} disagrees with the {n}-qubit state")
    if rep_name == "jones":
        shape = RepShape(n=n, k=cfg.k if cfg.k is not None else 1)
        spec = default_involution_spec(shape) if cfg.s is None else cfg.s
        rep = jones_representation(cfg.params(), shape, spec)
        word = braidlang.parse(word_text, declared_strands=3)
    else:       # bell
        rep = bell_representation(n)
        word = braidlang.parse(word_text, declared_strands=n)
    out = braidlang.evaluate_on_state(word, rep, v)
    _emit(cfg, {"word": braidlang.render(word), "rep": rep_name}, [], out)
    return 0


def cmd_entropy(cfg: RunConfig, state: str, cut: Optional[str],
                measure: Optional[int], outcome: Optional[int]) -> int:
    v = _load_state(state)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    fields: dict = {}
    header = []
    if measure is not None:
        outcome = outcome or 0
        prob, v = measure_qubit(v, measure, outcome)
        fields["measurement"] = {
            "qubit": measure, "outcome": outcome, "probability": prob,
        }
        header.append(f"# measured qubit {measure} -> {outcome} "
                      f"with probability {prob:.12g}")
    if cut is not None:
        try:
            subset = [int(tok) for tok in cut.split(",") if tok.strip()]
        except ValueError:
            raise DomainError(f"--cut needs a comma list of qubits, got {cut!r}") from None
        reports = [entanglement_report(v, subset, tol=tol)]
    else:
        reports = _cut_reports(v, None, tol)
    _emit(cfg, fields, header, v, reports)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theta", type=parse_angle, default=None,
                        help="braiding angle (default pi/8); accepts pi expressions")
    common.add_argument("--phi", type=parse_angle, default=None,
                        help="phase angle of the flip block (default 0)")
    common.add_argument("--n", type=int, default=None, help="qubit count")
    common.add_argument("--k", type=int, default=None,
                        help="distinguished tensor slot (1-based)")
    common.add_argument("--s", type=lambda t: [p.strip() for p in t.split(",")],
                        default=None,
                        help="comma list of involutions for slots j != k, "
                             "e.g. I,X,X")
    common.add_argument("--a-sign", dest="a_sign", type=int, choices=(1, -1),
                        default=None)
    common.add_argument("--b-sign", dest="b_sign", type=int, choices=(1, -1),
                        default=None)
    common.add_argument("--tol", type=float, default=None,
                        help="override the suite tolerance")
    common.add_argument("--format", choices=("json", "text"), default=None,
                        help="output format (default text)")
    common.add_argument("--config", default=None,
                        help="JSON config file; flags override it")
    common.add_argument("--out", default=None, help="write output to a file")

    parser = argparse.ArgumentParser(
        prog="tlbraid",
        description="Temperley-Lieb braid representations: verification and "
                    "entangled-state generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a relation-check suite")
    p_verify.add_argument("suite", choices=[*verify_mod.SUITES, "all"])

    p_gen = sub.add_parser("generate", parents=[common],
                           help="generate GHZ / cluster-like / superposed states")
    p_gen.add_argument("kind", choices=list(_KINDS))
    p_gen.add_argument("--state", default=None,
                       help="basis bits for basis-superpose, e.g. 0101")
    p_gen.add_argument("--inverse", action="store_true", default=None,
                       help="apply the adjoint operator instead")

    p_apply = sub.add_parser("apply", parents=[common],
                             help="apply a braid word to a state")
    p_apply.add_argument("word", help='braid word, e.g. "b1 b2^-1"')
    p_apply.add_argument("--rep", choices=list(_REPS), default="jones")
    p_apply.add_argument("--state", required=True, help="BITS or @state.json")

    p_ent = sub.add_parser("entropy", parents=[common],
                           help="entanglement report, optionally post-measurement")
    p_ent.add_argument("--state", required=True, help="BITS or @state.json")
    p_ent.add_argument("--cut", default=None,
                       help="comma list of qubits to keep, e.g. 2,3")
    p_ent.add_argument("--measure", type=int, default=None,
                       help="measure this qubit before reporting")
    p_ent.add_argument("--outcome", type=int, choices=(0, 1), default=None,
                       help="the outcome to keep (default 0); needs --measure")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "generate":
            return cmd_generate(cfg, args.kind, args.state, bool(args.inverse))
        if args.command == "apply":
            return cmd_apply(cfg, args.word, args.state, args.rep)
        return cmd_entropy(cfg, args.state, args.cut, args.measure,
                           args.outcome)
    except (TLBraidError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
