"""Command-line front door: reproducible experiments with manifests.

Exit codes: 0 when every check passes, 1 on a scientific failure (a failed
certificate or verdict), 2 on usage or resource-cap problems.  Every command
writes its outputs plus a ``manifest.json`` recording the command, resolved
parameters, master seed, code version, timestamps, and SHA-256 digests of
the outputs.  Output files themselves contain no timestamps, so rerunning
with the same parameters reproduces them byte for byte.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .coupling import couple_sequential, domination_margin, pair_to_json
from .errors import CapExceeded
from .estimators import (
    decay_fit,
    meanfield_verdict,
    psi_curve,
    tail_bound_verdict,
)
from .exact import (
    certificate_to_json,
    conditional_measure,
    exact_magnetization,
    fkg_sweep,
    magnetization_bound,
    make_conditional_oracle,
    max_conditional_pivotal,
    product_measure,
    psi_table,
    strassen_dominates,
    verify_certificate,
)
from .exploration import CLUSTER_FIRST
from .lattices import LatticeSpec, build_ball

LATTICES = {
    "z1": LatticeSpec.hypercubic(1),
    "z2": LatticeSpec.hypercubic(2),
    "z3": LatticeSpec.hypercubic(3),
    "tri": LatticeSpec.triangular(),
    "tree3": LatticeSpec.regular_tree(3),
}

DEFAULT_P_GRID = "0.2,0.5,0.8"
DEFAULT_H_GRID = "0.1,0.5,1.0"

# decay fits n = 20, 30, ..., n_max, and decay_fit needs five points.
DECAY_N_MAX_MIN = 60

# namespace entries that are not flag values
_NOT_FLAGS = ("command", "func", "config")


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _float_grid(text):
    """argparse type of a comma-separated grid flag.  It returns the text
    unchanged, so manifests record the string and older ones replay, once it
    holds at least one float and nothing else."""
    try:
        values = _float_list(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float grid: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("the grid holds no value")
    return text


def _int_at_least(minimum, maximum=math.inf):
    """argparse type of an integer flag in [``minimum``, ``maximum``]."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}")
        return value
    return parse


def _probability(text):
    """argparse type of a flag that is a probability."""
    if not 0.0 <= float(text) <= 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return float(text)


def _write_json(path, payload):
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".12g") if isinstance(v, float) else v for v in row])


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _command(fn):
    """Subcommand decorator.  The command gets ``out(name)``, the path of an
    output file under ``--out``; afterwards manifest.json records the parsed
    flag values, timestamps and the SHA-256 of every such file.  ``--out`` is
    made on the first ``out`` call, so a command that fails before writing
    leaves no directory behind."""
    @functools.wraps(fn)
    def run(ns):
        args = {k: v for k, v in vars(ns).items() if k not in _NOT_FLAGS + ("out",)}
        started = datetime.now(timezone.utc).isoformat()
        names = []

        def out(name):
            if not names:
                os.makedirs(ns.out, exist_ok=True)
            names.append(name)
            return os.path.join(ns.out, name)

        code = fn(ns, out)
        _write_json(os.path.join(ns.out, "manifest.json"), {
            "command": ns.command, "args": args, "seed": args.get("seed"),
            "version": __version__, "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": {n: _digest(os.path.join(ns.out, n)) for n in names},
        })
        return code
    return run


@_command
def cmd_verify_domination(ns, out):
    """Exact certification suite on one small ball over a (p, h) grid."""
    ball = build_ball(LATTICES[ns.lattice], ns.radius)
    points = []
    failures = []
    for p in _float_list(ns.p):
        for h in _float_list(ns.h):
            eps = max_conditional_pivotal(ball, CLUSTER_FIRST, p, h)
            m_hat = magnetization_bound(ball, p, h)
            cond = conditional_measure(ball, p, h)
            oracle = make_conditional_oracle(ball, CLUSTER_FIRST, p, h)
            margin = domination_margin(ball, CLUSTER_FIRST, oracle, cond)
            q = ns.q_override if ns.q_override is not None else p * (1.0 - eps)
            mu = product_measure(ball, q)
            cert = strassen_dominates(mu, cond)
            cert_ok = cert.dominates and verify_certificate(cert, mu, cond)
            fkg_rows = fkg_sweep(ball, CLUSTER_FIRST, p, h)
            fkg_ok = all(r["lhs"] <= r["rhs"] + 1e-12 for r in fkg_rows)
            margin_ok = margin >= p * (1.0 - eps) - 1e-12
            eps_ok = eps <= m_hat + 1e-12
            point = {
                "p": p, "h": h, "q": q,
                "max_conditional_pivotal": eps,
                "magnetization_bound": m_hat,
                "conditional_open_min": margin,
                "dominates": bool(cert.dominates),
                "certificate": certificate_to_json(cert),
                "fkg_steps": len(fkg_rows),
                "checks": {"certificate": cert_ok, "fkg": fkg_ok,
                           "margin": margin_ok, "pivotal_vs_bound": eps_ok},
            }
            points.append(point)
            if not (cert_ok and fkg_ok and margin_ok and eps_ok):
                failures.append({"p": p, "h": h, "point": point})
    report = {
        "ball": {"lattice": ns.lattice, "radius": ns.radius,
                 "n_vertices": ball.n_vertices, "n_edges": ball.n_edges},
        "q_override": ns.q_override,
        "points": points,
        "failures": failures,
        "ok": not failures,
    }
    _write_json(out("domination_report.json"), report)
    return 0 if not failures else 1


@_command
def cmd_verify_tail_bound(ns, out):
    """Tail inequality checked exactly on a small ball over a (p, h) grid."""
    ball = build_ball(LATTICES[ns.lattice], ns.radius)
    h_grid = _float_list(ns.h)
    psi = [(p, psi_table(ball, p)) for p in _float_list(ns.p)]
    rows = []
    mags = []
    for p, psi_p in psi:
        for h in h_grid:
            m = exact_magnetization(ball, p, h)
            mags.append((p, h, m))
            q = p * (1.0 - m)
            for (n, lhs), (_, at_p) in zip(psi_table(ball, q), psi_p):
                rhs = at_p * math.exp(-h * n) / (1.0 - m)
                ok = lhs <= rhs + 1e-12
                rows.append([p, h, n, lhs, rhs, rhs - lhs, "PASS" if ok else "FAIL"])
    _write_csv(out("psi_exact.csv"), ["p", "n", "psi"],
               [[p, n, value] for p, table in psi for n, value in table])
    _write_csv(out("magnetization_exact.csv"), ["p", "h", "m"], mags)
    _write_csv(out("tail_bound.csv"), ["p", "h", "n", "lhs", "rhs", "slack", "verdict"],
               rows)
    return 1 if any(row[-1] == "FAIL" for row in rows) else 0


@_command
def cmd_verify_tail_bound_mc(ns, out):
    """Tail inequality checked by Monte Carlo on the infinite lattice."""
    p, h = ns.p, ns.h
    report = tail_bound_verdict(LATTICES[ns.lattice], p, h, range(10, ns.n_max + 1, 10),
                                ns.samples, ns.seed, threads=ns.threads)
    rows = [[p, h, r["n"], r["lhs"], r["lhs_hi"], r["psi_p"], r["rhs"], r["verdict"]]
            for r in report.rows]
    _write_csv(out("tail_bound.csv"),
               ["p", "h", "n", "lhs", "lhs_hi", "psi_p", "rhs", "verdict"], rows)
    return 1 if report.failed else 0


@_command
def cmd_decay(ns, out):
    """Tail curve plus exponential-decay fit."""
    n_list = list(range(20, ns.n_max + 1, 10))
    curve = psi_curve(LATTICES[ns.lattice], ns.p, n_list, ns.samples, ns.seed,
                      threads=ns.threads)
    fit = decay_fit([(n, curve[n]) for n in n_list])
    rows = [[n, curve[n].point, curve[n].lo, curve[n].hi, curve[n].samples]
            for n in n_list]
    _write_csv(out("decay_curve.csv"),
               ["n", "psi", "lo", "hi", "samples"], rows)
    _write_json(out("decay_fit.json"), {
        "p": ns.p, "rate": fit.rate, "prefactor": fit.prefactor,
        "r_squared": fit.r_squared, "rate_se": fit.rate_se,
        "rate_lo": fit.rate_lo, "rate_hi": fit.rate_hi,
        "points_used": fit.points_used,
    })
    return 0


@_command
def cmd_meanfield(ns, out):
    """Reduced-parameter check against the square lattice threshold."""
    rows = meanfield_verdict(LATTICES[ns.lattice], _float_list(ns.p), ns.h, ns.samples,
                             ns.seed, threads=ns.threads)
    table = [[r["p"], r["m_lo"], r["m_hi"], r["q_upper"], r["q_lower"],
              r["truncated_fraction"], r["verdict"]] for r in rows]
    _write_csv(out("meanfield.csv"),
               ["p", "m_lo", "m_hi", "q_upper", "q_lower", "truncated_fraction",
                "verdict"], table)
    return 1 if any(r["verdict"] == "FAIL" for r in rows) else 0


@_command
def cmd_couple_demo(ns, out):
    """One audited coupled run with the exact conditional oracle."""
    ball = build_ball(LATTICES[ns.lattice], ns.radius)
    p, h = ns.p, ns.h
    m = exact_magnetization(ball, p, h)
    q = ns.q_override if ns.q_override is not None else p * (1.0 - m)
    oracle = make_conditional_oracle(ball, CLUSTER_FIRST, p, h)
    pair = couple_sequential(ball, CLUSTER_FIRST, q, oracle, ns.seed)
    payload = pair_to_json(pair)
    payload.update({"p": p, "h": h, "q": q, "magnetization": m})
    _write_json(out("couple_demo.json"), payload)
    return 0


def _add_command(subs, name, func, help, threads=False, lattices=tuple(LATTICES)):
    """Subparser for ``name`` with the flags every command shares, and
    ``--threads`` when the command grows clusters by Monte Carlo.
    ``--lattice`` takes one of ``lattices`` and defaults to the first."""
    sub = subs.add_parser(name, help=help, allow_abbrev=False)
    sub.set_defaults(func=func)
    sub.add_argument("--lattice", choices=lattices, default=lattices[0])
    sub.add_argument("--seed", type=_int_at_least(0, 2**64 - 1), default=0,
                     help="64-bit master seed for all randomness")
    sub.add_argument("--out", default="percolab-out",
                     help="output directory for CSV/JSON artifacts")
    if threads:
        sub.add_argument("--threads", type=_int_at_least(1), default=1,
                         help="worker pool size; results do not depend on it")
    sub.add_argument("--config", default=None,
                     help="JSON file of flag values (a manifest works too)")
    return sub


def build_parser():
    parser = argparse.ArgumentParser(
        prog="percolab",
        description="Percolation laboratory: exact certificates and Monte Carlo checks")
    subs = parser.add_subparsers(dest="command", required=True)

    s = _add_command(subs, "verify-domination", cmd_verify_domination,
                     "exact domination certificates on a small ball")
    s.add_argument("--radius", type=int, default=2)
    s.add_argument("--p", type=_float_grid, default=DEFAULT_P_GRID)
    s.add_argument("--h", type=_float_grid, default=DEFAULT_H_GRID)
    s.add_argument("--q-override", dest="q_override", type=_probability, default=None,
                   help="test hook: replace q = p(1-eps*) in the certificate")

    s = _add_command(subs, "verify-tail-bound", cmd_verify_tail_bound,
                     "tail inequality, exact on a small ball")
    s.add_argument("--radius", type=int, default=2)
    s.add_argument("--p", type=_float_grid, default=DEFAULT_P_GRID)
    s.add_argument("--h", type=_float_grid, default=DEFAULT_H_GRID)

    s = _add_command(subs, "verify-tail-bound-mc", cmd_verify_tail_bound_mc,
                     "tail inequality, Monte Carlo on the infinite lattice",
                     threads=True)
    s.add_argument("--p", type=float, default=0.45)
    s.add_argument("--h", type=float, default=0.1)
    # it checks n = 10, 20, ..., n_max
    s.add_argument("--n-max", dest="n_max", type=_int_at_least(10), default=100)
    s.add_argument("--samples", type=_int_at_least(2), default=10_000)

    s = _add_command(subs, "decay", cmd_decay, "tail curve and exponential fit",
                     threads=True)
    # on z1 the default p and samples see too few large clusters to fit
    s.set_defaults(lattice="z2")
    s.add_argument("--p", type=float, default=0.4)
    s.add_argument("--n-max", dest="n_max", type=_int_at_least(DECAY_N_MAX_MIN),
                   default=120)
    s.add_argument("--samples", type=_int_at_least(1), default=100_000)

    s = _add_command(subs, "meanfield", cmd_meanfield,
                     "reduced parameter vs the square-lattice threshold",
                     threads=True, lattices=("z2",))
    s.add_argument("--p", type=_float_grid, default="0.55,0.6,0.7,0.8,0.9,1.0")
    s.add_argument("--h", type=float, default=0.05)
    s.add_argument("--samples", type=_int_at_least(2), default=2_000)

    s = _add_command(subs, "couple-demo", cmd_couple_demo, "audit one coupled run")
    s.add_argument("--radius", type=int, default=1)
    s.add_argument("--p", type=float, default=0.5)
    s.add_argument("--h", type=float, default=0.5)
    s.add_argument("--q-override", dest="q_override", type=_probability, default=None)

    return parser


def _config_tokens(path):
    """``--flag=value`` tokens for the non-null values in a JSON config (a
    manifest carries them under 'args'), so that argparse checks each key
    and value as it checks the command line."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config {path} is not a JSON object")
    if isinstance(data.get("args"), dict):
        data = data["args"]
    return [f"--{key.replace('_', '-')}={value}"
            for key, value in data.items() if value is not None]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # config values go first, so flags given on the command line win
            ns = parser.parse_args(argv[:1] + _config_tokens(ns.config) + argv[1:])
        return ns.func(ns)
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
