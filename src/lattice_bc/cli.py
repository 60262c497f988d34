"""Command-line interface.

Exit codes: 0 success, 2 unreadable input or violated precondition,
3 inadmissible response data, 4 numerical degeneracy (vanishing Krein
trace, eigen iteration failure).  All randomness flows through numpy's
default_rng (PCG64) seeded from --seed, and floats are serialized with
17 significant digits, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import files
from .bc_ops import (_response_kernels, connecting_matrix,
                     connecting_via_waves, response_kernel)
from .core import Tolerances
from .forward import solve_interval, solve_semi_infinite
from .inversion import (DegenerateTrace, InversionError, KreinConfig,
                        SingularConnecting, SingularLeadingMinor,
                        _solve_stack, characterize_response,
                        invert_factorization, invert_gelfand_levitan,
                        invert_krein)
from .linalg import ConvergenceFailure
from .spectral import build_hamiltonian, eigen_decompose, invert_spectral

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INADMISSIBLE = 3
EXIT_DEGENERATE = 4

_METHODS = ("factorization", "gelfand-levitan", "krein")
# instances per stacked kernel fill and moment recursion in roundtrip;
# a block holds O(_BLOCK T) numbers
_BLOCK = 64


def _tolerances(args):
    return Tolerances(det_tol=args.tol_det, pivot_tol=args.tol_pivot,
                      eig_tol=args.tol_eig)


def _load(path, expect, what):
    pf = files.load_problem(path)
    if pf.kind not in expect:
        raise ValueError(
            f"{what} file has kind {pf.kind!r}, expected one of {expect}")
    return pf


def _default_horizon(args, kernel_length):
    if args.horizon is not None:
        return args.horizon
    return (kernel_length + 1) // 2


def _emit_json(doc, args):
    files.write_text(files.dumps_json(doc), args.output)


def cmd_forward(args):
    control = _load(args.control, ("control",), "control")
    potential = _load(args.potential, ("potential",), "potential")
    f = control.values
    T = f.size
    if args.interval_n is not None:
        fld = solve_interval(potential.values, args.interval_n, f, T)
    else:
        fld = solve_semi_infinite(potential.values, f, T)
    csv = files.field_csv(fld.values)
    files.write_text(csv, args.output)
    trace = fld.boundary_trace()
    echo = "trace: " + " ".join(format(x, ".17g") for x in trace)
    stream = sys.stderr if args.output in (None, "-") else sys.stdout
    print(echo, file=stream)
    return EXIT_OK


def cmd_response(args):
    potential = _load(args.potential, ("potential",), "potential")
    r = response_kernel(potential.values, args.order)
    doc = files.problem_document("kernel", r, {"order": args.order})
    _emit_json(doc, args)
    return EXIT_OK


def cmd_connect(args):
    if (args.kernel is None) == (args.potential is None):
        raise ValueError("connect needs exactly one of --kernel/--potential")
    T = args.horizon
    if args.kernel is not None:
        if args.via_waves or args.verify:
            raise ValueError(
                "--via-waves/--verify need a potential input")
        pf = _load(args.kernel, ("kernel",), "kernel")
        if T is None:
            T = _default_horizon(args, pf.values.size)
        C = connecting_matrix(pf.values, T)
    else:
        pf = _load(args.potential, ("potential",), "potential")
        if T is None:
            raise ValueError("--horizon is required with --potential")
        if args.via_waves or args.verify:
            waves = connecting_via_waves(pf.values, T)
        if not args.via_waves or args.verify:
            r = response_kernel(pf.values, 2 * T - 2)
            kernel_route = connecting_matrix(r, T)
        C = waves if args.via_waves else kernel_route
        if args.verify:
            dev = float(np.max(np.abs(kernel_route - waves)))
            print(f"route deviation: {format(dev, '.17g')}",
                  file=sys.stderr)
    files.write_text(files.matrix_csv(C), args.output)
    return EXIT_OK


def cmd_invert(args):
    pf = _load(args.kernel, ("kernel",), "kernel")
    T = _default_horizon(args, pf.values.size)
    tol = _tolerances(args)
    verdict = characterize_response(pf.values, T, tol)
    if not verdict.admissible:
        print(f"error: kernel inadmissible at order "
              f"{verdict.first_failing_order}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    if args.method == "krein":
        config = KreinConfig(alpha=args.alpha, beta=args.beta)
        b = invert_krein(pf.values, T, config)
    elif args.method == "factorization":
        b = invert_factorization(pf.values, T)
    else:
        b = invert_gelfand_levitan(pf.values, T)
    doc = files.problem_document(
        "potential", b, {"method": args.method, "horizon": T})
    _emit_json(doc, args)
    return EXIT_OK


def cmd_characterize(args):
    pf = _load(args.kernel, ("kernel",), "kernel")
    T = _default_horizon(args, pf.values.size)
    verdict = characterize_response(pf.values, T, _tolerances(args))
    doc = {
        "kind": "characterization",
        "admissible": verdict.admissible,
        "first_failing_order": verdict.first_failing_order,
        "minor_values": verdict.minor_values,
        "pivot_values": verdict.pivot_values,
        "meta": {"horizon": T},
    }
    _emit_json(doc, args)
    return EXIT_OK if verdict.admissible else EXIT_INADMISSIBLE


def cmd_spectral(args):
    pf = _load(args.potential, ("potential",), "potential")
    N = args.size if args.size is not None else pf.values.size
    H = build_hamiltonian(pf.values, N)
    sd = eigen_decompose(H, _tolerances(args))
    _emit_json(files.spectral_problem(sd), args)
    return EXIT_OK


def cmd_spectral_invert(args):
    pf = _load(args.spectral, ("spectral",), "spectral")
    sd = files.spectral_from_problem(pf)
    b = invert_spectral(sd)
    doc = files.problem_document(
        "potential", b, {"method": "spectral", "size": sd.size})
    _emit_json(doc, args)
    return EXIT_OK


def _check_roundtrip(instances, T, amplitude):
    if (not isinstance(instances, (int, np.integer))
            or isinstance(instances, bool) or instances < 0):
        raise ValueError("instances must be nonnegative")
    if (not isinstance(T, (int, np.integer)) or isinstance(T, bool)
            or T < 1):
        raise ValueError("--horizon is required and must be positive")
    if not (amplitude >= 0.0 and np.isfinite(amplitude)):
        raise ValueError("amplitude must be finite and nonnegative")


def _roundtrip_outcome(recovered, b):
    if isinstance(recovered, InversionError):
        return None, type(recovered).__name__
    err = float(np.max(np.abs(recovered - b))) if b.size else 0.0
    return err, None


def roundtrip_report(seed, instances, T, amplitude, tol=Tolerances()):
    """Round-trip report over instances draws b ~ uniform(-a, a)^(T-1).

    Each draw's kernel (r_0, ..., r_{2T-2}) is characterized and handed
    to the three solvers; the report tallies per-method successes,
    worst recovery error and failures, and the inadmissible instances.
    The draws are taken in blocks of _BLOCK instances, each served by
    one stacked kernel fill and one moment recursion; the report is
    the same bytes as one draw, kernel and solver call per instance.
    """
    _check_roundtrip(instances, T, amplitude)
    if not isinstance(tol, Tolerances):
        raise ValueError("tol must be a Tolerances instance")
    rng = np.random.default_rng(seed)
    methods = {name: {"successes": 0, "max_abs_error": None, "failures": []}
               for name in ("krein", "factorization", "gelfand_levitan")}
    admissible_count = 0
    inadmissible = []
    for start in range(0, instances, _BLOCK):
        # one (rows, T - 1) draw is the same stream as rows draws of T - 1
        draws = rng.uniform(-amplitude, amplitude,
                            (min(_BLOCK, instances - start), T - 1))
        r = _response_kernels(draws, 2 * T - 2)
        if not np.all(np.isfinite(r)):
            # what characterize_response raises for such a kernel
            raise ValueError("kernel contains non-finite entries")
        solved = _solve_stack(r, T, tol)
        for i, b, (verdict, factorization, krein) in zip(
                range(start, instances), draws, solved):
            if verdict.admissible:
                admissible_count += 1
            else:
                inadmissible.append(i)
            # invert_gelfand_levitan(r, T) returns invert_factorization(r, T)
            factorization = _roundtrip_outcome(factorization, b)
            outcomes = {"krein": _roundtrip_outcome(krein, b),
                        "factorization": factorization,
                        "gelfand_levitan": factorization}
            for name, (err, failure) in outcomes.items():
                entry = methods[name]
                if failure is not None:
                    entry["failures"].append(
                        {"instance": i, "error": failure})
                else:
                    entry["successes"] += 1
                    if (entry["max_abs_error"] is None
                            or err > entry["max_abs_error"]):
                        entry["max_abs_error"] = err
    return {
        "kind": "roundtrip_report",
        "seed": seed,
        "instances": instances,
        "horizon": T,
        "amplitude": amplitude,
        "generator": "numpy default_rng (PCG64)",
        "methods": methods,
        "characterization": {
            "admissible_count": admissible_count,
            "inadmissible_instances": inadmissible,
        },
    }


def cmd_roundtrip(args):
    # checked before the tolerances are built, so a bad count is the
    # error reported when both are wrong
    _check_roundtrip(args.instances, args.horizon, args.amplitude)
    report = roundtrip_report(args.seed, args.instances, args.horizon,
                              args.amplitude, _tolerances(args))
    _emit_json(report, args)
    return EXIT_OK


@functools.cache
def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, metavar="PATH",
                        help="output path (default: stdout)")
    common.add_argument("--seed", type=int, default=0,
                        help="PCG64 seed for randomized commands")
    common.add_argument("--tol-det", type=float, default=1e-9,
                        help="unit-determinant admissibility slack")
    common.add_argument("--tol-pivot", type=float, default=1e-12,
                        help="positivity floor for pivots")
    common.add_argument("--tol-eig", type=float, default=1e-10,
                        help="relative eigenpair residual target")

    parser = argparse.ArgumentParser(
        prog="lattice-bc",
        description="Boundary control toolkit for the discrete "
                    "Schrodinger lattice.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", parents=[common],
                       help="simulate the controlled lattice")
    p.add_argument("--potential", required=True, metavar="FILE")
    p.add_argument("--control", required=True, metavar="FILE")
    p.add_argument("--interval-n", type=int, default=None, metavar="N",
                   help="finite interval size (default: half-line)")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("response", parents=[common],
                       help="response kernel of a potential")
    p.add_argument("--potential", required=True, metavar="FILE")
    p.add_argument("--order", type=int, required=True, metavar="K",
                   help="deepest kernel index to compute")
    p.set_defaults(func=cmd_response)

    p = sub.add_parser("connect", parents=[common],
                       help="connecting matrix from a kernel or potential")
    p.add_argument("--kernel", default=None, metavar="FILE")
    p.add_argument("--potential", default=None, metavar="FILE")
    p.add_argument("--horizon", type=int, default=None, metavar="T")
    p.add_argument("--via-waves", action="store_true",
                   help="assemble the Gram matrix from wave fields")
    p.add_argument("--verify", action="store_true",
                   help="compare the kernel and wave routes")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("invert", parents=[common],
                       help="recover the potential from a kernel")
    p.add_argument("--kernel", required=True, metavar="FILE")
    p.add_argument("--horizon", type=int, default=None, metavar="T",
                   help="default: largest horizon the kernel covers")
    p.add_argument("--method", choices=_METHODS,
                   default="factorization")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="Krein boundary datum y_0")
    p.add_argument("--beta", type=float, default=1.0,
                   help="Krein boundary datum y_1")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("characterize", parents=[common],
                       help="test a kernel prefix for admissibility")
    p.add_argument("--kernel", required=True, metavar="FILE")
    p.add_argument("--horizon", type=int, default=None, metavar="T")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("spectral", parents=[common],
                       help="eigenvalues and norming constants")
    p.add_argument("--potential", required=True, metavar="FILE")
    p.add_argument("--size", type=int, default=None, metavar="N",
                   help="interval size (default: potential length)")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("spectral-invert", parents=[common],
                       help="recover the potential from spectral data")
    p.add_argument("--spectral", required=True, metavar="FILE")
    p.set_defaults(func=cmd_spectral_invert)

    p = sub.add_parser("roundtrip", parents=[common],
                       help="randomized kernel round-trip report")
    p.add_argument("--instances", type=int, required=True, metavar="M")
    p.add_argument("--horizon", type=int, required=True, metavar="T")
    p.add_argument("--amplitude", type=float, default=1.0,
                   help="potential draws are uniform on [-a, a]")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (SingularConnecting, SingularLeadingMinor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (DegenerateTrace, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
