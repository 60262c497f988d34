"""Command-line interface.

Exit codes: 0 success, 2 unreadable input or violated precondition,
3 inadmissible response data, 4 numerical degeneracy (vanishing Krein
trace, eigendata that fail their collision, finiteness or residual
check).  All randomness flows through numpy's default_rng (PCG64)
seeded from roundtrip's --seed, and floats are serialized with 17
significant digits, so identical invocations produce identical bytes.

Each flag is attached only to the subcommands that read it: --output
to all of them, --tol-det to invert, characterize and roundtrip (the
admissibility test, default inversion.DET_TOL), --seed to roundtrip,
and --alpha/--beta, given only with --method krein, to invert.  No
flag may be abbreviated, lest a prefix such as --tol change meaning.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import files
from .bc_ops import (_response_kernels, connecting_matrix,
                     connecting_via_waves, response_kernel)
from .core import check_count, check_det_tol, is_real
from .forward import solve_interval, solve_semi_infinite
from .inversion import (DET_TOL, DegenerateTrace, KreinConfig,
                        SingularConnecting, SingularLeadingMinor,
                        _block_outcomes, characterize_response,
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


def _load(path, kind):
    pf = files.load_problem(path)
    if pf.kind != kind:
        raise ValueError(
            f"{kind} file has kind {pf.kind!r}, expected one of {(kind,)}")
    return pf


def _default_horizon(args, kernel_length):
    if args.horizon is not None:
        return args.horizon
    return (kernel_length + 1) // 2


def _emit_json(doc, args):
    files.write_text(files.dumps_json(doc), args.output)


def cmd_forward(args):
    control = _load(args.control, "control")
    potential = _load(args.potential, "potential")
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
    potential = _load(args.potential, "potential")
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
        pf = _load(args.kernel, "kernel")
        if T is None:
            T = _default_horizon(args, pf.values.size)
        C = connecting_matrix(pf.values, T)
    else:
        pf = _load(args.potential, "potential")
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
    # only the given boundary data reach KreinConfig, whose defaults
    # stand for the others
    boundary = {name: value for name, value in
                (("alpha", args.alpha), ("beta", args.beta))
                if value is not None}
    if boundary and args.method != "krein":
        raise ValueError("--alpha and --beta apply only to --method krein")
    pf = _load(args.kernel, "kernel")
    T = _default_horizon(args, pf.values.size)
    verdict = characterize_response(pf.values, T, args.tol_det)
    if not verdict.admissible:
        print(f"error: kernel inadmissible at order "
              f"{verdict.first_failing_order}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    if args.method == "krein":
        b = invert_krein(pf.values, T, KreinConfig(**boundary))
    elif args.method == "factorization":
        b = invert_factorization(pf.values, T)
    else:
        b = invert_gelfand_levitan(pf.values, T)
    doc = files.problem_document(
        "potential", b, {"method": args.method, "horizon": T})
    _emit_json(doc, args)
    return EXIT_OK


def cmd_characterize(args):
    pf = _load(args.kernel, "kernel")
    T = _default_horizon(args, pf.values.size)
    verdict = characterize_response(pf.values, T, args.tol_det)
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
    pf = _load(args.potential, "potential")
    N = args.size if args.size is not None else pf.values.size
    H = build_hamiltonian(pf.values, N)
    sd = eigen_decompose(H)
    _emit_json(files.spectral_problem(sd), args)
    return EXIT_OK


def cmd_spectral_invert(args):
    pf = _load(args.spectral, "spectral")
    sd = files.spectral_from_problem(pf)
    b = invert_spectral(sd)
    doc = files.problem_document(
        "potential", b, {"method": "spectral", "size": sd.size})
    _emit_json(doc, args)
    return EXIT_OK


def roundtrip_report(seed, instances, T, amplitude, det_tol=DET_TOL):
    """Round-trip report over instances draws b ~ uniform(-a, a)^(T-1).

    Each draw's kernel (r_0, ..., r_{2T-2}) is characterized and handed
    to the three solvers; the report gives per method the successes,
    the worst recovery error and the failures, and the inadmissible
    instances.  The draws are taken in blocks of _BLOCK instances, each
    served by one stacked kernel fill and one stacked moment recursion;
    the report is the same bytes as one draw, kernel and solver call
    per instance.  The worst error is max over the successes in
    instance order, which keeps the first value and replaces it only by
    a strictly larger one, so a NaN first error stays.  The counts and
    the amplitude are checked before det_tol.
    """
    check_count(instances, 0, "instances must be nonnegative")
    check_count(T, 1, "--horizon is required and must be positive")
    # the draws span 2 * amplitude, which must be finite
    if not (is_real(amplitude)
            and 0.0 <= amplitude <= np.finfo(float).max / 2):
        raise ValueError("amplitude must be finite and nonnegative")
    det_tol = check_det_tol(det_tol)
    rng = np.random.default_rng(seed)
    # per method, the errors of the successes and the failures
    tallies = {name: ([], [])
               for name in ("krein", "factorization", "gelfand_levitan")}
    inadmissible = []
    for start in range(0, instances, _BLOCK):
        # one (rows, T - 1) draw is the same stream as rows draws of T - 1
        draws = rng.uniform(-amplitude, amplitude,
                            (min(_BLOCK, instances - start), T - 1))
        # a fill that overflows fails the check below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            r = _response_kernels(draws, 2 * T - 2)
        if not np.all(np.isfinite(r)):
            # what characterize_response raises for such a kernel
            raise ValueError("kernel contains non-finite entries")
        failing, outcomes = _block_outcomes(r, T, det_tol)
        inadmissible.extend((start + np.flatnonzero(failing)).tolist())
        for name, (b_hat, names) in outcomes.items():
            errors, failures = tallies[name]
            # initial=0.0 gives the error 0 at T = 1, where b is empty
            worst = np.max(np.abs(b_hat - draws.T), axis=0, initial=0.0)
            failed = names != ""
            errors.extend(worst[~failed].tolist())
            failures.extend({"instance": start + int(i),
                             "error": str(names[i])}
                            for i in np.flatnonzero(failed))
    return {
        "kind": "roundtrip_report",
        "seed": seed,
        "instances": instances,
        "horizon": T,
        "amplitude": amplitude,
        "generator": "numpy default_rng (PCG64)",
        "methods": {name: {"successes": len(errors),
                           "max_abs_error": max(errors, default=None),
                           "failures": failures}
                    for name, (errors, failures) in tallies.items()},
        "characterization": {
            "admissible_count": instances - len(inadmissible),
            "inadmissible_instances": inadmissible,
        },
    }


def cmd_roundtrip(args):
    report = roundtrip_report(args.seed, args.instances, args.horizon,
                              args.amplitude, args.tol_det)
    _emit_json(report, args)
    return EXIT_OK


@functools.cache
def build_parser():
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, metavar="PATH",
                        help="output path (default: stdout)")
    admissibility = argparse.ArgumentParser(add_help=False)
    admissibility.add_argument("--tol-det", type=float, default=DET_TOL,
                               help="unit-minor admissibility slack, below 1")

    parser = argparse.ArgumentParser(
        prog="lattice-bc", allow_abbrev=False,
        description="Boundary control toolkit for the discrete "
                    "Schrodinger lattice.")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("forward", parents=[output],
                   help="simulate the controlled lattice")
    p.add_argument("--potential", required=True, metavar="FILE")
    p.add_argument("--control", required=True, metavar="FILE")
    p.add_argument("--interval-n", type=int, default=None, metavar="N",
                   help="finite interval size (default: half-line)")
    p.set_defaults(func=cmd_forward, parser=p)

    p = add_parser("response", parents=[output],
                   help="response kernel of a potential")
    p.add_argument("--potential", required=True, metavar="FILE")
    p.add_argument("--order", type=int, required=True, metavar="K",
                   help="deepest kernel index to compute")
    p.set_defaults(func=cmd_response, parser=p)

    p = add_parser("connect", parents=[output],
                   help="connecting matrix from a kernel or potential")
    p.add_argument("--kernel", default=None, metavar="FILE")
    p.add_argument("--potential", default=None, metavar="FILE")
    p.add_argument("--horizon", type=int, default=None, metavar="T")
    p.add_argument("--via-waves", action="store_true",
                   help="assemble the Gram matrix from wave fields")
    p.add_argument("--verify", action="store_true",
                   help="compare the kernel and wave routes")
    p.set_defaults(func=cmd_connect, parser=p)

    p = add_parser("invert", parents=[output, admissibility],
                   help="recover the potential from a kernel")
    p.add_argument("--kernel", required=True, metavar="FILE")
    p.add_argument("--horizon", type=int, default=None, metavar="T",
                   help="default: largest horizon the kernel covers")
    p.add_argument("--method", choices=_METHODS,
                   default="factorization")
    p.add_argument("--alpha", type=float, default=None,
                   help="Krein boundary datum y_0 (default 0)")
    p.add_argument("--beta", type=float, default=None,
                   help="Krein boundary datum y_1 (default 1)")
    p.set_defaults(func=cmd_invert, parser=p)

    p = add_parser("characterize", parents=[output, admissibility],
                   help="test a kernel prefix for admissibility")
    p.add_argument("--kernel", required=True, metavar="FILE")
    p.add_argument("--horizon", type=int, default=None, metavar="T")
    p.set_defaults(func=cmd_characterize, parser=p)

    p = add_parser("spectral", parents=[output],
                   help="eigenvalues and norming constants")
    p.add_argument("--potential", required=True, metavar="FILE")
    p.add_argument("--size", type=int, default=None, metavar="N",
                   help="interval size (default: potential length)")
    p.set_defaults(func=cmd_spectral, parser=p)

    p = add_parser("spectral-invert", parents=[output],
                   help="recover the potential from spectral data")
    p.add_argument("--spectral", required=True, metavar="FILE")
    p.set_defaults(func=cmd_spectral_invert, parser=p)

    p = add_parser("roundtrip", parents=[output, admissibility],
                   help="randomized kernel round-trip report")
    p.add_argument("--instances", type=int, required=True, metavar="M")
    p.add_argument("--horizon", type=int, required=True, metavar="T")
    p.add_argument("--amplitude", type=float, default=1.0,
                   help="potential draws are uniform on [-a, a]")
    p.add_argument("--seed", type=int, default=0,
                   help="PCG64 seed of the draws")
    p.set_defaults(func=cmd_roundtrip, parser=p)

    return parser


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # under the usage line of the subcommand, which lists its flags,
        # where parse_args would print the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # a value that overflows is refused as an error, by the check
        # that reads it or when it is written, never as a warning
        with np.errstate(over="ignore", invalid="ignore"):
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
