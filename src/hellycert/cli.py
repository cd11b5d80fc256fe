"""Command-line surface: select, verify, gen, experiment, pivovarov.

Exit codes: 0 success, 1 a verification or experiment row failed (a
certificate that `select` wrote included), 2 the input was malformed or
outside the size caps, 3 the numerics broke down while producing a
certificate.
"""

from __future__ import annotations

import argparse
import sys

from .certificate import SELECTORS
from .checker import check_certificate
from .config import DIM_CAP, FACET_CAP
from .documents import (
    canonical_dumps,
    certificate_from_doc,
    certificate_to_doc,
    instance_from_doc,
    instance_to_doc,
    load_document,
    report_to_doc,
    save_document,
)
from .errors import CapExceeded, HellyError, MalformedDocument
from .experiment import GENERATORS, TrialSpec, build_instance, grid_specs, rows_to_csv, run_experiment
from .geometry import check_subset_budget
from .john import normalize_position
from .oracle import ORACLE_DIM_CAP, ORACLE_FACET_CAP
from .pipeline import select
from .pivovarov import pivovarov_moments

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MALFORMED = 2
EXIT_NUMERIC = 3


def _emit(doc: dict, out: str | None) -> None:
    if out is None:
        sys.stdout.write(canonical_dumps(doc))
    else:
        save_document(doc, out)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _print_items(report, file) -> None:
    for item in report.items:
        if not item.applicable:
            status = "skip"
        else:
            status = "pass" if item.passed else "FAIL"
        print(f"{item.name:22s} {status}  {item.detail}", file=file)
    print(f"verdict: {'pass' if report.passed else 'FAIL'}", file=file)


def cmd_select(args) -> int:
    poly, _ = instance_from_doc(load_document(args.infile))
    cert = select(poly, selector=args.selector, seed=args.seed)
    doc = certificate_to_doc(cert)
    _emit(doc, args.out)
    report = check_certificate(certificate_from_doc(doc))
    if not report.passed:
        # stdout may carry the document
        _print_items(report, sys.stderr)
        return EXIT_CHECK_FAILED
    print(
        f"selected {cert.subfamily_size} of {poly.normals.shape[0]} half-spaces, "
        f"certified ratio {cert.ratio:.6g} <= bound {cert.bound:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = certificate_from_doc(load_document(args.infile))
    report = check_certificate(cert, scale=args.tol_scale)
    if args.out is not None:
        save_document(report_to_doc(report), args.out)
    _print_items(report, sys.stdout)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    if args.d is None:
        raise MalformedDocument("gen requires --d")
    if args.generator != "cube" and args.m is None:
        raise MalformedDocument(f"generator {args.generator!r} requires --m")
    poly = build_instance(TrialSpec(d=args.d, m=args.m, seed=args.seed, generator=args.generator))
    meta = {"generator": args.generator, "seed": args.seed, "d": args.d}
    if args.generator != "cube":
        meta["m"] = args.m
    _emit(instance_to_doc(poly, meta=meta), args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    for d in args.d:
        if not 1 <= d <= DIM_CAP:
            raise CapExceeded(f"dimension {d} outside [1, {DIM_CAP}]")
    if args.oracle and max(args.d) > ORACLE_DIM_CAP:
        raise CapExceeded(f"--oracle needs d <= {ORACLE_DIM_CAP}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    specs = grid_specs(
        args.d,
        args.m,
        trials=args.trials,
        base_seed=args.seed,
        generator=args.generator,
        selector=args.selector,
        oracle=args.oracle,
    )
    # check the cells the grid runs, not the raw --m values (the cube ignores
    # them), before any trial starts; every trial measures the volume of its
    # instance, so a cell whose vertex walk is over budget is refused too
    for d, m in dict.fromkeys((s.d, s.m) for s in specs):
        if not 1 <= m <= FACET_CAP:
            raise CapExceeded(f"facet count {m} outside [1, {FACET_CAP}]")
        if m <= d:
            raise ValueError(f"need m > d, got d={d}, m={m}: m <= d half-spaces never bound a body")
        if args.oracle and m > ORACLE_FACET_CAP:
            raise CapExceeded(f"--oracle needs m <= {ORACLE_FACET_CAP}, got {m}")
        check_subset_budget(m, d)
    rows = run_experiment(specs, jobs=args.jobs)
    _write_text(rows_to_csv(rows), args.out)
    bad = [r for r in rows if r.status != "ok"]
    if bad:
        print(f"{len(bad)} of {len(rows)} trials did not pass", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_pivovarov(args) -> int:
    poly, _ = instance_from_doc(load_document(args.infile))
    inst = normalize_position(poly)
    rep = pivovarov_moments(inst.decomposition, trials=args.trials, seed=args.seed)
    lines = [
        f"dim            {rep.dim}",
        f"trials         {rep.trials}",
        f"mean_vol       {rep.mean_vol!r} (se {rep.se_mean!r})",
        f"mean_sq        {rep.mean_sq!r} (se {rep.se_sq!r})",
        f"rms            {rep.rms!r} (se {rep.se_rms!r})",
        f"floor          {rep.floor!r}",
    ]
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hellycert",
        description="Select small half-space subfamilies with volume certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="infile", required=True, help="input document path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("select", help="produce a certificate for an instance")
    add_io(p)
    p.add_argument("--seed", type=int, default=None, help="sampled-selector seed")
    p.add_argument("--selector", choices=SELECTORS, default="dr")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("verify", help="re-check a certificate from its stored data")
    add_io(p)
    p.add_argument("--tol-scale", type=float, default=None, help="checker tolerance multiplier, default 10")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a test instance")
    add_io(p, needs_in=False)
    p.add_argument("--generator", choices=GENERATORS, default="tangent")
    p.add_argument("--d", type=int, default=None, help="ambient dimension")
    p.add_argument("--m", type=int, default=None, help="number of half-spaces")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("experiment", help="run a (d, m, seed) grid and emit CSV")
    add_io(p, needs_in=False)
    p.add_argument("--d", type=int, nargs="+", required=True, help="dimensions")
    p.add_argument("--m", type=int, nargs="+", required=True, help="facet counts")
    p.add_argument("--trials", type=int, default=10, help="seeds per (d, m) cell")
    p.add_argument("--seed", type=int, default=0, help="first seed of each cell")
    p.add_argument("--generator", choices=GENERATORS, default="tangent")
    p.add_argument("--selector", choices=SELECTORS, default="dr")
    p.add_argument("--oracle", action="store_true", help="add exhaustive-optimum column")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per trial and CPU")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("pivovarov", help="random-simplex volume moments for an instance")
    add_io(p)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pivovarov)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MalformedDocument, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except HellyError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
