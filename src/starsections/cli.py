"""Command-line front end.

Subcommands: ``functional`` (evaluate one body), ``verify`` (run a named
theorem suite), ``experiment`` (perturbation signs, sharpness schedule,
shape search).  Emits JSON report bundles and CSV tables; all JSON carries a
``format_version`` field and validates against the shipped schema.

Exit codes: 0 all-pass, 1 inequality violation, 2 usage error or input
outside the theorem's hypotheses, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import verify as verify_mod
from .bodies import (
    FORMAT_VERSION,
    ArcsBase,
    StarBody,
    body_from_json_dict,
    cap_base,
    equality_cone_base,
    full_sphere_base,
    make_ball,
    make_cone,
    make_ellipsoid,
    make_lune,
    make_perturbed_ball,
)
from .errors import ApplicabilityError, DomainError, GeometryError
from .functionals import (
    QuadratureConfig,
    busemann_functional_with_error,
    gaussian_measure,
    section_volume,
    volume,
)
from .quadrature import rule_size, sphere_rule_node
from .spaces import SpaceSpec, basis_vector

# The most sections ``functional --sections`` prints.  Each is a section
# volume (about 13,000 a second on s+:9), and the index of N of them is N
# floats: 10^9 asked on s+:12 would take 725,594,112 of them, 5.8 GB.
SECTIONS_CAP = 10_000


class UsageError(ValueError):
    pass


def parse_space(text: str) -> SpaceSpec:
    try:
        tag, dim = text.split(":")
        delta = {"s+": 1, "h": -1, "e": 0}[tag]
        return SpaceSpec(delta, int(dim))
    except (ValueError, KeyError) as exc:
        raise UsageError(
            f"--space: expected s+:<n>, h:<n> or e:<n>, got {text!r}"
        ) from exc


def _parse_kv(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"--body: expected key=val, got {item!r}")
        key, val = item.split("=", 1)
        out[key] = val
    return out


def parse_body(text: str, space: SpaceSpec | None) -> StarBody:
    """The body of a ``--body`` spec; with a ``--space`` given, a body on any
    other space is a usage error."""
    body = _build_body(text, space)
    if space is not None and body.space != space:
        raise UsageError(f"--body {text}: the body lives on {body.space}, not on --space {space}")
    return body


def _one(text: str) -> None:
    """The value of a switch key, which must be 1."""
    if text != "1":
        raise ValueError(text)


def _build_body(text: str, space: SpaceSpec | None) -> StarBody:
    """Constructor mini-language ``kind:key=val,...`` (see the README for the
    keys of each kind), or ``@file.json`` holding a body document.  A key
    that the kind does not read is a usage error, and so is a second key of
    a cone's base."""
    kind, _, rest = text.partition(":")

    def read(key, parse=float, what="a number"):
        """The parameter key, parsed and taken out of params, or a usage error
        naming it and its text."""
        value = params.pop(key)
        try:
            return parse(value)
        except ValueError:
            raise UsageError(f"--body {kind}: {key}={value!r} is not {what}") from None

    try:
        if text.startswith("@"):
            kind = text
            with open(text[1:]) as fh:
                return body_from_json_dict(json.load(fh))
        params = _parse_kv(rest)
        if kind in ("ball", "perturbed", "cone") and space is None:
            raise UsageError(f"--body {kind} requires --space")
        if kind == "ball":
            body = make_ball(space, read("r"))
        elif kind == "ellipsoid":
            body = make_ellipsoid(read("semiaxes", lambda t: [float(v) for v in t.split(";")],
                                       "numbers separated by ';'"))
        elif kind == "lune":
            body = make_lune(read("w"))
        elif kind == "perturbed":
            body = make_perturbed_ball(space, read("r"), read("beta"), read("k", int, "an integer"))
        elif kind == "cone":
            if "arcs" in params:
                base = ArcsBase(read("arcs", lambda t: tuple((float(a), float(b)) for a, b in
                                                             (pair.split(":") for pair in t.split(";"))),
                                     "arcs a:b separated by ';'"))
            elif "cap" in params:
                base = cap_base(basis_vector(space.dim), read("cap"))
            elif "equality" in params:
                base = equality_cone_base(space.dim, read("equality"))
            elif "full" in params:
                read("full", _one, "1")
                base = full_sphere_base(space.dim)
            else:
                raise UsageError("--body cone needs arcs=, cap=, equality= or full=1")
            body = make_cone(space, base)
        else:
            raise UsageError(f"--body: unknown body kind {kind!r}")
        if params:
            unused = ", ".join(f"{key}={value!r}" for key, value in params.items())
            raise UsageError(f"--body {kind}: unused parameter{'s' * (len(params) > 1)} {unused}")
        return body
    except UsageError:
        raise
    except KeyError as exc:
        raise UsageError(f"--body {kind}: missing parameter {exc.args[0]!r}") from exc
    except (OSError, TypeError, ValueError, GeometryError) as exc:
        raise UsageError(f"--body {kind}: {exc}") from exc


def _integer_at_least(low: int, noun: str):
    """An argparse type: an integer >= low, or a usage error naming the noun."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer {noun}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"a {noun} must be >= {low}, got {value}")
        return value
    return parse


_degree = _integer_at_least(1, "quadrature degree")
_count = _integer_at_least(0, "count")


def _write_json(path: str, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# format_version={FORMAT_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_out(path: str | None, forms: tuple):
    """Refuse, before the command runs, an --out path whose suffix is not one
    of the command's forms: ".json", ".csv" or both."""
    if path is not None and not path.endswith((".json", ".csv")):
        raise UsageError("--out: path must end in .json or .csv")
    if path is not None and not path.endswith(forms):
        raise UsageError(f"--out: no {path.rpartition('.')[2].upper()} form for this command")


def _emit(path: str | None, json_doc=None, csv_data=None):
    # main has checked the path's suffix against the command's forms
    if path is not None and path.endswith(".json"):
        _write_json(path, json_doc)
    elif path is not None:
        _write_csv(path, *csv_data)


def cmd_functional(args) -> int:
    if args.sections > SECTIONS_CAP:
        raise UsageError(f"--sections: at most {SECTIONS_CAP} sections, got {args.sections}")
    space = parse_space(args.space) if args.space else None
    body = parse_body(args.body, space)
    space = body.space
    mu = gaussian_measure() if args.measure == "gaussian" else None
    config = QuadratureConfig(args.outer_degree, args.inner_degree)
    vol = volume(body, mu, config)
    functional, err = busemann_functional_with_error(
        body, mu, normalized=args.normalized, exponent=args.exponent, config=config
    )
    print(f"space: delta={space.delta} dim={space.dim}")
    print(f"volume: {vol:.12g}")
    sections = []
    if args.sections:
        # evenly spaced nodes of the degree-11 rule on S^{n-1}, each built
        # from its index alone; past 2^53 nodes a float index can round up
        count = rule_size(space.dim - 1, 11)
        take = np.linspace(0, count - 1, min(args.sections, count))
        print("sections (direction -> section volume):")
        for idx in take:
            xi = sphere_rule_node(space.dim - 1, 11, min(int(idx), count - 1))
            sv = section_volume(body, xi, mu, config)
            sections.append({"direction": xi.tolist(), "section_volume": sv})
            pretty = ", ".join(f"{c:+.4f}" for c in xi)
            print(f"  [{pretty}] -> {sv:.10g}")
    print(f"functional: {functional:.12g}  (error estimate {err:.3g})")
    doc = {
        "format_version": FORMAT_VERSION,
        "command": "functional",
        "space": {"delta": space.delta, "dim": space.dim},
        "body": body.to_json_dict(),
        "measure": args.measure,
        "volume": vol,
        "functional": functional,
        "error_estimate": err,
        "exponent": args.exponent if args.exponent is not None else space.dim,
        "normalized": bool(args.normalized),
        "sections": sections,
        "quadrature": config.describe(space.dim),
    }
    _emit(args.out, json_doc=doc)
    if args.dump_body:
        _write_json(args.dump_body, body.to_json_dict())
    return 0


def cmd_verify(args) -> int:
    theorem = args.theorem
    if args.w is not None and (theorem != "lune-max" or args.body):
        raise UsageError("--w sets the lune of --theorem lune-max, and goes without --body")
    if args.space and not args.body:
        raise UsageError("--space binds the --body specs, and goes only with --body")
    if args.body or args.w is not None:
        random_flags = [flag for flag, value in (("--random", args.random), ("--seed", args.seed))
                        if value is not None]
        if random_flags:
            raise UsageError(f"{' and '.join(random_flags)} set the random suite bodies, "
                             "and go without --body or --w")
        space = parse_space(args.space) if args.space else None
        if args.body:
            bodies = [parse_body(spec, space) for spec in args.body]
        else:
            try:
                bodies = [make_lune(args.w)]
            except DomainError as exc:
                raise UsageError(f"--w {args.w}: {exc}") from exc
        # next to given bodies --dim is a check, not a choice
        if args.dim is not None and any(body.space.dim != args.dim for body in bodies):
            raise UsageError(f"--dim {args.dim} is not the dimension of every given body")
    else:
        bodies = verify_mod.suite_bodies(theorem, dim=args.dim, random_count=args.random or 0,
                                         seed=args.seed or 0)
    # a degree flag overrides only that degree of the theorem's own config
    config = verify_mod.THEOREMS[theorem].config
    if args.outer_degree is not None:
        config = replace(config, outer_degree=args.outer_degree)
    if args.inner_degree is not None:
        config = replace(config, inner_degree=args.inner_degree)
    reports = verify_mod.run_theorem_suite(theorem, bodies, config=config)
    all_pass = all(r.verdict for r in reports)
    for r in reports:
        tag = f" [{r.variant}]" if r.variant else ""
        status = "pass" if r.verdict else "FAIL"
        print(f"{status}  {r.theorem_id}{tag}  body={r.body_kind:<10} "
              f"lhs={r.lhs:.10g} rhs={r.rhs:.10g} rel_gap={r.rel_gap:+.3e}")
    print(f"suite: {'pass' if all_pass else 'FAIL'} ({len(reports)} checks)")
    records = [r.to_json_dict() for r in reports]
    doc = {
        "format_version": FORMAT_VERSION,
        "theorem_id": theorem,
        "reports": records,
        "suite_verdict": "pass" if all_pass else "fail",
    }
    _emit(args.out, json_doc=doc, csv_data=_table(
        ["theorem_id", "variant", "body_kind", "lhs", "rhs", "gap", "rel_gap", "verdict"], records))
    return 0 if all_pass else 1


def _table(header, records):
    """A CSV table of the given columns of JSON records."""
    return header, [[record[column] for column in header] for record in records]


def _parse_list(flag: str, text: str | None, kind):
    """A comma-separated option as a list of ``kind``, or None when not given."""
    if text is None:
        return None
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected a comma-separated list, got {text!r}") from exc


def cmd_experiment(args) -> int:
    try:
        return args.run(args)
    except DomainError as exc:
        raise UsageError(f"{args.mode}: {exc}") from exc


def _perturbation(args) -> int:
    ks = _parse_list("--k", args.k, int)
    betas = _parse_list("--beta", args.beta, float)
    records = []
    ok = True
    for k in ks:
        res = verify_mod.perturbation_sign_experiment(args.dim, args.r, k, betas=betas)
        records.append(res.to_json_dict())
        status = "conclusive" if res.conclusive else "INCONCLUSIVE"
        match = "match" if res.sign_matches else "MISMATCH"
        print(f"k={k}: difference={res.difference:+.6e} predicted={res.predicted_sign:+d} "
              f"observed={res.observed_sign:+d} ({status}, {match})")
        ok = ok and res.sign_matches
    _emit(args.out, csv_data=_table(
        ["n", "r", "k", "beta", "delta_norm", "eps_norm", "difference", "error_estimate",
         "predicted_sign", "observed_sign", "conclusive", "ratio", "predicted_ratio"], records))
    return 0 if ok else 1


def _sharpness(args) -> int:
    alphas = _parse_list("--alphas", args.alphas, float)
    epsilons = _parse_list("--epsilons", args.epsilons, float)
    rows = verify_mod.sharpness_schedule(args.dim, args.t, alphas, epsilons)
    print(f"target constant: {rows[0]['target']:.10g}")
    for row in rows:
        print(f"alpha={row['alpha']:<6g} eps={row['eps']:<6g} "
              f"normalized={row['normalized']:.8g} excess={row['excess']:+.3%}")
    _emit(args.out, csv_data=_table(
        ["alpha", "eps", "volume", "functional", "normalized", "target", "excess"], rows))
    final_ok = abs(rows[-1]["excess"]) <= 0.05 and all(r["excess"] >= -1e-9 for r in rows)
    return 0 if final_ok else 1


def _search(args) -> int:
    space = parse_space(args.space)
    vol = args.volume if args.volume is not None else (
        2.0 if space.delta == 1 else 2.0 * math.pi * 0.3
    )
    trace = verify_mod.extremizer_search(
        space, args.body_class, vol, sense=args.sense, budget=args.budget, seed=args.seed,
    )
    print(f"search: {trace.accepted} accepted / {trace.evaluations} evaluated, "
          f"best objective {trace.best_objective:.10g}")
    header = ["iteration", "objective", "volume_drift"]
    _emit(args.out, csv_data=(header, [list(s) for s in trace.steps]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsections",
        description="Star bodies in curved spaces: section functionals and inequality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quad_args(p, forms):
        p.add_argument("--outer-degree", type=_degree, default=None)
        p.add_argument("--inner-degree", type=_degree, default=None)
        p.add_argument("--out", default=None, help=f"write the report to {' or '.join(forms)}")
        p.set_defaults(out_forms=forms)

    p_fun = sub.add_parser("functional", help="evaluate volume, sections, functional")
    p_fun.add_argument("--space", default=None, help="s+:<n>, h:<n> or e:<n>")
    p_fun.add_argument("--body", required=True, help="kind:key=val,... or @file.json")
    p_fun.add_argument("--measure", default="uniform", choices=["uniform", "gaussian"])
    p_fun.add_argument("--normalized", action="store_true")
    p_fun.add_argument("--exponent", type=_integer_at_least(1, "section-power exponent"), default=None)
    p_fun.add_argument("--sections", type=_count, default=0, metavar="N",
                       help=f"print a table of N section volumes, N <= {SECTIONS_CAP}")
    p_fun.add_argument("--dump-body", default=None, help="write the body JSON here")
    add_quad_args(p_fun, (".json",))
    p_fun.set_defaults(fn=cmd_functional)

    p_ver = sub.add_parser("verify", help="run a named theorem suite")
    p_ver.add_argument("--theorem", required=True, choices=tuple(verify_mod.THEOREMS))
    p_ver.add_argument("--space", default=None)
    p_ver.add_argument("--body", action="append", default=None,
                       help="explicit body spec (repeatable)")
    p_ver.add_argument("--dim", type=int, default=None, help="suite dimension")
    p_ver.add_argument("--random", type=_count, default=None, help="number of random suite bodies (0)")
    p_ver.add_argument("--seed", type=_count, default=None, help="seed of the random suite bodies (0)")
    p_ver.add_argument("--w", type=float, default=None, help="lune half-width")
    add_quad_args(p_ver, (".json", ".csv"))
    p_ver.set_defaults(fn=cmd_verify)

    p_exp = sub.add_parser("experiment", help="perturbation | sharpness | search")
    modes = p_exp.add_subparsers(dest="mode", required=True)

    def add_mode(name, run):
        p = modes.add_parser(name)
        p.add_argument("--out", default=None, help="write the table to .csv")
        p.set_defaults(fn=cmd_experiment, run=run, out_forms=(".csv",))
        return p

    p_pert = add_mode("perturbation", _perturbation)
    p_pert.add_argument("--dim", type=int, default=3)
    p_pert.add_argument("--r", type=float, default=math.pi / 4)
    p_pert.add_argument("--k", default="2,4")
    p_pert.add_argument("--beta", default=None, help="comma-separated beta schedule")
    p_sharp = add_mode("sharpness", _sharpness)
    p_sharp.add_argument("--dim", type=int, default=3)
    p_sharp.add_argument("--t", type=float, default=0.5)
    p_sharp.add_argument("--alphas", default=None)
    p_sharp.add_argument("--epsilons", default=None)
    p_search = add_mode("search", _search)
    p_search.add_argument("--space", default="s+:2")
    p_search.add_argument("--class", dest="body_class", default="sym-star",
                          choices=verify_mod.SEARCH_CLASSES)
    p_search.add_argument("--sense", default="max", choices=["max", "min"])
    p_search.add_argument("--volume", type=float, default=None)
    p_search.add_argument("--budget", type=int, default=4000)
    p_search.add_argument("--seed", type=_count, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else 0
    try:
        _check_out(args.out, args.out_forms)
        # an overflow is refused as a numeric failure, in one line, without
        # numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ApplicabilityError as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
