"""Command-line front end for batch computations with skew cyclic codes.

Subcommands: field check, factor, code build|dual|gray|matrix|distance|
idempotent|contains, census, verify. Every JSON output embeds the code
description block, so results can be re-fed to other subcommands. Only
``verify`` samples, from its ``--seed``; given the same flags, output is
identical.

Exit codes: 0 success, 1 failed verification, violated precondition or
stdout closed early (for example by ``| head``), 2 malformed configuration.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import codes as codes_mod
from . import oracle as oracle_mod
from .codes import (
    CENSUS_LIMIT,
    CodeError,
    code_from_components,
    component_code_new,
    count_skew_cyclic_codes,
)
from .finite_field import (
    EnumerationTooLarge,
    Field,
    FieldError,
    field_from_string,
    field_to_json,
)
from .linalg import DISTANCE_LIMIT
from .ring_r import gray_map, lee_weight, ring_vector_from_string, ring_vector_to_string
from .skew_poly import (
    SkewPolyError,
    factor_xn_minus_1,
    poly_from_string,
    poly_to_string,
    project_components,
    ring_coeffs_from_string,
    ring_skew_poly_combine,
)


class CliConfigError(Exception):
    pass


def _reject_lone_dashes(args) -> None:
    """argparse turns a lone ``--`` option value (``--word=--``) into []."""
    for name, value in vars(args).items():
        if isinstance(value, list):
            raise CliConfigError(f"bad {name.replace('_', '-')} '--'")


def _parse_field(args) -> Field:
    """The --field of a subcommand; its --aut must divide the degree m."""
    if not args.field:
        raise CliConfigError("--field is required (e.g. p=3,m=2,mod=1,0,1)")
    try:
        fld = field_from_string(args.field)
    except (FieldError, ValueError) as exc:
        raise CliConfigError(f"bad field spec {args.field!r}: {exc}") from exc
    try:
        fld.check_aut_exponent(args.aut)
    except FieldError as exc:
        raise CliConfigError(f"bad --aut {args.aut}: {exc}") from exc
    return fld


def _length(args) -> int:
    """The --n of factor, code and census: required and positive."""
    if args.n is None:
        raise CliConfigError("--n is required")
    if args.n < 1:
        raise CliConfigError(f"--n must be positive, got {args.n}")
    return args.n


def _parse_code(args, fld: Field):
    have_triple = args.g1 or args.g2 or args.g3
    if args.g and have_triple:
        raise CliConfigError("give either --g or the --g1/--g2/--g3 triple, not both")
    if not args.g and not (args.g1 and args.g2 and args.g3):
        raise CliConfigError("a code needs --g (over R) or all of --g1 --g2 --g3")
    n = _length(args)
    # a generator that does not parse, or is of degree above n, is a
    # configuration error; one that parses but does not define a code, or
    # over a field too large for arithmetic, is a code error (exit 1)
    try:
        if args.g:
            coeffs = ring_coeffs_from_string(args.g, fld, max_degree=n)
            gs = project_components(coeffs, fld, args.aut)
        else:
            gs = [
                poly_from_string(s, fld, args.aut, max_degree=n)
                for s in (args.g1, args.g2, args.g3)
            ]
    except EnumerationTooLarge:
        raise
    except (ValueError, FieldError) as exc:
        raise CliConfigError(f"bad generator polynomial: {exc}") from exc
    return code_from_components(*(component_code_new(n, g) for g in gs))


def _combined_text(polys) -> str:
    """eta1*f1 + eta2*f2 + eta3*f3 over R, as text."""
    return poly_to_string(ring_skew_poly_combine(*polys))


def _parse_word(args, fld: Field):
    try:
        return ring_vector_from_string(fld, args.word)
    except EnumerationTooLarge:
        raise
    except (ValueError, FieldError) as exc:
        raise CliConfigError(f"bad word {args.word!r}: {exc}") from exc


def _emit(payload: dict, table_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_field(args) -> int:
    if args.action != "check":
        raise CliConfigError(f"unknown field action {args.action!r}")
    fld = _parse_field(args)
    payload = {
        "field": field_to_json(fld),
        "q": fld.q,
        "valid": True,
    }
    _emit(
        payload,
        [
            f"field F_{fld.q} = Z_{fld.p}[w]/(f), f = {list(fld.modulus)}",
            f"q = {fld.q}, modulus irreducible: yes",
        ],
        args.format,
    )
    return 0


def cmd_factor(args) -> int:
    fld = _parse_field(args)
    _length(args)
    # the count refuses gcd(n, t_i) != 1 and n' past FACTOR_LIMIT before
    # anything is factored
    over_field, over_ring = count_skew_cyclic_codes(args.n, fld, args.aut)
    fac = factor_xn_minus_1(args.n, fld, args.aut)
    payload = {
        "field": field_to_json(fld),
        "aut": args.aut,
        "n": args.n,
        "factors": [
            {"poly": poly_to_string(g), "multiplicity": s} for g, s in fac.factors
        ],
        "codes_over_field": over_field,
        "codes_over_ring": over_ring,
    }
    lines = [f"x^{args.n} - 1 over F_{fld.p ** args.aut}:"]
    for g, s in fac.factors:
        lines.append(f"  ({poly_to_string(g)})^{s}")
    lines.append(f"skew cyclic codes over F_{fld.q}: {over_field}")
    lines.append(f"skew cyclic codes over R:       {over_ring}")
    _emit(payload, lines, args.format)
    return 0


def _code_payload(code) -> dict:
    block = codes_mod.code_to_json(code)
    return {
        "code": block,
        "dims": [c.dim for c in code.components],
        "cardinality": code.size,
        "combined_generator": _combined_text(c.g for c in code.components),
    }


def cmd_code(args) -> int:
    fld = _parse_field(args)
    code = _parse_code(args, fld)
    action = args.action
    if action == "build":
        payload = _code_payload(code)
        _emit(
            payload,
            [
                f"skew cyclic code over R, n = {code.n}, aut = {code.aut}",
                f"generators: {', '.join(poly_to_string(c.g) for c in code.components)}",
                f"dims: {[c.dim for c in code.components]}  |C| = {code.size}",
                f"combined generator: {payload['combined_generator']}",
            ],
            args.format,
        )
        return 0
    if action == "dual":
        dual = code.dual()
        payload = _code_payload(code)
        payload["dual"] = codes_mod.code_to_json(dual)
        payload["h"] = [poly_to_string(c.h) for c in code.components]
        payload["htilde"] = [
            poly_to_string(c.reciprocal_cofactor()) for c in code.components
        ]
        payload["dual_generators"] = [poly_to_string(c.g) for c in dual.components]
        payload["dual_combined_generator"] = _combined_text(c.g for c in dual.components)
        payload["dual_cardinality"] = dual.size
        lines = [f"dual of code with n = {code.n}:"]
        for k, c in enumerate(code.components, 1):
            lines.append(f"  h{k} = {poly_to_string(c.h)}")
            lines.append(f"  h~{k} = {poly_to_string(c.reciprocal_cofactor())}")
        lines.append(
            "dual generators: "
            + ", ".join(poly_to_string(c.g) for c in dual.components)
        )
        lines.append(f"dual combined generator: {payload['dual_combined_generator']}")
        lines.append(f"|dual| = {dual.size}")
        _emit(payload, lines, args.format)
        return 0
    if action == "gray":
        if args.word:
            word = _parse_word(args, fld)
            member = code.contains(word)  # checks the word before it is mapped
            img = gray_map(word)
            payload = _code_payload(code)
            payload["word"] = ring_vector_to_string(word)
            payload["gray_image"] = [str(x) for x in img]
            payload["lee_weight"] = lee_weight(word)
            payload["member"] = member
            _emit(
                payload,
                [
                    f"gray image: {' '.join(str(x) for x in img)}",
                    f"lee weight: {lee_weight(word)}",
                ],
                args.format,
            )
            return 0
        rows = code.gray_generator_rows()
        from . import linalg

        rank = linalg.rank(linalg.to_index_rows(rows, fld), fld)
        payload = _code_payload(code)
        payload["gray_generator_matrix"] = [[str(x) for x in row] for row in rows]
        payload["gray_rank"] = rank
        payload["gray_length"] = 3 * code.n
        lines = [f"gray image parameters: [{3 * code.n}, {rank}] over F_{fld.q}"]
        for row in rows:
            lines.append("  " + " ".join(str(x) for x in row))
        _emit(payload, lines, args.format)
        return 0
    if action == "matrix":
        rows = code.generator_rows()
        payload = _code_payload(code)
        payload["generator_matrix"] = [[str(x) for x in row] for row in rows]
        lines = [f"generator matrix over R ({len(rows)} rows):"]
        for row in rows:
            lines.append("  " + "  ".join(str(x) for x in row))
        _emit(payload, lines, args.format)
        return 0
    if action == "distance":
        dist = code.min_lee_distance(args.bound)
        payload = _code_payload(code)
        payload["min_lee_distance"] = dist.value
        payload["degenerate"] = dist.degenerate
        payload["component_distances"] = [
            None
            if c.is_zero_code()
            else c.min_hamming_distance(args.bound).value
            for c in code.components
        ]
        label = f"{dist.value}" + (" (zero code)" if dist.degenerate else "")
        _emit(payload, [f"min Lee distance: {label}"], args.format)
        return 0
    if action == "idempotent":
        es = code.idempotent_generator()
        payload = _code_payload(code)
        payload["idempotent"] = _combined_text(es)
        payload["component_idempotents"] = [poly_to_string(e) for e in es]
        payload["idempotent_verified"] = True
        _emit(
            payload,
            [
                f"idempotent generator (e*e = e mod x^{code.n} - 1, verified):",
                f"  e = {payload['idempotent']}",
            ],
            args.format,
        )
        return 0
    if action == "contains":
        if not args.word:
            raise CliConfigError("contains requires --word")
        word = _parse_word(args, fld)
        member = code.contains(word)
        payload = _code_payload(code)
        payload["word"] = ring_vector_to_string(word)
        payload["member"] = member
        _emit(payload, [f"member: {member}"], args.format)
        return 0
    raise CliConfigError(f"unknown code action {action!r}")


def _distance_or_none(comp, bound: int) -> int | None:
    try:
        return comp.min_hamming_distance(bound).value
    except EnumerationTooLarge:
        return None


# one element of "rows" as json.dumps(payload, indent=2, sort_keys=True) writes it
_JSON_ROW = (
    '    {\n      "cardinality": %d,\n      "degenerate": %s,\n      "g1": %s,\n'
    '      "g2": %s,\n      "g3": %s,\n      "min_lee_distance": %s\n    }'
)


def cmd_census(args) -> int:
    fld = _parse_field(args)
    comps, count, formula = codes_mod.census_components(_length(args), fld, args.aut, args.bound)
    # all that can fail runs here, once per component, before the first
    # byte, so a refusal or an error leaves stdout empty. Distance law:
    # d_L(C) is the least Hamming distance of the nonzero components, each
    # enumerated once, on the smaller of itself and its dual
    texts = [poly_to_string(c.g) for c in comps]
    sizes = [c.size for c in comps]
    zero = [c.is_zero_code() for c in comps]
    dists = [_distance_or_none(c, args.distance_bound) for c in comps]

    def rows():
        """(a, b, c, |C|, d_L or None, degenerate) per index triple, in census order."""
        for a, b, c in itertools.product(range(len(comps)), repeat=3):
            ds = [dists[k] for k in (a, b, c) if not zero[k]]
            dist = 0 if not ds else None if None in ds else min(ds)
            yield a, b, c, sizes[a] * sizes[b] * sizes[c], dist, not ds

    write = sys.stdout.write
    if args.format == "json":
        payload = {
            "field": field_to_json(fld),
            "aut": args.aut,
            "n": args.n,
            "count": count,
            "count_formula": formula,
            "rows": [],
        }
        # "rows" sorts last: the header ends in "[]\n}", and the rows go in between
        write(json.dumps(payload, indent=2, sort_keys=True)[:-3])
        quoted = [json.dumps(t) for t in texts]
        sep = "\n"
        for a, b, c, size, dist, degenerate in rows():
            flag, d = "true" if degenerate else "false", "null" if dist is None else dist
            write(sep + _JSON_ROW % (size, flag, quoted[a], quoted[b], quoted[c], d))
            sep = ",\n"
        write("\n  ]\n}\n")
        return 0
    write(f"census of skew cyclic codes over R, n = {args.n}, q = {fld.q}: {count} codes\n")
    for a, b, c, size, dist, _ in rows():
        d = "-" if dist is None else dist
        write(f"  ({texts[a]} | {texts[b]} | {texts[c]})  |C| = {size}  d = {d}\n")
    return 0


def cmd_verify(args) -> int:
    if args.matrix:
        try:
            with open(args.matrix) as fh:
                entries = oracle_mod.matrix_from_json(json.load(fh), args.seed)
        except (OSError, ValueError) as exc:  # MatrixError and JSON errors included
            raise CliConfigError(f"bad matrix file {args.matrix!r}: {exc}") from exc
    else:
        entries = oracle_mod.default_matrix(args.seed)
    reports = oracle_mod.verify_all(entries, inject_broken=args.inject_broken)
    for rep in reports:
        print(rep.to_json())
    failed = [r for r in reports if not r.passed]
    print()
    print(f"claims checked: {len(reports)}, passed: {len(reports) - len(failed)}, "
          f"failed: {len(failed)}")
    for r in failed:
        print(f"  FAIL {r.claim} on {json.dumps(r.config, sort_keys=True)}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    """argparse type of the bounds: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_common(sp, with_n=True):
    sp.add_argument("--field", help="field spec, e.g. p=3,m=2,mod=1,0,1")
    sp.add_argument("--aut", type=int, default=1, help="automorphism exponent i")
    if with_n:
        sp.add_argument("--n", type=int, help="code length")
    sp.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewcyclic",
        description="exact computations with skew cyclic codes over "
        "F_q + vF_q + v^2F_q (v^3 = v)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="field utilities")
    sp.add_argument("action", choices=("check",))
    _add_common(sp, with_n=False)
    sp.set_defaults(func=cmd_field)

    sp = sub.add_parser("factor", help="factor x^n - 1 and count codes")
    _add_common(sp)
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("code", help="operations on a single code")
    sp.add_argument(
        "action",
        choices=("build", "dual", "gray", "matrix", "distance", "idempotent", "contains"),
    )
    _add_common(sp)
    sp.add_argument("--g1", help="first component generator over F_q")
    sp.add_argument("--g2", help="second component generator over F_q")
    sp.add_argument("--g3", help="third component generator over F_q")
    sp.add_argument("--g", help="combined generator over R")
    sp.add_argument("--word", help="vector over R, semicolon-separated a|b|c elements")
    sp.add_argument(
        "--bound",
        type=non_negative_int,
        default=DISTANCE_LIMIT,
        help="distance: refuse a component when the smaller of it and its "
        "dual exceeds this many words",
    )
    sp.set_defaults(func=cmd_code)

    sp = sub.add_parser("census", help="list every skew cyclic code of length n")
    _add_common(sp)
    sp.add_argument("--bound", type=non_negative_int, default=CENSUS_LIMIT, help="max codes over R")
    sp.add_argument(
        "--distance-bound",
        type=non_negative_int,
        default=DISTANCE_LIMIT,
        help="leave a distance empty when a component's smaller side (the "
        "component or its dual) exceeds this many words",
    )
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--matrix", help="JSON file with test matrix entries")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--inject-broken",
        action="store_true",
        help="also run the suite on a deliberately corrupted code "
        "(must fail, demonstrating witnesses)",
    )
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _reject_lone_dashes(args)
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return rc
    except BrokenPipeError:
        # the reader went away (`verify | head`); send what is left of
        # stdout, the interpreter's final flush included, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CliConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CodeError, SkewPolyError, FieldError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
