"""Command-line front end with stable JSON input and output.

Every command reads one input document (``--input FILE`` or ``--inline JSON``)
and writes one JSON document: a ``meta`` block (tool version, input digest,
elapsed milliseconds) and a ``result`` block whose content is deterministic,
so identical inputs always produce byte-identical result blocks.  The input
is read and parsed once, so the digest describes the document the command
computed on.  Vertices are 1-indexed in all documents.

Exit codes: 0 success, 1 invalid input (command-line usage errors included)
or an output that cannot be written (an unwritable ``--out``, or a reader
that closed stdout), 2 capacity exceeded (the guard that fired is named in
the error message).

Each command imports the modules it runs when it is called, so a request
loads only those (``betti`` never loads the Massey or graph modules).
"""

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__
from .complexes import SimplicialComplex, _as_list, _mask_of
from .errors import CapacityError, InputError


def _load_input(args):
    if getattr(args, "inline", None) is not None:
        if getattr(args, "input", None) is not None:
            raise InputError("give exactly one of --input and --inline")
        text = args.inline
    elif getattr(args, "input", None) is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read --input: {exc}") from exc
    else:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc


def _int_list(text, flag):
    """The comma-separated integers of a flag; a blank entry is an input error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:  # int() rejects a blank entry too
        raise InputError(f"{flag} expects comma-separated integers: {text!r}") from exc


def _complex_result(K):
    return K.to_json_dict(include_maximal=True)


def _value_dict(value):
    return {
        "support": list(value.support),
        "total_degree": value.total_degree,
        "class_coordinates": [str(c) for c in value.class_coordinates],
        "is_zero": value.is_zero,
        "representative": repr(value.cochain),
    }


def _conditions_list(table):
    return [
        {
            "window": [row.start, row.end],
            "support": list(row.support),
            "obstruction_degree": row.obstruction_degree,
            "rank_below": row.rank_below,
            "rank_at": row.rank_at,
        }
        for row in table.rows
    ]


def _massey_report_dict(report):
    out = {
        "order": report.order,
        "supports": [list(s) for s in report.supports],
        "reduced_degrees": list(report.reduced_degrees),
        "status": report.status,
    }
    if report.conditions is not None:
        out["conditions"] = _conditions_list(report.conditions)
        out["uniqueness_holds"] = report.conditions.uniqueness_holds
        out["solvability_holds"] = report.conditions.solvability_holds
    if report.value is not None:
        out["value"] = _value_dict(report.value)
    if report.triple is not None:
        out["indeterminacy_dimension"] = len(report.triple.indeterminacy_basis)
        out["indeterminacy_basis"] = [
            [str(c) for c in vec] for vec in report.triple.indeterminacy_basis
        ]
        out["contains_zero"] = report.triple.contains_zero
        out["nontrivial"] = report.triple.nontrivial
    if report.failure is not None:
        out["failure"] = {
            "cell": list(report.failure.cell),
            "support": list(report.failure.support),
            "total_degree": report.failure.total_degree,
            "obstruction": [str(c) for c in report.failure.obstruction],
        }
    return out


def _cmd_homology(args, data):
    from .rational_linalg import reduced_cohomology_ranks

    K = SimplicialComplex.from_json_dict(_require_input(data))
    profile = reduced_cohomology_ranks(K)
    return {"m": K.m, "ranks": [[d, r] for d, r in profile.items()]}


def _cmd_betti(args, data):
    from .hochster import bigraded_betti_table

    K = SimplicialComplex.from_json_dict(_require_input(data))
    multidegrees = None
    if args.multidegree is not None:
        J = _int_list(args.multidegree, "--multidegree")
        if len(set(J)) != len(J):
            raise InputError(f"--multidegree repeats a vertex: {args.multidegree!r}")
        multidegrees = [J]
    table = bigraded_betti_table(K, multidegrees=multidegrees)
    return {
        "bigraded": [[i, j, r] for i, j, r in table.sorted_entries()],
        "zk_poincare": list(table.zk_poincare),
        "rk_poincare": list(table.rk_poincare),
    }


def _cmd_multiwedge(args, data):
    from .multiwedge import j_construction

    K = SimplicialComplex.from_json_dict(_require_input(data))
    if not args.j:
        raise InputError("multiwedge needs --j with the copy counts")
    J = _int_list(args.j, "--j")
    return _complex_result(j_construction(K, J))


def _cmd_real_betti(args, data):
    from .real_cochains import real_cohomology_ranks

    K = SimplicialComplex.from_json_dict(_require_input(data))
    return {"m": K.m, "ranks": list(real_cohomology_ranks(K))}


def _cmd_family(args, data):
    from .families import FamilySpec, family_complex

    if not args.name:
        raise InputError("family needs --name")
    degrees = _int_list(args.degrees, "--degrees") if args.degrees is not None else None
    spec = FamilySpec(name=args.name, n=args.n, s=args.s, m=args.m, degrees=degrees)
    return _complex_result(family_complex(spec))


def _cmd_massey(args, data):
    from .massey import (
        MasseyInput,
        canonical_class,
        massey_product,
        search_triple_products,
        verify_family_massey,
    )

    if args.family is not None:
        family = _int_list(args.family, "--family")
        if len(family) != 2:
            raise InputError("--family expects n,s")
        n, s = family
        family_report = verify_family_massey(n, s)
        out = _massey_report_dict(family_report.report)
        out["family"] = {"n": n, "s": s}
        out["subproducts"] = [
            {
                "start": sub.start,
                "order": sub.order,
                "status": sub.status,
                "value_is_zero": sub.value_is_zero,
            }
            for sub in family_report.subproducts
        ]
        return out

    K = SimplicialComplex.from_json_dict(_require_input(data))
    if args.search_triples:
        profile = tuple(_int_list(args.profile, "--profile")) if args.profile is not None else None
        witness = search_triple_products(K, profile=profile)
        if witness is None:
            return {"witness_found": False}
        out = _massey_report_dict(witness)
        out["witness_found"] = True
        return out

    if not args.supports:
        raise InputError("massey needs --supports (or --family / --search-triples)")
    try:
        supports = json.loads(args.supports)
    except json.JSONDecodeError as exc:
        raise InputError(f"--supports is not valid JSON: {exc}") from exc
    supports = [tuple(_as_list(s, "a support")) for s in _as_list(supports, "--supports")]
    for s in supports:
        # every vertex an int (not a bool) in 1..m, none of them twice
        if _mask_of(s, K.m).bit_count() != len(s):
            raise InputError(f"--supports repeats a vertex: {list(s)}")
    degrees = [0] * len(supports)
    if args.degrees is not None:
        degrees = _int_list(args.degrees, "--degrees")
    if len(degrees) != len(supports):
        raise InputError("--degrees must match the number of supports")
    classes = [canonical_class(K, s, d) for s, d in zip(supports, degrees)]
    return _massey_report_dict(massey_product(MasseyInput(K, classes)))


def _cmd_graphassoc(args, data):
    from .graphs import Graph, associahedron_nerve, formality_classify

    G = Graph.from_json_dict(_require_input(data))
    if args.formality:
        verdict = formality_classify(G)
        out = {
            "formal": verdict.formal,
            "components": [
                {"vertices": list(c.vertices), "kind": c.kind, "factor": c.factor}
                for c in verdict.components
            ],
            "diffeo_type": list(verdict.diffeo_type),
        }
        if verdict.witness is not None:
            out["witness"] = _massey_report_dict(verdict.witness)
        return out
    return _complex_result(associahedron_nerve(G))


def _require_input(data):
    if data is None:
        raise InputError("this command needs --input FILE or --inline JSON")
    return data


_COMMANDS = {
    "homology": _cmd_homology,
    "betti": _cmd_betti,
    "multiwedge": _cmd_multiwedge,
    "real-betti": _cmd_real_betti,
    "family": _cmd_family,
    "massey": _cmd_massey,
    "graphassoc": _cmd_graphassoc,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors become input errors: exit 1 with one JSON line, like any bad input."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every call of ``main``.

    Each ``parse_args`` call fills a fresh namespace with its defaults, so
    no flag of one request reaches the next.
    """
    parser = _Parser(
        prog="moment-angle",
        description="Exact cohomology of moment-angle complexes and Massey products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", help="path to the input JSON document")
        p.add_argument("--inline", help="the input JSON document itself")
        p.add_argument("--out", help="output path (default: stdout)")

    add_io(sub.add_parser("homology", help="reduced cohomology ranks of a complex"))

    p = sub.add_parser("betti", help="bigraded Betti table and Poincare vectors")
    add_io(p)
    p.add_argument("--multidegree", help="restrict to one multidegree, e.g. \"1,3\"")

    p = sub.add_parser("multiwedge", help="simplicial multiwedge of a complex")
    add_io(p)
    p.add_argument("--j", help="copy counts, e.g. \"2,2,1,1\"")

    add_io(sub.add_parser("real-betti", help="cohomology ranks of the real model"))

    p = sub.add_parser("family", help="named complex families")
    add_io(p)
    p.add_argument("--name", help="k | kbar | kns | kbarns | polygon | degrees")
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--degrees", help="odd class dimensions, e.g. \"3,5,3\"")

    p = sub.add_parser("massey", help="Massey products: report, family check, or search")
    add_io(p)
    p.add_argument("--supports", help="JSON list of supports, e.g. \"[[1,4],[2,5],[3,6]]\"")
    p.add_argument("--degrees", help="reduced degrees per class, e.g. \"0,0,0\"")
    p.add_argument("--family", help="certify the family product, e.g. \"3,1\"")
    p.add_argument("--search-triples", action="store_true")
    p.add_argument("--profile", help="class dimensions for the search, e.g. \"5,3,5\"")

    p = sub.add_parser("graphassoc", help="graph-associahedron nerve / formality verdict")
    add_io(p)
    p.add_argument("--formality", action="store_true")
    return parser


def _digest(args, parsed_input):
    request = {
        "command": args.command,
        "input": parsed_input,
        "flags": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "input", "inline", "out") and v not in (None, False)
        },
    }
    blob = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        parsed_input = _load_input(args)
        result = _COMMANDS[args.command](args, parsed_input)
    except InputError as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}), file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(
            json.dumps({"error": str(exc), "kind": "capacity", "guard": exc.guard}),
            file=sys.stderr,
        )
        return 2
    document = {
        "meta": {
            "tool": "moment-angle",
            "version": __version__,
            "input_digest": _digest(args, parsed_input),
            "elapsed_ms": int((time.perf_counter() - started) * 1000),
        },
        "result": result,
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    out = getattr(args, "out", None)
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
            sys.stdout.flush()
    except OSError as exc:  # an unwritable --out, or a reader that closed stdout
        message = f"cannot write {'stdout' if out is None else '--out'}: {exc}"
        print(json.dumps({"error": message, "kind": "input"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
