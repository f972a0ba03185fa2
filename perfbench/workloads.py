"""The benchmark's workloads: inputs drawn from a seed, the operations, and their checks.

Every operation is either a CLI request run in-process through
``moment_angle.cli.main`` or a public library call.  Its result is reduced to
a seed-invariant key whose sha256 must match the digest recorded in
``corpus.json``; workload-level oracles (Hochster against Cai ranks, the
exhaustive m = 10 search finding nothing, formal iff n <= 3) run on top.

The seed fixes, for every pass over a workload, a vertex relabelling of each
``betti``/``search`` input complex and graph, and the order of the ``family``
operations.  The program only ever sees the generated inputs.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CORPUS = json.loads((Path(__file__).resolve().parent / "corpus.json").read_text())


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` returns a JSON-able result, ``key`` its seed-invariant part."""

    name: str
    call: Callable
    key: Callable


class OpFailed(Exception):
    """The program rejected a request it should have answered."""


def digest(value):
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _whole(result):
    return result


# -- inputs -------------------------------------------------------------------------


def polygon_nonfaces(m):
    """Minimal non-faces of the m-cycle: all non-adjacent vertex pairs."""
    return [[a, b] for a in range(1, m + 1) for b in range(a + 2, m + 1) if (a, b) != (1, m)]


def relabel_complex(m, nonfaces, rng):
    perm = rng.sample(range(1, m + 1), m)
    return {"m": m, "minimal_nonfaces": sorted(sorted(perm[v - 1] for v in nf) for nf in nonfaces)}


def relabel_graph(n, edges, rng):
    perm = rng.sample(range(1, n + 1), n)
    return {"n": n, "edges": sorted(sorted((perm[a - 1], perm[b - 1])) for a, b in edges)}


# -- operation runners ----------------------------------------------------------------


def cli_op(name, argv, key=_whole):
    """A CLI request; the result block of its JSON document is the op's result."""

    def call():
        from moment_angle import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the request
            code = exc.code
        if code != 0:
            raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue())["result"]

    return Op(name, call, key)


def report_dict(report):
    """Canonical JSON form of a MasseyReport, built from its public fields only."""
    out = {
        "order": report.order,
        "supports": [list(s) for s in report.supports],
        "reduced_degrees": list(report.reduced_degrees),
        "status": report.status,
    }
    if report.conditions is not None:
        out["conditions"] = [
            [row.start, row.end, list(row.support), row.obstruction_degree,
             row.rank_below, row.rank_at]
            for row in report.conditions.rows
        ]
    if report.value is not None:
        out["value"] = {
            "support": list(report.value.support),
            "total_degree": report.value.total_degree,
            "class_coordinates": [str(c) for c in report.value.class_coordinates],
            "representative": repr(report.value.cochain),
        }
    if report.triple is not None:
        out["indeterminacy_basis"] = [
            [str(c) for c in vec] for vec in report.triple.indeterminacy_basis
        ]
        out["nontrivial"] = report.triple.nontrivial
    if report.failure is not None:
        out["failure"] = {
            "cell": list(report.failure.cell),
            "obstruction": [str(c) for c in report.failure.obstruction],
        }
    return out


def degrees_op(ks):
    def call():
        from moment_angle.massey import degree_prescribed_input, massey_product

        return report_dict(massey_product(degree_prescribed_input(ks)))

    return Op("family/degrees-" + ",".join(map(str, ks)), call, _whole)


def formality_key(result):
    """The parts of a formality verdict that do not depend on the vertex order."""
    witness = result.get("witness")
    if witness is not None:
        witness = {
            "support_sizes": [len(s) for s in witness["supports"]],
            "indeterminacy_dimension": witness["indeterminacy_dimension"],
            "nontrivial": witness["nontrivial"],
        }
    return {"formal": result["formal"], "diffeo_type": result["diffeo_type"], "witness": witness}


# -- the workloads --------------------------------------------------------------------


def _inline(doc):
    return json.dumps(doc, separators=(",", ":"))


def betti_ops(rng):
    complexes = {
        "polygon13": (13, polygon_nonfaces(13)),
        "c4nerve": (12, CORPUS["complexes"]["c4nerve"]),
        "9gon": (9, polygon_nonfaces(9)),
        "p4nerve": (9, CORPUS["complexes"]["p4nerve"]),
    }
    docs = {name: _inline(relabel_complex(m, nf, rng)) for name, (m, nf) in complexes.items()}
    ops = [cli_op(f"betti/{name}", ["betti", "--inline", doc]) for name, doc in docs.items()]
    ops += [
        cli_op(f"real-betti/{name}", ["real-betti", "--inline", docs[name]])
        for name in ("9gon", "p4nerve")
    ]
    return ops


def search_ops(rng):
    doc = _inline(relabel_complex(10, polygon_nonfaces(10), rng))
    ops = [cli_op("search/polygon10", ["massey", "--inline", doc, "--search-triples"])]
    for name, graph in CORPUS["graphs"].items():
        doc = _inline(relabel_graph(graph["n"], graph["edges"], rng))
        ops.append(cli_op(f"formality/{name}", ["graphassoc", "--inline", doc, "--formality"],
                          formality_key))
    return ops


FAMILY_NS = [(n, s) for n in (2, 3, 4) for s in (1, 2)] + [(5, 1)]
FAMILY_DEGREES = [(a, b, c) for a in (3, 5, 7) for b in (3, 5, 7) for c in (3, 5, 7)] + [
    (3, 3, 3, 3), (5, 3, 3, 5), (3, 5, 5, 3), (3, 3, 3, 3, 3)
]


def family_ops(rng):
    ops = [cli_op(f"family/massey-family-{n},{s}", ["massey", "--family", f"{n},{s}"])
           for n, s in FAMILY_NS]
    ops += [degrees_op(ks) for ks in FAMILY_DEGREES]
    rng.shuffle(ops)
    return ops


OP_LISTS = {"betti": betti_ops, "search": search_ops, "family": family_ops}


def make_pass(workload, seed, pass_no):
    """The op list of one pass; its inputs are drawn from (workload, seed, pass_no)."""
    return OP_LISTS[workload](random.Random(f"{workload}:{seed}:{pass_no}"))


# -- checks ---------------------------------------------------------------------------


def _trimmed(vector):
    vector = list(vector)
    while vector and vector[-1] == 0:
        vector.pop()
    return vector


def oracle_failures(workload, results):
    """Names of ops whose results break a workload oracle; ``results`` maps name -> result."""
    bad = []
    if workload == "betti":
        for name in ("9gon", "p4nerve"):
            table, cai = results.get(f"betti/{name}"), results.get(f"real-betti/{name}")
            if table is not None and cai is not None:
                if _trimmed(table["rk_poincare"]) != _trimmed(cai["ranks"]):
                    bad.append(f"real-betti/{name}")
    elif workload == "search":
        found = results.get("search/polygon10")
        if found is not None and found != {"witness_found": False}:
            bad.append("search/polygon10")
        for name, graph in CORPUS["graphs"].items():
            verdict = results.get(f"formality/{name}")
            if verdict is None:
                continue
            if verdict["formal"] != (graph["n"] <= 3) or (verdict["formal"] == ("witness" in verdict)):
                bad.append(f"formality/{name}")
    elif workload == "family":
        for name, report in results.items():
            value = report.get("value")
            if report["status"] != "defined-strict" or value is None or not any(
                c != "0" for c in value["class_coordinates"]
            ):
                bad.append(name)
    return bad
