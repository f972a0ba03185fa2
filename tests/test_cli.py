import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

import moment_angle
from moment_angle.cli import build_parser, main
from moment_angle.complexes import VERTEX_CAPACITY

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"

HEXAGON = json.dumps(
    {
        "m": 6,
        "minimal_nonfaces": [
            [1, 3], [1, 4], [1, 5], [2, 4], [2, 5], [2, 6], [3, 5], [3, 6], [4, 6],
        ],
    }
)


def schema(name):
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(document, result_schema):
    jsonschema.validate(document, schema("envelope.schema.json"))
    jsonschema.validate(document["result"], schema(result_schema))


def test_homology(capsys):
    code, out, _ = run(capsys, ["homology", "--inline", HEXAGON])
    assert code == 0
    document = json.loads(out)
    validate(document, "homology.schema.json")
    assert document["result"]["ranks"] == [[-1, 0], [0, 0], [1, 1]]


def test_betti_hexagon(capsys):
    code, out, _ = run(capsys, ["betti", "--inline", HEXAGON])
    assert code == 0
    document = json.loads(out)
    validate(document, "betti.schema.json")
    assert [1, 2, 9] in document["result"]["bigraded"]
    assert document["result"]["zk_poincare"] == [1, 0, 0, 9, 16, 9, 0, 0, 1]


def test_multiwedge(capsys):
    code, out, _ = run(
        capsys,
        ["multiwedge", "--inline", '{"m":2,"minimal_nonfaces":[[1,2]]}', "--j", "2,1"],
    )
    assert code == 0
    document = json.loads(out)
    validate(document, "complex.schema.json")
    assert document["result"]["minimal_nonfaces"] == [[1, 2, 3]]


def test_real_betti(capsys):
    code, out, _ = run(
        capsys, ["real-betti", "--inline", '{"m":4,"minimal_nonfaces":[[1,3],[2,4]]}']
    )
    assert code == 0
    document = json.loads(out)
    validate(document, "realbetti.schema.json")
    assert document["result"]["ranks"] == [1, 2, 1]


def test_family(capsys):
    code, out, _ = run(capsys, ["family", "--name", "kbarns", "--n", "3", "--s", "2"])
    assert code == 0
    document = json.loads(out)
    validate(document, "complex.schema.json")
    assert document["result"]["m"] == 9


def test_massey_family(capsys):
    code, out, _ = run(capsys, ["massey", "--family", "3,1"])
    assert code == 0
    document = json.loads(out)
    validate(document, "massey.schema.json")
    result = document["result"]
    assert result["status"] == "defined-strict"
    assert result["value"]["is_zero"] is False
    assert all(sub["value_is_zero"] for sub in result["subproducts"])


def test_massey_supports(capsys):
    code, out, _ = run(
        capsys,
        [
            "massey",
            "--inline",
            HEXAGON,
            "--supports",
            "[[1,4],[2,5],[3,6]]",
            "--degrees",
            "0,0,0",
        ],
    )
    assert code == 0
    document = json.loads(out)
    validate(document, "massey.schema.json")
    result = document["result"]
    assert result["status"] == "defined"
    assert result["contains_zero"] is True
    assert result["indeterminacy_dimension"] == 1


def test_massey_search(capsys):
    nerve_req = [
        "graphassoc",
        "--inline",
        '{"n":4,"edges":[[1,2],[2,3],[3,4]]}',
    ]
    code, out, _ = run(capsys, nerve_req)
    assert code == 0
    nerve = json.loads(out)["result"]
    validate(json.loads(out), "complex.schema.json")
    code, out, _ = run(
        capsys,
        ["massey", "--inline", json.dumps(nerve), "--search-triples"],
    )
    assert code == 0
    document = json.loads(out)
    validate(document, "massey.schema.json")
    assert document["result"]["witness_found"] is True
    assert document["result"]["nontrivial"] is True


def test_massey_search_with_profile(capsys):
    code, out, _ = run(
        capsys,
        [
            "graphassoc",
            "--inline",
            '{"n":4,"edges":[[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}',
        ],
    )
    nerve = json.loads(out)["result"]
    code, out, _ = run(
        capsys,
        ["massey", "--inline", json.dumps(nerve), "--search-triples", "--profile", "5,3,5"],
    )
    assert code == 0
    document = json.loads(out)
    validate(document, "massey.schema.json")
    result = document["result"]
    assert result["witness_found"] is True
    assert result["value"]["total_degree"] == 12


def test_graphassoc_formality(capsys):
    code, out, _ = run(
        capsys,
        ["graphassoc", "--formality", "--inline", '{"n":3,"edges":[[1,2],[2,3],[1,3]]}'],
    )
    assert code == 0
    document = json.loads(out)
    validate(document, "formality.schema.json")
    assert document["result"]["formal"] is True
    assert document["result"]["diffeo_type"] == ["(S^3 x S^5)^#9 # (S^4 x S^4)^#8"]


def test_graphassoc_nonformal(capsys):
    code, out, _ = run(
        capsys,
        ["graphassoc", "--formality", "--inline", '{"n":4,"edges":[[1,2],[2,3],[3,4]]}'],
    )
    assert code == 0
    document = json.loads(out)
    validate(document, "formality.schema.json")
    assert document["result"]["formal"] is False
    jsonschema.validate(document["result"]["witness"], schema("massey.schema.json"))
    assert document["result"]["witness"]["nontrivial"] is True


def test_determinism_of_result_blocks(capsys):
    _, first, _ = run(capsys, ["betti", "--inline", HEXAGON])
    _, second, _ = run(capsys, ["betti", "--inline", HEXAGON])
    assert json.loads(first)["result"] == json.loads(second)["result"]
    blob1 = json.dumps(json.loads(first)["result"], sort_keys=True)
    blob2 = json.dumps(json.loads(second)["result"], sort_keys=True)
    assert blob1 == blob2


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, ["homology", "--inline", "not json"])
    assert code == 1
    assert json.loads(err)["kind"] == "input"
    code, _, err = run(capsys, ["homology", "--inline", '{"m":3,"minimal_nonfaces":[[5,6]]}'])
    assert code == 1


def test_capacity_exit_code(capsys):
    big = json.dumps({"m": 23, "minimal_nonfaces": [[1, 2]]})
    code, _, err = run(capsys, ["betti", "--inline", big])
    assert code == 2
    assert json.loads(err)["guard"] == "betti-table"


def assert_one_capacity_error(code, err, guard):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    document = json.loads(lines[0])
    assert document["kind"] == "capacity" and document["guard"] == guard
    return document


@pytest.mark.parametrize(
    "flags",
    [
        ["--name", "kns", "--n", "100000", "--s", "1"],
        ["--name", "k", "--n", "65"],
        ["--name", "polygon", "--m", "1000000000"],
        ["--name", "degrees", "--degrees", "3,1000000001"],
    ],
)
def test_family_size_capacity_exit_code(capsys, flags):
    # rejected from the vertex count alone: no non-face is built
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, err = run(capsys, ["family", *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_one_capacity_error(code, err, "family-size")
    assert peak < 1_000_000


def test_family_size_capacity_keeps_input_errors_first(capsys):
    code, _, err = run(capsys, ["family", "--name", "degrees", "--degrees", "4,1000000001"])
    assert code == 1
    code, _, err = run(capsys, ["family", "--name", "polygon", "--m", "3"])
    assert code == 1


def test_family_order_capacity_exit_code(capsys):
    code, out, err = run(capsys, ["massey", "--family", "9,1"])
    assert out == ""
    document = assert_one_capacity_error(code, err, "family-order")
    assert "n = 9 exceeds capacity 8" in document["error"]


def test_maximal_faces_capacity_exit_code(capsys):
    # vertex 1 wedged 99,999 times: its non-face with 3 has 100,000
    # vertices, so the dualization would start from 100,000 candidates
    square = '{"m":4,"minimal_nonfaces":[[1,3],[2,4]]}'
    code, _, err = run(capsys, ["multiwedge", "--inline", square, "--j", "99999,1,1,1"])
    document = assert_one_capacity_error(code, err, "maximal-faces")
    assert "100000 candidate transversals after 0 of 2 sets" in document["error"]
    code, _, err = run(capsys, ["multiwedge", "--inline", square, "--j", "999,1,1,1"])
    assert code == 0


def test_wedge_size_capacity_exit_code(capsys):
    # rejected from the wedge vector alone, before any non-face is inflated
    import time

    started = time.perf_counter()
    code, out, err = run(capsys, ["multiwedge", "--inline", HEXAGON, "--j", "1000000,1,1,1,1,1"])
    assert time.perf_counter() - started < 5
    assert out == ""
    document = assert_one_capacity_error(code, err, "wedge-size")
    assert "1000005 vertices" in document["error"]


FULL_SIMPLEX_30 = '{"m":30,"minimal_nonfaces":[]}'
ALL_OF_30 = ",".join(map(str, range(1, 31)))


@pytest.mark.parametrize(
    "argv",
    [
        # the full 30-simplex: its face levels reach 155 million faces
        ["homology", "--inline", FULL_SIMPLEX_30],
        # the boundary of the 29-simplex is its own core, with as many faces
        # below the top level
        ["betti", "--multidegree", ALL_OF_30, "--inline",
         '{"m":30,"minimal_nonfaces":[[%s]]}' % ALL_OF_30],
    ],
    ids=lambda argv: argv[0],
)
def test_face_level_capacity_exit_code(capsys, argv):
    code, out, err = run(capsys, argv)
    assert out == ""
    document = assert_one_capacity_error(code, err, "face-level")
    assert "50001 faces of size 5 grown from" in document["error"]


def test_betti_multidegree_reads_the_core(capsys):
    # the full 30-simplex strong-collapses onto one vertex, so the listed
    # multidegree reads two levels of one face each: the empty table
    code, out, err = run(capsys, ["betti", "--multidegree", ALL_OF_30, "--inline", FULL_SIMPLEX_30])
    assert code == 0 and err == ""
    assert json.loads(out)["result"] == {"bigraded": [], "rk_poincare": [0], "zk_poincare": [0]}


def test_vertex_count_capacity_exit_code(capsys):
    # rejected before the full mask or the labels of the vertices are built
    huge = '{"m":1000000000000,"minimal_nonfaces":[]}'
    code, out, err = run(capsys, ["homology", "--inline", huge])
    assert out == ""
    document = assert_one_capacity_error(code, err, "vertex-count")
    assert "1000000000000 vertices" in document["error"]


def test_graph_vertex_count_capacity_exit_code(capsys):
    # refused before any edge, adjacency or component is built
    huge = '{"n":%d,"edges":[]}' % (VERTEX_CAPACITY + 1)
    code, out, err = run(capsys, ["graphassoc", "--formality", "--inline", huge])
    assert out == ""
    document = assert_one_capacity_error(code, err, "vertex-count")
    assert f"{VERTEX_CAPACITY + 1} vertices" in document["error"]


def test_search_candidate_capacity_exit_code(capsys, monkeypatch):
    import functools

    from moment_angle import massey

    monkeypatch.setattr(
        massey, "search_triple_products", functools.partial(massey.search_triple_products, capacity=3)
    )
    code, _, err = run(capsys, ["massey", "--inline", HEXAGON, "--search-triples"])
    assert code == 2
    document = json.loads(err)
    assert document["guard"] == "triple-search"
    assert "3 of the 15 candidate supports" in document["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["homology"],
        ["betti", "--multidegree", "1,3"],
        ["real-betti"],
        ["massey", "--supports", "[[1,4],[2,5],[3,6]]"],
        ["family", "--name", "polygon", "--m", "5"],
    ],
)
def test_input_is_parsed_once_per_request(capsys, monkeypatch, tmp_path, argv):
    from moment_angle import cli

    calls = []

    def counted(args):
        calls.append(args)
        return load(args)

    load = cli._load_input
    monkeypatch.setattr(cli, "_load_input", counted)
    path = tmp_path / "hexagon.json"
    path.write_text(HEXAGON)
    code, _, _ = run(capsys, [*argv, "--input", str(path)])
    assert code == 0
    assert len(calls) == 1


def fresh_process_document(argv):
    """The JSON document of a request made first in a new interpreter."""
    src = Path(moment_angle.__file__).resolve().parents[1]
    completed = subprocess.run(
        [sys.executable, "-m", "moment_angle.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


@pytest.mark.parametrize(
    "requests",
    [
        [["massey", "--inline", HEXAGON, "--search-triples"], ["massey", "--family", "3,1"]],
        [["betti", "--inline", HEXAGON, "--multidegree", "1,3"], ["betti", "--inline", HEXAGON]],
    ],
    ids=["massey", "betti"],
)
def test_one_parser_serves_every_request_of_a_process(capsys, requests):
    # the parser is built once per process; the flags of one request must not
    # reach the next, so each document is the one a fresh process writes
    assert build_parser() is build_parser()
    for argv in requests:
        code, out, _ = run(capsys, argv)
        assert code == 0
        document, fresh = json.loads(out), fresh_process_document(argv)
        assert document["meta"]["input_digest"] == fresh["meta"]["input_digest"]
        assert document["result"] == fresh["result"]


def test_missing_input_is_an_error(capsys):
    code, _, err = run(capsys, ["homology"])
    assert code == 1


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, ["homology", "--inline", HEXAGON, "--out", str(out_path)])
    assert code == 0
    assert out == ""
    document = json.loads(out_path.read_text())
    assert document["result"]["m"] == 6


def assert_one_input_error(code, err):
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1
    document = json.loads(lines[0])
    assert document["kind"] == "input"
    return document["error"]


@pytest.mark.parametrize(
    "document",
    [
        '{"m":3,"minimal_nonfaces":[1]}',
        '{"m":3,"maximal_faces":[1]}',
        '{"m":3,"minimal_nonfaces":5}',
        '{"m":2,"maximal_faces":[[1],[2]],"labels":5}',
        '{"m":true,"minimal_nonfaces":[]}',
        '{"m":"3","maximal_faces":[[1,2,3]]}',
        '{"m":3,"minimal_nonfaces":[[true,2]]}',
        # maximal faces beside minimal non-faces were ignored: the second
        # document computed on the hollow triangle
        '{"m":3,"minimal_nonfaces":[[1,2,3]],"maximal_faces":"junk"}',
        '{"m":3,"minimal_nonfaces":[[1,2,3]],"maximal_faces":[[1,2,3]]}',
        '{"m":3,"minimal_nonfaces":[[1,2,3]],"maximal_faces":[[1,2],[2,3],[1,4]]}',
    ],
)
def test_malformed_complex_json_is_an_input_error(capsys, document):
    assert_one_input_error(*run(capsys, ["homology", "--inline", document])[::2])


@pytest.mark.parametrize(
    "document",
    [
        '{"n":3,"edges":[[1]]}',
        '{"n":3,"edges":[[1,2,3]]}',
        '{"n":"3"}',
        '{"n":3,"edges":5}',
        '{"n":true,"edges":[]}',
    ],
)
def test_malformed_graph_json_is_an_input_error(capsys, document):
    assert_one_input_error(*run(capsys, ["graphassoc", "--inline", document])[::2])


def test_unwritable_output_path_is_an_input_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "out.json"
    argv = ["homology", "--inline", '{"m":2,"minimal_nonfaces":[]}', "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert out == ""
    assert assert_one_input_error(code, err).startswith("cannot write --out")
    assert not out_path.exists()
    # a blank path was read as no --out: the document went to stdout
    code, out, err = run(capsys, [*argv[:-1], ""])
    assert out == ""
    assert assert_one_input_error(code, err).startswith("cannot write --out")


def test_unreadable_input_file_is_an_input_error(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    assert_one_input_error(*run(capsys, ["homology", "--input", missing])[::2])
    # a blank path was read as no --input, and beside --inline it was ignored
    message = assert_one_input_error(*run(capsys, ["homology", "--input", ""])[::2])
    assert message.startswith("cannot read --input")
    argv = ["homology", "--input", "", "--inline", HEXAGON]
    assert assert_one_input_error(*run(capsys, argv)[::2]).startswith("give exactly one")


def test_family_needs_two_numbers(capsys):
    message = assert_one_input_error(*run(capsys, ["massey", "--family", "3"])[::2])
    assert message == "--family expects n,s"


def test_multidegree_vertex_out_of_range(capsys):
    complex_json = '{"m":3,"minimal_nonfaces":[[1,2]]}'
    argv = ["betti", "--inline", complex_json, "--multidegree", "0,4"]
    message = assert_one_input_error(*run(capsys, argv)[::2])
    assert message == "vertex 0 out of range 1..3"


@pytest.mark.parametrize(
    "argv",
    # each was read as a shorter list: [], [1], [1, 2], [3, 1], [3, 3]; each
    # blank value after them was read as an absent flag: the full 2^m table,
    # the default profile, all-zero degrees, no degrees, the --supports path;
    # the last support was read as [1, 3] and answered with exit 0
    [
        ["betti", "--multidegree", ","],
        ["betti", "--multidegree", "1,1"],
        ["multiwedge", "--j", "1,,2"],
        ["massey", "--family", "3,1,"],
        ["family", "--name", "degrees", "--degrees", "3, ,3"],
        ["betti", "--multidegree", ""],
        ["massey", "--inline", HEXAGON, "--search-triples", "--profile", ""],
        ["massey", "--inline", HEXAGON, "--supports", "[[1,4],[2,5],[3,6]]", "--degrees", ""],
        ["family", "--name", "degrees", "--degrees", ""],
        ["massey", "--inline", HEXAGON, "--supports", "[[1,4],[2,5],[3,6]]", "--family", ""],
        ["massey", "--inline", HEXAGON, "--supports", "[[1,3,3],[2,4]]"],
    ],
)
def test_blank_or_repeated_integers_are_an_input_error(capsys, argv):
    if argv[0] in ("betti", "multiwedge"):
        argv = [*argv, "--inline", '{"m":2,"minimal_nonfaces":[[1,2]]}']
    code, out, err = run(capsys, argv)
    assert out == ""
    message = assert_one_input_error(code, err)
    assert "expects comma-separated integers" in message or "repeats a vertex" in message


def test_complex_output_reads_back_as_the_same_complex(capsys):
    # CLI outputs carry both lists, and they agree
    code, out, _ = run(capsys, ["family", "--name", "kbarns", "--n", "3", "--s", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert {"minimal_nonfaces", "maximal_faces"} <= set(result)
    identity = ",".join(["1"] * result["m"])
    code, out, _ = run(capsys, ["multiwedge", "--inline", json.dumps(result), "--j", identity])
    assert code == 0
    assert json.loads(out)["result"] == result


def test_closed_stdout_is_an_error_without_traceback(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = main(["homology", "--inline", HEXAGON])
    monkeypatch.undo()
    message = assert_one_input_error(code, capsys.readouterr().err)
    assert message.startswith("cannot write stdout")


def test_multidegree_on_a_large_complex(capsys):
    nonfaces = [[2 * k - 1, 2 * k] for k in range(1, 7)]
    complex_json = json.dumps({"m": 40, "minimal_nonfaces": nonfaces})
    argv = ["betti", "--inline", complex_json, "--multidegree", ",".join(map(str, range(1, 13)))]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["result"]["bigraded"] == [[6, 12, 1]]


@pytest.mark.parametrize(
    "supports",
    # read as vertex 1 (true, 1.5) these would be the valid [[1,4],[2,5],[3,6]]
    ['[[true,4],[2,5],[3,6]]', '[[1.5,4],[2,5],[3,6]]', '{"a":1}'],
)
def test_malformed_supports_are_an_input_error(capsys, supports):
    argv = ["massey", "--inline", HEXAGON, "--supports", supports]
    code, out, err = run(capsys, argv)
    assert out == ""
    assert "invalid literal" not in assert_one_input_error(code, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--inline", '{"m":3,"maximal_faces":[[1,2,3]],"labels":"abc"}'],
        ["homology", "--inline", '{"m":3,"minimal_nonfaces":{"12":1}}'],
        ["graphassoc", "--inline", '{"n":3,"edges":"12"}'],
        ["massey", "--inline", HEXAGON, "--supports", '"14"'],
    ],
)
def test_json_strings_and_objects_are_not_lists(capsys, argv):
    # both are iterable: "abc" used to pass as the three labels a, b, c
    code, out, err = run(capsys, argv)
    assert out == ""
    assert "must be a list" in assert_one_input_error(code, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--bogus", "--inline", HEXAGON],
        [],
        ["family", "--name", "polygon", "--n", "x"],
    ],
)
def test_usage_errors_are_input_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert out == ""
    assert_one_input_error(code, err)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--help"])
    assert exc.value.code == 0
    assert "--multidegree" in capsys.readouterr().out


def strict_loads(text):
    """json.loads that rejects NaN and the infinities, which JSON does not allow."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--inline", HEXAGON],
        ["betti", "--inline", HEXAGON],
        ["real-betti", "--inline", HEXAGON],
        ["multiwedge", "--inline", HEXAGON, "--j", "2,1,1,1,1,1"],
        ["family", "--name", "polygon", "--m", "5"],
        ["massey", "--inline", HEXAGON, "--supports", "[[1,4],[2,5],[3,6]]"],
        ["graphassoc", "--inline", '{"n":3,"edges":[[1,2],[2,3]]}'],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_is_exactly_one_json_document(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert set(strict_loads(out)) == {"meta", "result"}


def test_library_calls_write_nothing_to_stdout(capsys):
    from moment_angle.massey import verify_family_massey

    verify_family_massey(2, 1)
    assert capsys.readouterr().out == ""


def quiet_main(argv):
    """(exit code, parsed stdout or None) of one request, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (strict_loads(out.getvalue()) if code == 0 else None)


@st.composite
def relabelled_inputs(draw):
    """A complex on m <= 7 vertices, a vertex permutation, and, for m >= 6, three supports.

    Each support is a pair made a non-face, so its degree-0 classes span a
    line: the canonical class, the first basis class in the vertex order,
    then follows the relabelling up to a sign.  Also a wedge vector for the
    complex, and a graph on n <= 4 vertices with a permutation of its own.
    """
    m = draw(st.integers(3, 7))
    nonfaces = draw(st.lists(st.sets(st.integers(1, m), min_size=2, max_size=m), max_size=m))
    nonfaces += draw(st.lists(st.sets(st.integers(1, m), min_size=2, max_size=2), max_size=m))
    nonfaces = [sorted(nf) for nf in nonfaces]
    perm = draw(st.permutations(range(1, m + 1)))  # vertex v becomes perm[v - 1]
    supports = None
    if m >= 6:
        order = draw(st.permutations(range(1, m + 1)))
        supports = [sorted(order[k : k + 2]) for k in (0, 2, 4)]
        nonfaces += supports
    wedge = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    n = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph_perm = draw(st.permutations(range(1, n + 1)))
    return m, nonfaces, perm, supports, wedge, (n, edges, graph_perm)


def label_list(result):
    return result.get("labels") or [str(v) for v in range(1, result["m"] + 1)]


def mapped_complex(result, back):
    """The complex of a CLI result with vertex p renamed back[p], as comparable sets."""
    return {
        key: {frozenset(back[v] for v in face) for face in result[key]}
        for key in ("minimal_nonfaces", "maximal_faces")
    }


def nerve_vertex_map(relabelled, original, graph_back):
    """Nerve vertex of the relabelled graph -> nerve vertex of the original graph.

    A nerve vertex is labelled by its building-set element, "{1,2}" say; the
    element is taken back through the graph relabelling.
    """
    def element(label, rename):
        return frozenset(rename[int(v)] for v in label.strip("{}").split(","))

    identity = {v: v for v in graph_back}
    position = {element(x, identity): p for p, x in enumerate(label_list(original), start=1)}
    return {
        p: position[element(x, graph_back)]
        for p, x in enumerate(label_list(relabelled), start=1)
    }


@settings(max_examples=40, deadline=None)
@given(relabelled_inputs())
def test_results_are_invariant_under_relabelling(case):
    m, nonfaces, perm, supports, wedge, (n, edges, graph_perm) = case

    def moved(vertices):
        return sorted(perm[v - 1] for v in vertices)

    original = json.dumps({"m": m, "minimal_nonfaces": nonfaces})
    relabelled = json.dumps({"m": m, "minimal_nonfaces": [moved(nf) for nf in nonfaces]})
    for command in ("betti", "real-betti", "homology"):
        (code, first), (code2, second) = (quiet_main([command, "--inline", doc])
                                          for doc in (original, relabelled))
        assert code == code2 == 0
        assert first["result"] == second["result"]
    if supports:
        (code, first), (code2, second) = (
            quiet_main(["massey", "--inline", doc, "--supports", json.dumps(sups)])
            for doc, sups in ((original, supports), (relabelled, [moved(s) for s in supports]))
        )
        assert code == code2 == 0
        assert first["result"]["status"] == second["result"]["status"]

    # the multiwedge: copy c of vertex perm[v - 1] goes back to copy c of vertex v,
    # and the labels travel with the vertices
    moved_wedge = [0] * m
    for v, j in enumerate(wedge, start=1):
        moved_wedge[perm[v - 1] - 1] = j
    labels = [""] * m
    for v in range(1, m + 1):
        labels[perm[v - 1] - 1] = str(v)
    relabelled = json.dumps(
        {"m": m, "minimal_nonfaces": [moved(nf) for nf in nonfaces], "labels": labels}
    )
    (code, first), (code2, second) = (
        quiet_main(["multiwedge", "--inline", doc, "--j", ",".join(map(str, j))])
        for doc, j in ((original, wedge), (relabelled, moved_wedge))
    )
    assert code == code2 == 0
    first, second = first["result"], second["result"]
    start = list(itertools.accumulate(wedge, initial=1))
    moved_start = list(itertools.accumulate(moved_wedge, initial=1))
    back = {
        moved_start[perm[v - 1] - 1] + c: start[v - 1] + c
        for v in range(1, m + 1)
        for c in range(wedge[v - 1])
    }
    assert first["m"] == second["m"] == sum(wedge)
    assert mapped_complex(second, back) == mapped_complex(first, {p: p for p in back})
    assert {back[p]: x for p, x in enumerate(label_list(second), start=1)} == dict(
        enumerate(label_list(first), start=1)
    )

    # the graph-associahedron nerve and the formality verdict name graph vertices
    graph_back = {graph_perm[v - 1]: v for v in range(1, n + 1)}
    graphs = (
        json.dumps({"n": n, "edges": edges}),
        json.dumps({"n": n, "edges": [[graph_perm[a - 1], graph_perm[b - 1]] for a, b in edges]}),
    )
    (code, first), (code2, second) = (quiet_main(["graphassoc", "--inline", g]) for g in graphs)
    assert code == code2 == 0
    first, second = first["result"], second["result"]
    back = nerve_vertex_map(second, first, graph_back)
    assert mapped_complex(second, back) == mapped_complex(first, {p: p for p in back})
    (code, first), (code2, second) = (
        quiet_main(["graphassoc", "--formality", "--inline", g]) for g in graphs
    )
    assert code == code2 == 0
    first, second = first["result"], second["result"]

    def verdicts(result, rename):
        return sorted(
            (sorted(rename[v] for v in c["vertices"]), c["kind"], c["factor"] or "")
            for c in result["components"]
        )

    assert verdicts(second, graph_back) == verdicts(first, {v: v for v in graph_back})
    assert sorted(second["diffeo_type"]) == sorted(first["diffeo_type"])
    assert second["formal"] == first["formal"] == ("witness" not in first)
    if not first["formal"]:
        assert first["witness"]["nontrivial"] and second["witness"]["nontrivial"]


# -- fuzzing: every request ends in a result or in one JSON error line -----------------

SUBCOMMAND_FLAGS = {
    "homology": (),
    "betti": ("--multidegree",),
    "multiwedge": ("--j",),
    "real-betti": (),
    "family": ("--name", "--n", "--s", "--m", "--degrees"),
    "massey": ("--supports", "--degrees", "--family", "--search-triples", "--profile"),
    "graphassoc": ("--formality",),
}
SWITCHES = ("--search-triples", "--formality")
FIELDS = ("m", "minimal_nonfaces", "maximal_faces", "labels", "n", "edges")


def joined(ints):
    return ints.map(lambda xs: ",".join(map(str, xs)))


# integer entries stay small: a flag like --family 5,3 or a complex like the
# full 17-simplex is a valid request that runs for seconds
small_ints = st.integers(-1, 9)
vertex_lists = st.lists(small_ints, max_size=4)
flag_values = st.one_of(
    joined(st.lists(st.integers(-1, 3), max_size=4)),
    st.text(max_size=6),
    st.lists(vertex_lists, max_size=4).map(json.dumps),
    st.sampled_from(["3,,1", "1.5", "-", "[[1,2],[3,4]]"]),
)
likely_values = {
    "--multidegree": joined(st.lists(st.integers(1, 8), min_size=1, max_size=5, unique=True)),
    "--j": joined(st.lists(st.integers(1, 3), min_size=1, max_size=8)),
    "--name": st.sampled_from(["k", "kbar", "kns", "kbarns", "polygon", "degrees"]),
    "--n": st.integers(-1, 9).map(str),
    "--s": st.integers(-1, 9).map(str),
    "--m": st.integers(-1, 9).map(str),
    "--degrees": joined(st.lists(st.integers(-1, 5), min_size=1, max_size=4)),
    "--supports": st.lists(
        st.lists(st.integers(1, 8), min_size=1, max_size=3), min_size=3, max_size=3
    ).map(json.dumps),
    "--family": joined(st.lists(st.integers(-1, 3), min_size=2, max_size=2)),
    "--profile": joined(st.lists(st.integers(1, 5), min_size=3, max_size=3)),
}
json_documents = st.recursive(
    st.none()
    | st.booleans()
    | small_ints
    | st.sampled_from([2**64, -(2**64), 10**12, 0.5])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


def rarely(draw):
    """True one time in six (hypothesis draws the small end of a range more often)."""
    return draw(st.integers(0, 5)) == 5


@st.composite
def near_valid_complexes(draw):
    """A complex document on m <= 8 vertices, now and then with one field gone wrong."""
    m = draw(st.integers(1, 8))
    faces = st.lists(st.integers(1, m), min_size=2, max_size=4, unique=True).map(sorted)
    document = {"m": m, "minimal_nonfaces": draw(st.lists(faces, max_size=6)) if m > 1 else []}
    if rarely(draw):
        document["minimal_nonfaces"].append(draw(vertex_lists))
    if rarely(draw):
        document["labels"] = draw(st.lists(st.text(max_size=2), min_size=m, max_size=m + 1))
    if rarely(draw):
        document[draw(st.sampled_from(FIELDS))] = draw(json_documents)
    return document


@st.composite
def near_valid_graphs(draw):
    """A graph document on n <= 4 vertices, now and then with one field gone wrong.

    Larger graphs are left out: the formality witness search on the complete
    graph on 5 vertices runs for more than 20 s.
    """
    n = draw(st.integers(1, 4))
    edges = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    document = {"n": n, "edges": draw(st.lists(edges, max_size=6)) if n > 1 else []}
    if rarely(draw):
        document["edges"].append(draw(vertex_lists))
    if rarely(draw):
        document[draw(st.sampled_from(FIELDS))] = draw(json_documents)
    return document


@st.composite
def fuzzed_requests(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [command]
    likely = near_valid_graphs() if command == "graphassoc" else near_valid_complexes()
    if not rarely(draw):
        document = draw(json_documents if rarely(draw) else likely)
        argv += ["--inline", json.dumps(document)]
    for flag in SUBCOMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv.append(flag)
            if flag in SWITCHES:
                if rarely(draw):
                    argv.append(draw(flag_values))
            else:
                argv.append(draw(flag_values if rarely(draw) else likely_values[flag]))
    if rarely(draw) and rarely(draw):
        argv.append(draw(st.sampled_from(["--bogus", "-x", "--inline"])))
    return argv


@settings(max_examples=150, deadline=None)
@given(fuzzed_requests())
def test_every_request_ends_in_a_result_or_one_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help, or a flag value read as -h
            code = exc.code
            assert code == 0 and "usage:" in out.getvalue()
            return
    err = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert set(strict_loads(out.getvalue())) == {"meta", "result"}
    else:
        assert out.getvalue() == ""
        lines = err.splitlines()
        assert len(lines) == 1 and isinstance(strict_loads(lines[0]), dict)
