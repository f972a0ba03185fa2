"""Golden result digests: refactors must leave every ``result`` block unchanged.

Each request runs in-process through ``cli.main``; the sha256 of its
canonical ``result`` JSON (sorted keys, compact separators) must match the
digest recorded below.  The corpus covers every subcommand, the three
Massey statuses that a ``--supports`` request can end in, the family
certificates, the witness search and the formality verdicts.
"""

import hashlib
import json

import pytest

from moment_angle.cli import main
from moment_angle.graphs import Graph, associahedron_nerve

SQUARE = '{"m":4,"minimal_nonfaces":[[1,3],[2,4]]}'
HEXAGON = json.dumps(
    {
        "m": 6,
        "minimal_nonfaces": [
            [1, 3], [1, 4], [1, 5], [2, 4], [2, 5], [2, 6], [3, 5], [3, 6], [4, 6],
        ],
    }
)
OCTAHEDRON = '{"m":6,"minimal_nonfaces":[[1,2],[3,4],[5,6]]}'
CROSS_POLYTOPE_4 = '{"m":8,"minimal_nonfaces":[[1,2],[3,4],[5,6],[7,8]]}'
P4 = '{"n":4,"edges":[[1,2],[2,3],[3,4]]}'
K3 = '{"n":3,"edges":[[1,2],[1,3],[2,3]]}'
K4 = '{"n":4,"edges":[[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}'
P4_NERVE = json.dumps(
    associahedron_nerve(Graph.from_json_dict(json.loads(P4))).to_json_dict(include_maximal=True)
)

GOLDEN = (
    ("homology-square", ["homology", "--inline", SQUARE],
     "f692038f71f950d8401dd6fb1f37227d54a80bfc8b27b1009e986cd799a2ff19"),
    ("real-betti-square", ["real-betti", "--inline", SQUARE],
     "1bfa2e322a8e743ecb8bba54f2443c3108b212fca4f44242f06efeb9053b0761"),
    ("betti-hexagon", ["betti", "--inline", HEXAGON],
     "acad7089daa5a2b0d4bb35c26064706bc291c9941ec1fe4b7c460e9666adf01b"),
    ("betti-hexagon-multidegree", ["betti", "--inline", HEXAGON, "--multidegree", "1,3"],
     "9e4037169a24c0cdd52ca04cd38f90ce9e3c975081541d263f719d39ec4dffe7"),
    ("multiwedge", ["multiwedge", "--inline", '{"m":2,"minimal_nonfaces":[[1,2]]}',
                    "--j", "2,1"],
     "fa4b85aaaa795cb260911357ea6b8ae76a708d3f2f715e5a2c89c40e296e1c94"),
    ("family-kbarns", ["family", "--name", "kbarns", "--n", "3", "--s", "2"],
     "97a6e5e8d15c62b6ff27fe9508f5b1b95f7029398fa676a50b56426d0b0dcfdb"),
    ("family-degrees", ["family", "--name", "degrees", "--degrees", "3,5,3"],
     "f04801026664bfd983cfdd97a442b61acda65f896606db0567080f3494dd4595"),
    # Massey statuses: defined with indeterminacy 1; not-defined with obstruction [-1];
    # greedy-failed.
    ("massey-hexagon", ["massey", "--inline", HEXAGON, "--supports", "[[1,4],[2,5],[3,6]]"],
     "ea90aeeeb23660877e0571c205bb6100af1f93dd20735ab61501ee9e74716810"),
    ("massey-octahedron", ["massey", "--inline", OCTAHEDRON,
                           "--supports", "[[1,2],[3,4],[5,6]]"],
     "2a219f3f97e77871a284b6b99514ce63fb39e633f925f1ea505801d83ff869de"),
    ("massey-cross-polytope", ["massey", "--inline", CROSS_POLYTOPE_4,
                               "--supports", "[[1,2],[3,4],[5,6],[7,8]]"],
     "ed26819700a963a679286d52ea4497768c727e75d165dddc222fcb575c63cc94"),
    ("massey-family-3-1", ["massey", "--family", "3,1"],
     "64ffa8081033def5d07e7d94733b99d7eb7f6cd591218359cc01138566a054a3"),
    ("massey-family-2-2", ["massey", "--family", "2,2"],
     "a82b81003a9072b1b2328bfce9ba8d45e82def1ecaed550d92d033f354b37b3f"),
    ("graphassoc-p4", ["graphassoc", "--inline", P4],
     "544f9bde5424a3b13da77fb02e62c25a8ccd2b2c92539822d9f9cb2b2ae573cd"),
    ("search-p4-nerve", ["massey", "--inline", P4_NERVE, "--search-triples"],
     "6a5958e49481f823998bb95610d990a14201e4571a115c8cb7675f0404f927b0"),
    ("formality-k3", ["graphassoc", "--formality", "--inline", K3],
     "9ba1d71471a37bb62b781f52a463f2198079852d1dd8c55153faa3a62c4bc1a3"),
    ("formality-k4", ["graphassoc", "--formality", "--inline", K4],
     "0b1f132534be5c303aeb6bf0684fb2a67113109fdda8056b2673109a11d1623d"),
)


def result_digest(result):
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv,digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_golden_result_digest(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert result_digest(json.loads(out)["result"]) == digest
