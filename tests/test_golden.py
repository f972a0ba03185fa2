"""Golden result digests: refactors must leave every ``result`` block unchanged.

Each request runs in-process through ``cli.main``; the sha256 of its
canonical ``result`` JSON (sorted keys, compact separators) must match the
digest recorded below.  The corpus covers every subcommand, the three
Massey statuses that a ``--supports`` request can end in, the family
certificates, the witness search and the formality verdicts.
"""

import hashlib
import itertools
import json

import pytest

from moment_angle.cli import main
from moment_angle.families import FamilySpec, family_complex
from moment_angle.graphs import Graph, associahedron_nerve
from moment_angle.massey import family_massey_input

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
C5 = '{"n":5,"edges":[[1,2],[2,3],[3,4],[4,5],[1,5]]}'


def complete_graph_minus_12(n):
    pairs = [list(e) for e in itertools.combinations(range(1, n + 1), 2) if e != (1, 2)]
    return json.dumps({"n": n, "edges": pairs})


# graphs whose nerves have several blocks: P3, K3 and a point (formal); P4, an
# edge and a point (the witness search runs on a joined nerve)
P3_K3_POINT = '{"n":7,"edges":[[1,2],[2,3],[4,5],[5,6],[4,6]]}'
P4_EDGE_POINT = '{"n":7,"edges":[[1,2],[2,3],[3,4],[5,6]]}'
P4_NERVE = json.dumps(
    associahedron_nerve(Graph.from_json_dict(json.loads(P4))).to_json_dict(include_maximal=True)
)
K4_NERVE = json.dumps(
    associahedron_nerve(Graph.from_json_dict(json.loads(K4))).to_json_dict(include_maximal=True)
)
POLYGON_13 = json.dumps(
    {
        "m": 13,
        "minimal_nonfaces": [
            [a, b] for a in range(1, 14) for b in range(a + 2, 14) if (a, b) != (1, 13)
        ],
    }
)
NINE_GON = json.dumps(
    {
        "m": 9,
        "minimal_nonfaces": [
            [a, b] for a in range(1, 10) for b in range(a + 2, 10) if (a, b) != (1, 9)
        ],
    }
)
# the complex of the (4, 2) family product, m = 12; its value lies in
# multidegree 1..12, whose core drops vertices 10 and 11
FAMILY_4_2 = json.dumps(family_massey_input(4, 2).complex.to_json_dict())
# dense and not flag: nearly every induced subcomplex is close to a full simplex
DENSE_12 = '{"m":12,"minimal_nonfaces":[[1,2,3],[3,6,9],[4,8,12],[2,7,11],[5,10,12]]}'
# multiwedges that are not flag: in kns(3, 2) (m = 9) every vertex lies in a
# minimal non-face of 3 vertices, and in the multiwedge of degrees 3,5,3
# (m = 7) all but vertices 1, 4 and 5 do, so the full table collapses their
# subsets by domination
KNS_3_2 = json.dumps(family_complex(FamilySpec("kns", n=3, s=2)).to_json_dict())
DEGREES_3_5_3 = json.dumps(family_complex(FamilySpec("degrees", degrees=(3, 5, 3))).to_json_dict())

GOLDEN = (
    ("homology-square", ["homology", "--inline", SQUARE],
     "f692038f71f950d8401dd6fb1f37227d54a80bfc8b27b1009e986cd799a2ff19"),
    ("real-betti-square", ["real-betti", "--inline", SQUARE],
     "1bfa2e322a8e743ecb8bba54f2443c3108b212fca4f44242f06efeb9053b0761"),
    # both at the m = 9 real-ranks cap
    ("real-betti-p4-nerve", ["real-betti", "--inline", P4_NERVE],
     "db255fc9088c53bef5421443fb3ac2f873237fa52230e0b83232ebe1655878b2"),
    ("real-betti-9-gon", ["real-betti", "--inline", NINE_GON],
     "eab54489e49910e873485da7d74bed5501399d9b2f48c1a6e017ade92b847d94"),
    ("betti-hexagon", ["betti", "--inline", HEXAGON],
     "acad7089daa5a2b0d4bb35c26064706bc291c9941ec1fe4b7c460e9666adf01b"),
    ("betti-polygon-13", ["betti", "--inline", POLYGON_13],
     "f93d2c7762bfe28f13537aaa914b58e4f6a21a546978f5998c5c8a2bdbc240e2"),
    ("betti-k4-nerve", ["betti", "--inline", K4_NERVE],
     "7fa0a6c0f561bae671c4ced6840a72930ae08ce7b7391a72da710a3526579b4d"),
    ("betti-dense-12", ["betti", "--inline", DENSE_12],
     "de216cf8afc2cef298295a91bffb38e43fde48c47ade2d255fc2fe0fc76d31df"),
    ("betti-kns-3-2", ["betti", "--inline", KNS_3_2],
     "e6a847ed7fc773a32f636d4e3334db8418a60a8ad01ba5e0d18628351c4de485"),
    ("betti-degrees-3-5-3", ["betti", "--inline", DEGREES_3_5_3],
     "0167531ae89cee783e322c5f60093909656b42ce831a3bd0780ab6cf0f7b567e"),
    ("betti-hexagon-multidegree", ["betti", "--inline", HEXAGON, "--multidegree", "1,3"],
     "9e4037169a24c0cdd52ca04cd38f90ce9e3c975081541d263f719d39ec4dffe7"),
    # single subsets read on their cores: a path that collapses to a vertex, a
    # J of the K4 nerve whose core is {1, 2, 11, 12}, and the (4, 2) value
    ("betti-hexagon-multidegree-path",
     ["betti", "--inline", HEXAGON, "--multidegree", "1,2,3"],
     "b7034e19c2976f4984bbd6f4b85aa54f83b089f0c3a819c51471fcd6881f5c4a"),
    ("betti-k4-nerve-multidegree-core",
     ["betti", "--inline", K4_NERVE, "--multidegree", "1,2,3,4,11,12"],
     "301dc257537bc37f8a386ff230d01061f8de47e4b69a5a4443b3c62e4c2f5366"),
    ("betti-family-4-2-value",
     ["betti", "--inline", FAMILY_4_2, "--multidegree", ",".join(map(str, range(1, 13)))],
     "be3c69c9881c3fc9a38e6c11e0259c374cb85aeede9989eb4de692d42b8a0d26"),
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
    # window ranks on proper cores of 3 vertices, {2, 4, 6} and {4, 5, 6},
    # each of rank 2 below the obstruction degree
    ("massey-k4-nerve-windows", ["massey", "--inline", K4_NERVE,
                                 "--supports", "[[1,2],[4,6],[3,5]]"],
     "cd4b936cab97d23feae84e9f508d0701be53c7c74c6d1b3de955bc07c0d8b5a3"),
    ("massey-family-3-1", ["massey", "--family", "3,1"],
     "64ffa8081033def5d07e7d94733b99d7eb7f6cd591218359cc01138566a054a3"),
    ("massey-family-2-2", ["massey", "--family", "2,2"],
     "a82b81003a9072b1b2328bfce9ba8d45e82def1ecaed550d92d033f354b37b3f"),
    ("massey-family-4-2", ["massey", "--family", "4,2"],
     "f9de7f7af84c062fd36358b960c229518491731d8e6aa65582800990d734da04"),
    # m = 21 and m = 20: certified once the upper face levels of the value
    # components were read off their complements; both digests agree with the
    # bottom-up levels run with the face-level capacity lifted
    ("massey-family-3-6", ["massey", "--family", "3,6"],
     "4d29e198ce3a8fab07fb66877b95ca64dd9b860c281043cd607e488a894864d1"),
    ("massey-family-4-4", ["massey", "--family", "4,4"],
     "d882748c3fbe5e386c074bbe24f02b75fb8a22ecab5dc81e427ff3ecbc2d33db"),
    ("graphassoc-p4", ["graphassoc", "--inline", P4],
     "544f9bde5424a3b13da77fb02e62c25a8ccd2b2c92539822d9f9cb2b2ae573cd"),
    ("search-p4-nerve", ["massey", "--inline", P4_NERVE, "--search-triples"],
     "6a5958e49481f823998bb95610d990a14201e4571a115c8cb7675f0404f927b0"),
    ("formality-k3", ["graphassoc", "--formality", "--inline", K3],
     "9ba1d71471a37bb62b781f52a463f2198079852d1dd8c55153faa3a62c4bc1a3"),
    ("formality-k4", ["graphassoc", "--formality", "--inline", K4],
     "0b1f132534be5c303aeb6bf0684fb2a67113109fdda8056b2673109a11d1623d"),
    # formality verdicts of graphs on 5 and 6 vertices
    ("formality-c5", ["graphassoc", "--formality", "--inline", C5],
     "9b41500cb531ba2c5bae16be7d16e162969f9f7f592f9a9676f4cc6fcb5bb0e2"),
    ("formality-k5-minus-edge",
     ["graphassoc", "--formality", "--inline", complete_graph_minus_12(5)],
     "e17bcf3dfaa246b9c800cc6b31f5673f7e679e9a95ec5a0fa395e77c77250a5d"),
    ("formality-k6-minus-edge",
     ["graphassoc", "--formality", "--inline", complete_graph_minus_12(6)],
     "14c58533fa92f2a6fa6040f1ae00e76e59cc01d3d1e4d3c51106d8520eba58ae"),
    ("graphassoc-p3-k3-point", ["graphassoc", "--inline", P3_K3_POINT],
     "3eaca613165796f151307234d4d54ddac37ea11b26d9432a8ce4b7da541c399d"),
    ("formality-p3-k3-point", ["graphassoc", "--formality", "--inline", P3_K3_POINT],
     "a8a0406ed7abcfcc645080943fee037fb86182932691d632e3615b1f6ebd140d"),
    ("graphassoc-p4-edge-point", ["graphassoc", "--inline", P4_EDGE_POINT],
     "0d257d779f63a0f12617b8cbe5097112180677425b66f475f5bc1e33c2ccc67c"),
    ("formality-p4-edge-point", ["graphassoc", "--formality", "--inline", P4_EDGE_POINT],
     "6c503f16c9fbda665a5f7c6925e30df660f6a7655c4bc363ac6a01298319b175"),
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
