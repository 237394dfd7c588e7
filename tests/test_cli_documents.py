"""Byte-level tests of the CLI documents and of the JSON emitter.

The digests pin stdout of every subcommand in every output format on
small groups.  They were recorded before the documents were streamed,
when every JSON document came from ``json.dumps(doc, indent=2)``; the
round-trip law checks each JSON document against that encoder, which
shares no code with the CLI's writer.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jwkit import cli
from jwkit.qpoly import LaurentPoly, RatFunc

_GROUPS = {
    "A3": ("--family", "A", "--rank", "3"),
    "B3": ("--family", "B", "--rank", "3"),
    "H3": ("--family", "H3"),
    "I2(5)": ("--family", "I2", "--m", "5"),
}

_CASES = {
    **{
        f"{cmd} {name}": (cmd, *args)
        for cmd in ("group", "kl", "grrk", "esign")
        for name, args in _GROUPS.items()
    },
    "jw A4 closed": ("jw", "--family", "A", "--rank", "4", "--method", "closed"),
    "jw A4 wenzl": ("jw", "--family", "A", "--rank", "4", "--method", "wenzl"),
    "jw A4 projection": ("jw", "--family", "A", "--rank", "4", "--method", "projection"),
    "jw A4 minus": ("jw", "--family", "A", "--rank", "4", "--sign", "minus"),
    "jw B3": ("jw", *_GROUPS["B3"]),
    "jw H3": ("jw", *_GROUPS["H3"]),
}

# sha256 of stdout, keyed by "<case> <output>"
_DIGESTS = {
    "esign A3 json": "ffd00d8579383e9d2cea23d7bc8bf0cc7ee4c299cbe45ff14214536d053087e6",
    "esign A3 csv": "3190c9f969596fc6a1eac3257039c0a16202a161036eb6c541bbbfdaea9e8236",
    "esign A3 latex": "da8017f231ca42400d2c74902eae4412fc78ad61236d2632f553655aacf9223c",
    "esign B3 json": "0ddd1cdcf90659a5c98c426d633e481d83e8cabcb86213e7c859a2fe0eba7280",
    "esign B3 csv": "e5bfb3cc25856cff51d9b34b7a4c491d70dd64bbc399e9b36f149425ccb2d421",
    "esign B3 latex": "ddbd5dac7fd070db1fbdb38a945cea987b02468523e9bde7e4c7c12234e4debb",
    "esign H3 json": "b187f2fbe0659a66dfbdf6f13e26d35b6e24237028283837a5885d85ab2dfd3b",
    "esign H3 csv": "73c6e5edf60e04366b4f80a68f0be6fc54f15dab8b4384cd0fd11a4c56b5a945",
    "esign H3 latex": "7ea1a699de6f7928749e1eb8ffbfaee555d4dab9aa45ad7bd5766459f4bcac6e",
    "esign I2(5) json": "25ebcbbf464c421cd9d5be3db5d69288cd0a91a6ed8487160e9c2e9b7f78cdfd",
    "esign I2(5) csv": "19bb5807365df89d0a7aef0971db3045fc2cc58ebaa68aa7f921bb356ce5fa40",
    "esign I2(5) latex": "480dcda700d4ad19bba4f92826fe3036c019acc5e755341e1d75a93eb15dfc04",
    "group A3 json": "a007690c16054d4a0c472eefc84f38b43e666087231f290856f01657bd5022e2",
    "group A3 csv": "95163b2544f5bf4225399c0da0f6d12687d2182c18ff4f27cfe1989e87fd712b",
    "group A3 latex": "d9b6ffe96dfdad9a419a0c75985aa4b28c432a0a164526adce4142d2598274fb",
    "group B3 json": "775480db655443c0a47f06e8ca3dff6ce5a79d25292a88643f747e2829929a94",
    "group B3 csv": "17b4bcbe85d0cf9a0b346adcebe4562d53f9de653ec85c5f7a0bdddf2c723209",
    "group B3 latex": "c9967d1eb83888e41a081f778e94f46925a9d69bf51140406ed437ccea125ce8",
    "group H3 json": "a66e142290e56cd125bb8c7fa1ab8868baee87ab95bd5c9ba744d9e02f407c1f",
    "group H3 csv": "1379583bb7b6ae4dff5611fe33dc1730db5358773e6979417db9334c4ebddb95",
    "group H3 latex": "8820886b75a17120a0f1c2e70414e3573d1cafd99baf11deabcb2e0e56b95261",
    "group I2(5) json": "063a7ad456e0c21620afff151d5576229dd3e05b9593bcd376288cec2eff92d0",
    "group I2(5) csv": "c4ec414c85cd18973a82be9869f4fbe10257f49cef76e1d5b920bc83c9d80a9d",
    "group I2(5) latex": "4bef2cbd00af95ddb8d538d7b3f2e700e6868e43a5683b57936239f0a9c77ea9",
    "grrk A3 json": "e0e42ef598a0476044ef0bf370f9f99b5dc09e983b178dcc2855a593b555b368",
    "grrk A3 csv": "be48dd0c8529e6107b5f81fce7c563efbcc58677b9a327254e13b841ba4a9b86",
    "grrk A3 latex": "7ef66aa52c144499e33f564b239c25cecf2d90388593f2c17e210149dd0c27d4",
    "grrk B3 json": "60c4b64cf5b6007015e41a4043e369dbd27cb54042369d69066ed08dc5976a84",
    "grrk B3 csv": "69a63e4f67b90d21d848f35c68dc51d2cb2e942d2394a69b428f9dbf55d7274b",
    "grrk B3 latex": "93a0e6adf75c478a92c70d78c70f1a6b537a1d6ccfa29f84df8c6f1a9d6f1f82",
    "grrk H3 json": "f9303a6bc2915f75ba80369b061e823afe29cffb894d2064c34eb655d3cb5c73",
    "grrk H3 csv": "0040a3acfb54b1d6ed648662cb347b64a740b2f759138020f7751877a0b06f6d",
    "grrk H3 latex": "da4c3d3194f0fdbc7b162a4fa159cbc7a1da9108645742be84cbf813b2da6bd4",
    "grrk I2(5) json": "5b88dc1a6d01c54b92a9cd6722db6d4f528beede30907a41b1f3485a9b5109dd",
    "grrk I2(5) csv": "262f1da2e52e591a988c3e7a45fd235667835e3fca193814c8ab87e9983479dd",
    "grrk I2(5) latex": "226f2cb06c3e966c5d928b49b58b24e62503e177ba931575658747415df72a16",
    "jw A4 closed json": "10f3ed31478271112d91e065d49d4b984d9c5ffaed25d8156a1b85fddeceb53a",
    "jw A4 closed csv": "234a02afccc1cb291bc1591c251d9f629559ae68fe17ca13fedeedf36147a3c5",
    "jw A4 closed latex": "8fabd952a642849ded27f77fec38481f109d1ebe525bbe322093dae4886cff2a",
    "jw A4 minus json": "62733e7325446e0d149cb5459f0dbb3ebb1e8ec7e0433125aa19d5865f2675a2",
    "jw A4 minus csv": "316989472d83b052bcd96b60ab2c9081bc40073c671cd2883693a06dcb16c2f4",
    "jw A4 minus latex": "387dfe64acceedcb43a9d16493249c046774559ccfdaed5e50d132743a0cec4d",
    "jw A4 projection json": "6a1f2534ae7b3c020df92d775c8c9402c71ab4218b7ccde17c4d08d55104900d",
    "jw A4 projection csv": "234a02afccc1cb291bc1591c251d9f629559ae68fe17ca13fedeedf36147a3c5",
    "jw A4 projection latex": "8fabd952a642849ded27f77fec38481f109d1ebe525bbe322093dae4886cff2a",
    "jw A4 wenzl json": "cfca5388dc46d461e66a6b97ccf9ec253754f1b18823f35ebac8c914cf4765cd",
    "jw A4 wenzl csv": "234a02afccc1cb291bc1591c251d9f629559ae68fe17ca13fedeedf36147a3c5",
    "jw A4 wenzl latex": "8fabd952a642849ded27f77fec38481f109d1ebe525bbe322093dae4886cff2a",
    "jw B3 json": "9a4dd087f579f31571ddb724e69438186411aa866c26d15d9bf8eaf965f86a39",
    "jw B3 csv": "c3f8c0b9fc6a8993bb1177ff1831d26f8f101809b318e94d4ee378fd13ea52fe",
    "jw B3 latex": "9765f524b8b1479360af6db01ba25ea6be91fb998cfcb82cff5b2413f13c6002",
    "jw H3 json": "6c4eceb8837e82258b0ea38cafb329c10263a274667c4565ec335c2815a2e455",
    "jw H3 csv": "379da7a494f12bec804a70501956dfc80108ae81ac4e7f11ad199a7da78d5086",
    "jw H3 latex": "905b260687b80de28d50a45c5a8e0a03858508df67ee9e4508feab6619bb4302",
    "kl A3 json": "be261c862129cbe6a8cbd46a55d12c79ea09408213620106b9884a2712e2dade",
    "kl A3 csv": "f99befc65db1c26020e56f1f4f20e4f620ba939523efe5e2c53305d7239712ff",
    "kl A3 latex": "329290dd776be3dbfc0a98a92be71f572049ec6afbeeb557e4dec693b8171cfc",
    "kl B3 json": "a3c19389905d93cfdc43c82c473bb1ef89a27f4f20bdf819ba93505042ac3aec",
    "kl B3 csv": "ef74000ceb605ed2150837472c17aae6f185f28e1c58f44bffe57e2651ad489f",
    "kl B3 latex": "cff76748c07ef1731d62d1c8846e45e247c8d5f8cce9e94ce46b351fa14896aa",
    "kl H3 json": "f5f7c0dc8eb42569c25e2e094a5a2757079abe4ba77f834dc50196331fcd19d4",
    "kl H3 csv": "05149d58bd4a6ccf637c07a3814dfbae9e6b9880fcd0e9ea4e4e0512fa0c10e7",
    "kl H3 latex": "1263cead6cf1707caa598191eebc237fd11105846b717b052adaab0fa5ec9c97",
    "kl I2(5) json": "9c77f196a418f8135273b844cc9d95f75fc0b2d3a84ac4b047d20afdff5c65c2",
    "kl I2(5) csv": "5a302f82f48f837afaab2251b4b9857b69e66b5696f7482bfff9dd3a85411274",
    "kl I2(5) latex": "1c6253fb69c325aa579a85724b25a2cd58754a1ab4f13aa66cdc275628ff9523",
}

# the type A documents the benchmark renders, in JSON only; the digests are
# those pinned in perfbench/expected.json
_TYPE_A_CASES = {
    "kl A5": (
        ("kl", "--family", "A", "--rank", "5"),
        "145aefc5674e49ac2866cfddbf753314990e0708c5ee6e412bb23dac338744a6",
    ),
    "jw A6 closed": (
        ("jw", "--family", "A", "--rank", "6", "--method", "closed"),
        "e82281c074319a45ff30b32f4028391c212de497c22397ac2c9d3dabf0c1d037",
    ),
}

# the other records documents the benchmark renders, in JSON only; the
# digests are those pinned in perfbench/expected.json
_BENCHMARK_CASES = {
    "esign B4": (
        ("esign", "--family", "B", "--rank", "4"),
        "f894030bdfe0d51b1fda126d2ebb666f7b2c304acad8b36069652ce10ccc6814",
    ),
    "jw B4 closed": (
        ("jw", "--family", "B", "--rank", "4", "--method", "closed"),
        "73aedbcf433496d4ac57c43f8fc6c9807a6fdd6f45925af59ee44f0c8cb7f719",
    ),
    "jw B4 projection": (
        ("jw", "--family", "B", "--rank", "4", "--method", "projection"),
        "9015c19a5faeab098ca36a8f534404749754fedcb5e47a7978852b67839a808f",
    ),
    "jw H3 projection": (
        ("jw", "--family", "H3", "--method", "projection"),
        "b90e8c2acb06510c5d854648b7a6e21211d8f04402b8bdd1d8d056b8bf3dec21",
    ),
    "jw A6 wenzl": (
        ("jw", "--family", "A", "--rank", "6", "--method", "wenzl"),
        "0aab2b12234f87ffdf802d1be1b35804cec54faec4fc63041e25fcf012f0f9bf",
    ),
    "jw A6 projection": (
        ("jw", "--family", "A", "--rank", "6", "--method", "projection"),
        "600d10cbfd957d5ec312c45dce5d1d977b02ffab59fe4f1677ce45657a0590a0",
    ),
    "jw A6 minus": (
        ("jw", "--family", "A", "--rank", "6", "--sign", "minus"),
        "304274449cbab9060d61800ba1615c206970f8858a2afb04d7f71a00d049cf95",
    ),
}

_VERIFY = ("verify", *_GROUPS["B3"], "--suite", "parity", "--suite", "gen-agreement")
_VERIFY_DIGEST = "223728104496935e4f583e28494964a557797fe21ce409a8e8779d59efb550e0"


def _stdout(capsys, argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def _check(out, digest, output):
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if output == "json":
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("output", ["json", "csv", "latex"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_document_digest(capsys, case, output):
    out = _stdout(capsys, [*_CASES[case], "--output", output])
    _check(out, _DIGESTS[f"{case} {output}"], output)


@pytest.mark.parametrize("case", sorted(_TYPE_A_CASES))
def test_type_a_document_digest(capsys, case):
    argv, digest = _TYPE_A_CASES[case]
    _check(_stdout(capsys, argv), digest, "json")


@pytest.mark.parametrize("case", sorted(_BENCHMARK_CASES))
def test_benchmark_document_digest(capsys, case):
    argv, digest = _BENCHMARK_CASES[case]
    _check(_stdout(capsys, argv), digest, "json")


def test_no_rendering_state_outlives_a_document(capsys):
    """Documents rendered one after another in one process, the first
    repeated last, each match their pins: each renders its polynomials
    afresh, whatever the documents before it held."""
    runs = [
        _BENCHMARK_CASES["esign B4"],
        (_CASES["esign B3"], _DIGESTS["esign B3 json"]),
        (_CASES["jw B3"], _DIGESTS["jw B3 json"]),
        _BENCHMARK_CASES["esign B4"],
    ]
    for argv, digest in runs:
        assert hashlib.sha256(_stdout(capsys, argv).encode()).hexdigest() == digest


def test_verify_document_digest(capsys):
    _check(_stdout(capsys, _VERIFY), _VERIFY_DIGEST, "json")


# -- the JSON emitter --------------------------------------------------------------------

_SPECIAL = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "😀"])
_TEXT = st.text(st.one_of(_SPECIAL, st.characters(exclude_categories=())), max_size=8)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _TEXT,
)
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
    ),
    max_leaves=24,
)


@given(_DOCS)
def test_emitter_matches_json_dumps(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


@given(
    st.dictionaries(_TEXT.filter(lambda k: k != "records"), _DOCS, max_size=4),
    st.lists(_DOCS, max_size=4),
)
def test_streamed_document_matches_json_dumps(fields, records):
    parts = []
    cli._write_json(SimpleNamespace(write=parts.append), fields, (cli._json(r, 2) for r in records))
    assert "".join(parts) == json.dumps({**fields, "records": records}, indent=2) + "\n"
    assert len(parts) == len(records) + 2  # written record by record


@pytest.mark.parametrize(
    "bad", [0.5, {"f": [1.0]}, [float("nan")], {1: None}, {"a": {None: 0}}, [{True: 1}], {"s": {1, 2}}]
)
def test_emitter_rejects_floats_and_non_str_keys(bad):
    with pytest.raises(TypeError):
        cli._json(bad)


_POLY_TERMS = st.dictionaries(
    st.integers(-8, 8), st.integers(-(10**12), 10**12).filter(bool), max_size=4
)
_DENOMINATORS = st.one_of(
    st.just({0: 1}),
    st.builds(lambda e, c: {e: c}, st.integers(-8, 8), st.integers(-5, 5).filter(bool)),
    _POLY_TERMS.filter(bool),
)
_RATFUNCS = st.builds(lambda n, d: RatFunc(LaurentPoly(n), LaurentPoly(d)), _POLY_TERMS, _DENOMINATORS)


@given(st.lists(_RATFUNCS, min_size=1, max_size=6))
def test_coefficient_cell_matches_json_dumps(rs):
    """Each cell, rendered twice through one memo (the second time from it),
    is json.dumps of {"num", "den", "display"} with indent=2 at depth 3."""
    cell = cli._ratfunc_cells(3)
    for r in rs + rs:
        doc = {**r.to_triples(), "display": repr(r)}
        assert cell(r) == json.dumps(doc, indent=2).replace("\n", "\n" + "  " * 3)
