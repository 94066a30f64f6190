import json
import math
from collections import Counter
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhsa import cli, structure
from qhsa.documents import (
    SPARSE_KEYS,
    STRUCTURE_KEYS,
    DocumentError,
    document_to_twistor,
    load_structure,
    parse_structure_document,
    parse_twistor_document,
    report_document,
    serialize_report,
    serialize_structure,
    serialize_twistor_document,
    twistor_to_document,
)
from qhsa.algebra import TensorElement
from qhsa.cli import BUNDLED_DIR, main
from qhsa.fixtures import (
    ALL_TWISTOR_NAMES,
    NEGATIVE_FIXTURES,
    STRUCTURE_BUILDERS,
    build_structure,
    build_twistor,
    ext_structure,
    h2_structure,
    twistor_e11,
    twistor_u11,
)
from qhsa.scalars import Cyclotomic, FieldSpec
from qhsa.transforms import (
    Twistor,
    check_cocycle,
    check_prop6,
    check_twistor,
    opposite_structure,
    prime_structure,
    tensor_product_structure,
    twist_structure,
    verify_twist_by_r,
)

from conftest import elem, entry, structures_equal

BUNDLED = tuple(STRUCTURE_BUILDERS)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_files_match_builders(name):
    on_disk = (BUNDLED_DIR / f"{name}.qhsa").read_text(encoding="utf-8")
    regenerated = serialize_structure(name, build_structure(name))
    assert on_disk == regenerated


@pytest.mark.parametrize("tname", ALL_TWISTOR_NAMES)
def test_bundled_twistors_match_builders(tname):
    target, F = build_twistor(tname)
    H = build_structure(target)
    on_disk = (BUNDLED_DIR / f"{tname}.twist").read_text(encoding="utf-8")
    assert on_disk == serialize_twistor_document(twistor_to_document(tname, H, F))


def _bundled_over(name, field):
    """The bundled ``<name>.qhsa`` loaded with its field replaced by ``field``
    (a cyclotomic document accepts the bare rationals as they are)."""
    data = json.loads((BUNDLED_DIR / f"{name}.qhsa").read_text(encoding="utf-8"))
    data["field"] = field.to_json()
    return load_structure(json.dumps(data))[1]


@pytest.mark.parametrize("order", [8, 20])
def test_builders_over_a_cyclotomic_field_match_the_bundled_rows(order):
    field = FieldSpec.cyclotomic(order)
    h2 = _bundled_over("h2", field)
    assert structures_equal(h2_structure(field), h2)
    assert structures_equal(ext_structure(field), _bundled_over("ext", field))
    zeta4 = math.prod([Cyclotomic(order, [0, 1])] * (order // 4))  # zeta_n^(n/4)
    r = TensorElement(h2.algebra, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): zeta4})
    assert structures_equal(h2_structure(field, with_r=True), h2.replace(r_matrix=r))


@pytest.mark.parametrize("field", [FieldSpec.rational(), FieldSpec.cyclotomic(6)])
def test_the_h2_r_matrix_needs_zeta4(field):
    with pytest.raises(ValueError, match="zeta_4"):
        h2_structure(field, with_r=True)


# the bundled structures, their opposite and primed structures, the bundled
# twists, and two graded tensor products
ROUND_TRIP = (
    BUNDLED
    + tuple(f"opposite-{name}" for name in BUNDLED)
    + tuple(f"prime-{name}" for name in BUNDLED)
    + tuple(f"twist-{tname}" for tname in ALL_TWISTOR_NAMES)
    + ("tensor-h2-ext", "tensor-ext-ext")
)


def _round_trip_structure(case):
    if case in BUNDLED:
        return build_structure(case)
    kind, rest = case.split("-", 1)
    if kind == "twist":
        target, F = build_twistor(rest)
        return twist_structure(build_structure(target), F)
    if kind == "tensor":
        a, b = rest.split("-")
        return tensor_product_structure(build_structure(a), build_structure(b))
    transform = {"opposite": opposite_structure, "prime": prime_structure}[kind]
    return transform(build_structure(rest))


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_serialize_parse_round_trip_is_byte_stable(name):
    text = serialize_structure(name, _round_trip_structure(name))
    loaded_name, H = load_structure(text)
    assert loaded_name == name
    assert serialize_structure(loaded_name, H) == text


def test_parse_serialize_value_identity(h2):
    written = parse_structure_document(serialize_structure("h2", h2))
    assert written == parse_structure_document((BUNDLED_DIR / "h2.qhsa").read_text(encoding="utf-8"))


def test_twisted_structure_survives_the_round_trip(h2):
    twisted = twist_structure(h2, twistor_e11())
    text = serialize_structure("h2-twisted", twisted)
    name, back = load_structure(text)
    assert name == "h2-twisted"
    assert structures_equal(back, twisted)


def test_noncanonical_input_is_parsed_and_canonicalized(h2):
    text = serialize_structure("h2", h2)
    data = json.loads(text)
    data["mult"] = list(reversed(data["mult"]))  # out of order but legal
    name, H = load_structure(json.dumps(data))
    assert structures_equal(H, h2)
    assert serialize_structure(name, H) == text


# -- parse errors -------------------------------------------------------------


def _valid_doc():
    return json.loads(serialize_structure("h2", build_structure("h2")))


def test_zero_denominator_is_named():
    data = _valid_doc()
    data["mult"][0][3] = "1/0"
    with pytest.raises(DocumentError, match=r"mult\[0\].*zero denominator"):
        parse_structure_document(json.dumps(data))


def test_unknown_key_rejected():
    data = _valid_doc()
    data["extra"] = 1
    with pytest.raises(DocumentError, match="unknown structure keys: extra"):
        parse_structure_document(json.dumps(data))


def test_missing_key_rejected():
    data = _valid_doc()
    del data["phi"]
    with pytest.raises(DocumentError, match="missing structure keys: phi"):
        parse_structure_document(json.dumps(data))


def test_index_out_of_range():
    data = _valid_doc()
    data["delta"][0][1] = 5
    with pytest.raises(DocumentError, match=r"delta\[0\].*out of range"):
        parse_structure_document(json.dumps(data))


def test_duplicate_tuple_rejected():
    data = _valid_doc()
    data["phi"].append(data["phi"][0])
    with pytest.raises(DocumentError, match="duplicate index tuple"):
        parse_structure_document(json.dumps(data))


def test_dimension_mismatch_rejected():
    data = _valid_doc()
    data["epsilon"] = ["1"]
    with pytest.raises(DocumentError, match="epsilon"):
        parse_structure_document(json.dumps(data))


def test_bad_json_reports_position():
    with pytest.raises(DocumentError, match="line"):
        parse_structure_document("{\n  broken\n}")


def test_bad_parity_rejected():
    data = _valid_doc()
    data["parity"] = [0, 2]
    with pytest.raises(DocumentError, match="parity"):
        parse_structure_document(json.dumps(data))


# -- twistor documents -------------------------------------------------------------


def test_twistor_document_round_trip(h2):
    F = twistor_e11()
    doc = twistor_to_document("f-e11", h2, F, normalization=(h2.eps_alpha, h2.eps_beta))
    text = serialize_twistor_document(doc)
    back = parse_twistor_document(text)
    assert serialize_twistor_document(back) == text
    twistor = document_to_twistor(back, h2)
    assert twistor.element == F.element and twistor.inverse == F.inverse


def test_twistor_is_defined_only_in_the_transforms(h2):
    # a twistor document is read into the transforms' class, imported on demand
    assert not hasattr(structure, "Twistor")
    text = (BUNDLED_DIR / "f-e11.twist").read_text(encoding="utf-8")
    assert type(document_to_twistor(parse_twistor_document(text), h2)) is Twistor


def test_twistor_field_mismatch(h2r):
    text = (BUNDLED_DIR / "f-e11.twist").read_text(encoding="utf-8")
    doc = parse_twistor_document(text)
    with pytest.raises(DocumentError, match="different fields"):
        document_to_twistor(doc, h2r)


def test_declared_inverse_is_verified(h2):
    # a declared inverse that is not two-sided is a failed check, not an
    # input error: the structure, not the document, may be at fault
    text = (BUNDLED_DIR / "f-e11.twist").read_text(encoding="utf-8")
    data = json.loads(text)
    data["inverse"][3][2] = "7"
    twistor = document_to_twistor(parse_twistor_document(json.dumps(data)), h2)
    report = check_twistor(h2, twistor)
    assert report.failed_ids() == ["twistor.invertible"]
    assert len(report.entries) == 1
    assert entry(report, "twistor.invertible")["witness"] == {
        "difference": [[[1, 1], "13"]],
        "basis": "left",
    }


def test_a_one_sided_declared_inverse_fails_on_its_side():
    # e0 is only a left unit (e0 e1 = e1, e1 e0 = 0), so 1 (x) 1 + e1 (x) e1
    # is a left inverse of 1 (x) 1 and not a right one
    data = json.loads((BUNDLED_DIR / "h2.qhsa").read_text(encoding="utf-8"))
    data.update(unit=["1", "0"], mult=[[0, 0, 0, "1"], [0, 1, 1, "1"]])
    _, H = load_structure(json.dumps(data))
    report = check_twistor(H, Twistor(H.unit(2), H.unit(2) + H.basis(1, 1)))
    assert report.entries == [
        {
            "check_id": "twistor.invertible",
            "status": "fail",
            "witness": {"difference": [[[1, 1], "1"]], "basis": "right"},
        }
    ]


def test_cyclotomic_scalars_round_trip_bit_exactly(h2r):
    text = serialize_structure("h2r", h2r)
    assert '"[0, 1]"' in text  # the zeta_4 coefficient of the R-matrix
    name, back = load_structure(text)
    assert structures_equal(back, h2r)
    assert serialize_structure(name, back) == text


# -- one parse per distinct scalar text --------------------------------------------

ZETA = FieldSpec.cyclotomic(20)
ZETA_TWIST_COEFFICIENT = Cyclotomic(20, [0, 0, 0, 1]) + Cyclotomic(20, [0] * 7 + [1]) - 1  # z^3 + z^7 - 1


@cache
def _zeta_documents():
    """A Q(zeta_20) structure document, h2 twisted by 1 (x) 1 + c e1 (x) e1
    and tensored with ext, and that twistor's document."""
    h2 = h2_structure(ZETA, with_r=True)
    F = Twistor(h2.unit(2) + TensorElement(h2.algebra, 2, {(1, 1): ZETA_TWIST_COEFFICIENT}))
    product = tensor_product_structure(twist_structure(h2, F), ext_structure(field=ZETA))
    twistor = twistor_to_document("f-zeta20", h2, F, normalization=(h2.eps_alpha, h2.eps_beta))
    return serialize_structure("h2-zeta20-twisted-ext", product), serialize_twistor_document(twistor)


def _scalar_texts(data):
    """Every scalar text of a structure or twistor document, in document order."""
    texts = []
    for key, value in data.items():
        if key == "normalization":
            texts += value.values()
        elif key not in ("name", "field", "dimension", "parity"):
            texts += [row[-1] if isinstance(row, list) else row for row in value]
    return texts


@pytest.fixture
def parsed_texts(monkeypatch):
    """The texts ``FieldSpec.parse`` is called on, in call order."""
    calls = []
    original = FieldSpec.parse

    def counting(self, text):
        calls.append(text)
        return original(self, text)

    monkeypatch.setattr(FieldSpec, "parse", counting)
    return calls


@pytest.mark.parametrize("kind", ["structure", "twistor"])
def test_each_distinct_scalar_text_is_parsed_once_per_document(kind, parsed_texts):
    text = _zeta_documents()[kind == "twistor"]
    parse = parse_twistor_document if kind == "twistor" else parse_structure_document
    texts = _scalar_texts(json.loads(text))
    assert len(set(texts)) < len(texts)
    first = parse(text)
    assert Counter(parsed_texts) == dict.fromkeys(texts, 1)
    # nothing outlives a document: the same text parses every scalar again
    assert parse(text) == first
    assert Counter(parsed_texts) == dict.fromkeys(texts, 2)


# (document kind, first key, second key): each pair of adjacent body keys of
# a structure, delta before phi, and a twistor's element before its inverse
_FIRST_POSITIONS = [("structure", a, b) for a, b in zip(STRUCTURE_KEYS[4:], STRUCTURE_KEYS[5:])]
_FIRST_POSITIONS += [("structure", "delta", "phi"), ("twistor", "element", "inverse")]


@pytest.mark.parametrize(
    "kind, first, second", _FIRST_POSITIONS, ids=["-".join(keys) for keys in _FIRST_POSITIONS]
)
@pytest.mark.parametrize(
    "bad, expected",
    [
        ("x", "invalid rational 'x'"),
        ("[1, 2", "unterminated coefficient list '[1, 2'"),
        (7, "scalar must be a string, got 7"),
        ([1], "scalar must be a string, got [1]"),
    ],
)
def test_an_invalid_scalar_is_named_at_its_first_position(
    kind, first, second, bad, expected, tmp_path, capsys
):
    """An invalid scalar text, or a non-string, in two keys is one error
    line naming its position in the first key, as when each entry was
    parsed on its own: keys are parsed in file order."""
    structure, twistor = _zeta_documents()
    data = json.loads(twistor if kind == "twistor" else structure)
    for key, pos in ((first, 1), (second, 0)):
        if key in SPARSE_KEYS:
            data[key][pos][-1] = bad
        else:
            data[key][pos] = bad
    parse = parse_twistor_document if kind == "twistor" else parse_structure_document
    with pytest.raises(DocumentError) as excinfo:
        parse(json.dumps(data))
    assert str(excinfo.value) == f"{first}[1]: {expected}"
    if kind == "structure":
        path = tmp_path / "bad.qhsa"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {first}[1]: {expected}\n"


# -- report writer -------------------------------------------------------------------

# non-ASCII text, quotes, backslashes and control characters, and any other
# character hypothesis draws
_TEXT = st.text(st.sampled_from('aZ0 é€"\\\n\t\x00\x1f\x7f\u2028\U0001d11e') | st.characters())
_FLOATS = st.sampled_from([0.0, 1e-06, 123.456789]) | st.floats(allow_nan=False, allow_infinity=False)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=12,
)
# entries keep the key order of ``report_document``, which the writer relies on
_ENTRIES = st.builds(
    lambda suite, check_id, status, more: {"suite": suite, "check_id": check_id, "status": status}
    | {key: value for key, value in zip(("witness", "detail"), more) if value is not ...},
    _TEXT,
    _TEXT,
    st.sampled_from(["pass", "fail", "skipped"]),
    st.tuples(st.just(...) | _JSON, st.just(...) | _JSON),
)
_REPORTS = st.builds(
    lambda fixture, version, overall, entries, times: {
        "fixture": fixture,
        "engine_version": version,
        "overall": overall,
        "entries": entries,
        "wall_time_seconds": times,
    },
    _TEXT,
    _TEXT,
    st.sampled_from(["pass", "fail"]),
    st.lists(_ENTRIES, max_size=4),
    st.dictionaries(_TEXT, _FLOATS, max_size=3),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_REPORTS)
@example(
    {
        "fixture": 'n\u00e9 "x" \\ \x01',
        "engine_version": "0.1.0",
        "overall": "fail",
        "entries": [
            {"suite": "s", "check_id": "a", "status": "pass"},
            {
                "suite": "s",
                "check_id": "b",
                "status": "fail",
                "witness": {"difference": [[[0, (1, 2)], "-1/2"]], "ok": [True, False, None]},
                "detail": {"empty": [[], {}, ()], "floats": [0.0, 1e-06, 123.456789]},
            },
        ],
        "wall_time_seconds": {"algebra": 1e-06, "\u00e9": 0.0},
    }
)
def test_the_report_writer_writes_what_json_dumps_writes(doc):
    assert serialize_report(doc) == json.dumps(doc, indent=2) + "\n"


def test_every_bundled_report_is_written_as_json_dumps_writes_it(monkeypatch, capsys, tmp_path):
    # the bundled fixtures, the two negative ones among them, their twists and
    # the ext (x) ext product, whose antipode check fails
    docs = []

    def capture(doc):
        docs.append(doc)
        return serialize_report(doc)

    monkeypatch.setattr(cli, "serialize_report", capture)
    for name in sorted(p.stem for p in BUNDLED_DIR.glob("*.qhsa")):
        for argv in (["check", f"{name}.qhsa"], ["drinfeld", f"{name}.qhsa", "--verify"]):
            main(argv + ["--format", "json"])
    output = str(tmp_path / "ext-ext.qhsa")
    main(["transform", "ext.qhsa", "tensor", "--other", "ext.qhsa", "--output", output, "--format", "json"])
    capsys.readouterr()
    assert len(docs) == 15 and set(NEGATIVE_FIXTURES) <= {doc["fixture"] for doc in docs}
    assert any(e.get("witness") for doc in docs for e in doc["entries"])
    for doc in docs:
        assert serialize_report(doc) == json.dumps(doc, indent=2) + "\n"


def test_library_only_rows_are_written_as_json_dumps_writes_them(ext, h2, h2ext):
    """Rows no CLI job writes: a pass with a detail (twist by R), the
    skips of the same check without R, a failing cocycle and a failing
    twistor.  Each row is its suite, id and status, then at most one of
    witness and detail, in that order."""
    F = twistor_u11()
    reports = [
        ("twist-by-r", verify_twist_by_r(ext)),
        ("twist-by-r", verify_twist_by_r(h2)),
        ("cocycle", check_cocycle(h2ext, F)),
        ("prop6", check_prop6(h2ext, F)),
        ("twistor", check_twistor(ext, Twistor(elem(ext, 2, {(1, 1): 1})))),
    ]
    doc = report_document("library", [(s, r, 0.0) for s, r in reports], "0.1.0")
    shapes = set()
    for row in doc["entries"]:
        keys = list(row)
        assert keys[:3] == ["suite", "check_id", "status"]
        assert keys[3:] in ([], ["witness"], ["detail"])
        shapes.add((row["status"], *keys[3:]))
    assert shapes == {("pass",), ("pass", "detail"), ("skipped", "detail"), ("fail", "witness")}
    assert entry(reports[2][1], "eq.ccc")["status"] == "fail"
    assert doc["overall"] == "fail"
    assert serialize_report(doc) == json.dumps(doc, indent=2) + "\n"
