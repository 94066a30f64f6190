import json
from pathlib import Path

import pytest

from qhsa.documents import (
    DocumentError,
    document_to_twistor,
    load_structure,
    parse_structure_document,
    parse_twistor_document,
    serialize_structure,
    serialize_twistor_document,
    twistor_to_document,
)
from qhsa.fixtures import (
    ALL_TWISTOR_NAMES,
    NEGATIVE_FIXTURES,
    POSITIVE_FIXTURES,
    build_structure,
    build_twistor,
    twistor_e11,
)
from qhsa.transforms import (
    Twistor,
    check_twistor,
    opposite_structure,
    prime_structure,
    tensor_product_structure,
    twist_structure,
)

from conftest import structures_equal

FIXTURE_DIR = Path(__file__).parent.parent / "src" / "qhsa" / "fixtures"

BUNDLED = POSITIVE_FIXTURES + tuple(NEGATIVE_FIXTURES)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_files_match_builders(name):
    on_disk = (FIXTURE_DIR / f"{name}.qhsa").read_text(encoding="utf-8")
    regenerated = serialize_structure(name, build_structure(name))
    assert on_disk == regenerated


@pytest.mark.parametrize("tname", ALL_TWISTOR_NAMES)
def test_bundled_twistors_match_builders(tname):
    target, F = build_twistor(tname)
    H = build_structure(target)
    on_disk = (FIXTURE_DIR / f"{tname}.twist").read_text(encoding="utf-8")
    assert on_disk == serialize_twistor_document(twistor_to_document(tname, H, F))


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
    assert written == parse_structure_document((FIXTURE_DIR / "h2.qhsa").read_text(encoding="utf-8"))


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


def test_twistor_field_mismatch(h2r):
    text = (FIXTURE_DIR / "f-e11.twist").read_text(encoding="utf-8")
    doc = parse_twistor_document(text)
    with pytest.raises(DocumentError, match="different fields"):
        document_to_twistor(doc, h2r)


def test_declared_inverse_is_verified(h2):
    # a declared inverse that is not two-sided is a failed check, not an
    # input error: the structure, not the document, may be at fault
    text = (FIXTURE_DIR / "f-e11.twist").read_text(encoding="utf-8")
    data = json.loads(text)
    data["inverse"][3][2] = "7"
    twistor = document_to_twistor(parse_twistor_document(json.dumps(data)), h2)
    report = check_twistor(h2, twistor)
    assert report.failed_ids() == ["twistor.invertible"]
    assert len(report.entries) == 1
    assert report.entry("twistor.invertible").witness == {
        "difference": [[[1, 1], "13"]],
        "basis": "left",
    }


def test_a_one_sided_declared_inverse_fails_on_its_side():
    # e0 is only a left unit (e0 e1 = e1, e1 e0 = 0), so 1 (x) 1 + e1 (x) e1
    # is a left inverse of 1 (x) 1 and not a right one
    data = json.loads((FIXTURE_DIR / "h2.qhsa").read_text(encoding="utf-8"))
    data.update(unit=["1", "0"], mult=[[0, 0, 0, "1"], [0, 1, 1, "1"]])
    _, H = load_structure(json.dumps(data))
    report = check_twistor(H, Twistor(H.unit(2), H.unit(2) + H.basis(1, 1)))
    assert [e.to_json() for e in report.entries] == [
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
