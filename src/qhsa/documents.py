"""Structure-document parsing and serialization.

The on-disk syntax is a strict subset of JSON.  Serialization is canonical:
fixed key order, index tuples sorted lexicographically, scalars in their
canonical text encoding, two-space indentation, trailing newline.  Parsing a
canonical document and serializing it again reproduces it byte for byte.

A structure is read by ``load_structure``: ``parse_structure_document``
checks the text into a ``StructureDocument`` and ``document_to_structure``
builds the ``QhsaStructure`` from it.  ``serialize_structure`` writes a
structure straight from its tables and elements, with no document in between.
Indices, parities and the dimension are JSON integers; ``true`` and ``false``
are refused.

Layout of a ``.qhsa`` structure document::

    name       str
    field      {"kind": "rational"} | {"kind": "cyclotomic", "order": n}
    dimension  d
    parity     [0/1] * d
    unit       [scalar] * d           coefficients of the identity element
    mult       [[i, j, k, scalar]]    e_i e_j = sum_k scalar * e_k
    delta      [[i, j, k, scalar]]    Delta(e_i) = sum scalar * e_j (x) e_k
    epsilon    [scalar] * d
    antipode   [[i, j, scalar]]       S(e_i) = sum scalar * e_j
    phi        [[i, j, k, scalar]]
    alpha      [scalar] * d
    beta       [scalar] * d
    r          [[i, j, scalar]]       optional

A ``.twist`` twistor document has name/field/dimension plus ``element`` and
optionally ``inverse`` (both [[i, j, scalar]]) and a ``normalization`` block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import GradedAlgebra, StructureMap, TensorElement
from .scalars import FieldSpec, ScalarError, echo
from .structure import QhsaStructure
from .transforms import Twistor


class DocumentError(ValueError):
    """Malformed document: bad JSON, bad scalar, bad index, unknown key."""


STRUCTURE_KEYS = (
    "name",
    "field",
    "dimension",
    "parity",
    "unit",
    "mult",
    "delta",
    "epsilon",
    "antipode",
    "phi",
    "alpha",
    "beta",
    "r",
)

TWISTOR_KEYS = ("name", "field", "dimension", "element", "inverse", "normalization")


@dataclass
class StructureDocument:
    name: str
    field: FieldSpec
    dimension: int
    parity: tuple
    unit: tuple
    mult: tuple  # ((i, j, k, scalar), ...)
    delta: tuple
    epsilon: tuple
    antipode: tuple  # ((i, j, scalar), ...)
    phi: tuple
    alpha: tuple
    beta: tuple
    r: tuple | None = None


@dataclass
class TwistorDocument:
    name: str
    field: FieldSpec
    dimension: int
    element: tuple
    inverse: tuple | None = None
    normalization: dict | None = None


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise DocumentError(f"invalid JSON: {exc}")
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply")


def _expect_keys(data, allowed, required, what):
    if not isinstance(data, dict):
        raise DocumentError(f"{what} must be a JSON object")
    unknown = set(data) - set(allowed)
    if unknown:
        raise DocumentError(f"unknown {what} keys: {echo(', '.join(sorted(unknown)))}")
    missing = [k for k in required if k not in data]
    if missing:
        raise DocumentError(f"missing {what} keys: {', '.join(missing)}")


def _parse_scalar(field, value, where):
    try:
        return field.parse(value)
    except ScalarError as exc:
        raise DocumentError(f"{where}: {exc}")


def _parse_scalar_vector(field, data, length, key):
    if not isinstance(data, list) or len(data) != length:
        raise DocumentError(f"{key} must be a list of {length} scalars")
    return tuple(_parse_scalar(field, v, f"{key}[{i}]") for i, v in enumerate(data))


def _is_int(value) -> bool:
    # JSON true and false load as bools, which are ints equal to 1 and 0
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_sparse(field, data, index_count, dimension, key):
    if not isinstance(data, list):
        raise DocumentError(f"{key} must be a list of index tuples")
    rows = []
    seen = set()
    for pos, row in enumerate(data):
        where = f"{key}[{pos}]"
        if not isinstance(row, list) or len(row) != index_count + 1:
            raise DocumentError(f"{where}: expected {index_count} indices and a scalar")
        indices = row[:index_count]
        for i in indices:
            if not _is_int(i):
                raise DocumentError(f"{where}: index {echo(json.dumps(i))} is not an integer")
            if not 0 <= i < dimension:
                raise DocumentError(
                    f"{where}: index {echo(str(i))} out of range (dimension {dimension})"
                )
        word = tuple(indices)
        if word in seen:
            raise DocumentError(f"{where}: duplicate index tuple {word}")
        seen.add(word)
        rows.append(word + (_parse_scalar(field, row[index_count], where),))
    return tuple(sorted(rows, key=lambda r: r[:index_count]))


def _parse_name(value) -> str:
    if not isinstance(value, str) or not value:
        raise DocumentError("name must be a nonempty string")
    return value


def _parse_dimension(value) -> int:
    if not _is_int(value) or value < 1:
        raise DocumentError("dimension must be a positive integer")
    return value


def parse_structure_document(text: str) -> StructureDocument:
    data = _load_json(text)
    _expect_keys(data, STRUCTURE_KEYS, [k for k in STRUCTURE_KEYS if k != "r"], "structure")
    name = _parse_name(data["name"])
    try:
        field = FieldSpec.from_json(data["field"])
    except ScalarError as exc:
        raise DocumentError(f"field: {exc}")
    dim = _parse_dimension(data["dimension"])
    parity = data["parity"]
    if (
        not isinstance(parity, list)
        or len(parity) != dim
        or any(not _is_int(p) or p not in (0, 1) for p in parity)
    ):
        raise DocumentError(f"parity must be a 0/1 list of length {dim}")
    return StructureDocument(
        name=name,
        field=field,
        dimension=dim,
        parity=tuple(parity),
        unit=_parse_scalar_vector(field, data["unit"], dim, "unit"),
        mult=_parse_sparse(field, data["mult"], 3, dim, "mult"),
        delta=_parse_sparse(field, data["delta"], 3, dim, "delta"),
        epsilon=_parse_scalar_vector(field, data["epsilon"], dim, "epsilon"),
        antipode=_parse_sparse(field, data["antipode"], 2, dim, "antipode"),
        phi=_parse_sparse(field, data["phi"], 3, dim, "phi"),
        alpha=_parse_scalar_vector(field, data["alpha"], dim, "alpha"),
        beta=_parse_scalar_vector(field, data["beta"], dim, "beta"),
        r=_parse_sparse(field, data["r"], 2, dim, "r") if "r" in data else None,
    )


def parse_twistor_document(text: str) -> TwistorDocument:
    data = _load_json(text)
    _expect_keys(data, TWISTOR_KEYS, ["name", "field", "dimension", "element"], "twistor")
    name = _parse_name(data["name"])
    try:
        field = FieldSpec.from_json(data["field"])
    except ScalarError as exc:
        raise DocumentError(f"field: {exc}")
    dim = _parse_dimension(data["dimension"])
    norm = data.get("normalization")
    if norm is not None:
        _expect_keys(norm, ("eps_alpha", "eps_beta"), ("eps_alpha", "eps_beta"), "normalization")
        norm = {
            "eps_alpha": _parse_scalar(field, norm["eps_alpha"], "normalization.eps_alpha"),
            "eps_beta": _parse_scalar(field, norm["eps_beta"], "normalization.eps_beta"),
        }
    return TwistorDocument(
        name=name,
        field=field,
        dimension=dim,
        element=_parse_sparse(field, data["element"], 2, dim, "element"),
        inverse=_parse_sparse(field, data["inverse"], 2, dim, "inverse")
        if "inverse" in data
        else None,
        normalization=norm,
    )


# -- document <-> structure -----------------------------------------------------


def document_to_structure(doc: StructureDocument) -> QhsaStructure:
    field = doc.field
    mult = {}
    for i, j, k, c in doc.mult:
        mult.setdefault((i, j), {})[k] = c
    algebra = GradedAlgebra(doc.dimension, doc.parity, doc.unit, mult, field)

    def sparse_map(rows, out_arity):
        images = {}
        for row in rows:
            i, word, c = row[0], row[1:-1], row[-1]
            images.setdefault(i, {})[word] = c
        return StructureMap(
            algebra,
            out_arity,
            [
                TensorElement(algebra, out_arity, images.get(i, {}))
                for i in range(doc.dimension)
            ],
        )

    delta = sparse_map(doc.delta, 2)
    epsilon = StructureMap(
        algebra, 0, [TensorElement(algebra, 0, {(): c}) for c in doc.epsilon]
    )
    antipode = sparse_map(doc.antipode, 1)
    phi = TensorElement(algebra, 3, {row[:3]: row[3] for row in doc.phi})
    alpha = TensorElement(algebra, 1, {(i,): c for i, c in enumerate(doc.alpha)})
    beta = TensorElement(algebra, 1, {(i,): c for i, c in enumerate(doc.beta)})
    r = None
    if doc.r is not None:
        r = TensorElement(algebra, 2, {row[:2]: row[2] for row in doc.r})
    return QhsaStructure(algebra, delta, epsilon, antipode, phi, alpha, beta, r)


def twistor_to_document(name: str, H: QhsaStructure, F: Twistor, normalization=None) -> TwistorDocument:
    field = H.algebra.field
    norm = None
    if normalization is not None:
        norm = {"eps_alpha": normalization[0], "eps_beta": normalization[1]}
    return TwistorDocument(
        name=name,
        field=field,
        dimension=H.algebra.dimension,
        element=tuple(sorted(w + (c,) for w, c in F.element.terms.items())),
        inverse=tuple(sorted(w + (c,) for w, c in F.inverse.terms.items())),
        normalization=norm,
    )


def document_to_twistor(doc: TwistorDocument, H: QhsaStructure) -> Twistor:
    if doc.field != H.algebra.field:
        raise DocumentError("twistor and structure declare different fields")
    if doc.dimension != H.algebra.dimension:
        raise DocumentError("twistor and structure dimensions differ")
    element = TensorElement(H.algebra, 2, {row[:2]: row[2] for row in doc.element})
    inverse = None
    if doc.inverse is not None:
        inverse = TensorElement(H.algebra, 2, {row[:2]: row[2] for row in doc.inverse})
    return Twistor(element, inverse)


# -- canonical serialization ------------------------------------------------------


def _sparse_json(field, rows):
    return [list(row[:-1]) + [field.format(row[-1])] for row in rows]


def _canonical_json(data: dict) -> str:
    """Fixed key order, one sparse row per line, flat lists inline."""
    lines = ["{"]
    items = list(data.items())
    for pos, (key, value) in enumerate(items):
        comma = "," if pos < len(items) - 1 else ""
        if isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f'  "{key}": [')
            for i, row in enumerate(value):
                row_comma = "," if i < len(value) - 1 else ""
                lines.append(f"    {json.dumps(row)}{row_comma}")
            lines.append(f"  ]{comma}")
        else:
            lines.append(f'  "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_twistor_document(doc: TwistorDocument) -> str:
    field = doc.field
    data = {
        "name": doc.name,
        "field": field.to_json(),
        "dimension": doc.dimension,
        "element": _sparse_json(field, doc.element),
    }
    if doc.inverse is not None:
        data["inverse"] = _sparse_json(field, doc.inverse)
    if doc.normalization is not None:
        data["normalization"] = {
            "eps_alpha": field.format(doc.normalization["eps_alpha"]),
            "eps_beta": field.format(doc.normalization["eps_beta"]),
        }
    return _canonical_json(data)


def serialize_structure(name: str, H: QhsaStructure) -> str:
    """The canonical document of H, read straight from its tables and elements."""
    alg = H.algebra
    field = alg.field
    fmt = field.format

    def sparse(terms):  # (word, scalar) pairs -> rows sorted by word
        return _sparse_json(field, sorted(w + (c,) for w, c in terms))

    def images(f):  # rows (i, *word, scalar) over the images of the basis
        return sparse(
            ((i,) + w, c) for i, img in enumerate(f.images) for w, c in img.terms.items()
        )

    def vector(x):
        return [fmt(x.terms.get((i,), field.zero())) for i in range(alg.dimension)]

    data = {
        "name": name,
        "field": field.to_json(),
        "dimension": alg.dimension,
        "parity": list(alg.parity),
        "unit": [fmt(c) for c in alg.unit],
        "mult": sparse(((i, j, k), c) for (i, j), row in alg.mult.items() for k, c in row.items()),
        "delta": images(H.delta),
        "epsilon": [fmt(img.scalar_value()) for img in H.epsilon.images],
        "antipode": images(H.antipode),
        "phi": sparse(H.phi.terms.items()),
        "alpha": vector(H.alpha),
        "beta": vector(H.beta),
    }
    if H.has_r:
        data["r"] = sparse(H.r_matrix.terms.items())
    return _canonical_json(data)


def load_structure(text: str) -> tuple:
    doc = parse_structure_document(text)
    return doc.name, document_to_structure(doc)


# -- report documents -------------------------------------------------------------


def report_document(fixture_name, suite_results, engine_version) -> dict:
    """suite_results: [(suite, CheckReport, seconds)] in execution order.

    Timing is segregated under its own key so reports stay byte-identical
    across runs once it is dropped.
    """
    entries = []
    overall = "pass"
    for suite, report, _ in suite_results:
        for e in report.entries:
            row = {"suite": suite, **e.to_json()}
            entries.append(row)
            if e.status == "fail":
                overall = "fail"
    return {
        "fixture": fixture_name,
        "engine_version": engine_version,
        "overall": overall,
        "entries": entries,
        "wall_time_seconds": {suite: round(t, 6) for suite, report, t in suite_results},
    }


def serialize_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def format_report_text(doc: dict) -> str:
    lines = [f"fixture: {doc['fixture']}"]
    for e in doc["entries"]:
        status = e["status"].upper()
        lines.append(f"{status:7s} {e['suite']}: {e['check_id']}")
        if e.get("witness"):
            lines.append(f"        witness: {json.dumps(e['witness'])}")
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for e in doc["entries"]:
        counts[e["status"]] += 1
    lines.append(
        f"overall: {doc['overall'].upper()} "
        f"({counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped)"
    )
    return "\n".join(lines) + "\n"
