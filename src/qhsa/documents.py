"""Structure-document parsing and serialization.

The on-disk syntax is a strict subset of JSON.  Serialization is canonical:
fixed key order, index tuples sorted lexicographically, scalars in their
canonical text encoding, two-space indentation, trailing newline.  Parsing a
canonical document and serializing it again reproduces it byte for byte.

A parsed document is a plain dict of the document's keys and their parsed
values: scalars as field elements, sparse rows as sorted ``(i, j, ...,
scalar)`` tuples, and an absent optional key absent.  A structure is read by
``load_structure``: ``parse_structure_document`` checks the text into such a
dict and ``document_to_structure`` builds the ``QhsaStructure`` from it.
``serialize_structure`` writes a structure straight from its tables and
elements, with no document in between.  A twistor goes both ways through a
dict: ``parse_twistor_document`` then ``document_to_twistor`` to read,
``twistor_to_document`` then ``serialize_twistor_document`` to write.
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
from json.encoder import encode_basestring_ascii as _string
from math import isfinite

from .algebra import GradedAlgebra, StructureMap, TensorElement
from .scalars import FieldSpec, ScalarError, echo
from .structure import QhsaStructure


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

# sparse key -> the number of indices that open each of its rows; every other
# body key of a structure is a vector of ``dimension`` scalars
SPARSE_KEYS = {"mult": 3, "delta": 3, "antipode": 2, "phi": 3, "r": 2, "element": 2, "inverse": 2}


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


def _scalar_parser(field):
    """``field.parse`` that parses each distinct text once: a text -> value
    dict for one document, dropped with it.  Values are immutable, so rows
    share them; a failure is never stored, so it raises at every position."""
    parsed = {}

    def parse(text):
        value = parsed.get(text) if type(text) is str else None
        if value is None:  # a non-string raises here, before it is stored
            value = parsed[text] = field.parse(text)
        return value

    return parse


def _parse_scalar(parse, value, where):
    try:
        return parse(value)
    except ScalarError as exc:
        raise DocumentError(f"{where}: {exc}")


def _parse_scalar_vector(parse, data, length, key):
    if not isinstance(data, list) or len(data) != length:
        raise DocumentError(f"{key} must be a list of {length} scalars")
    return tuple(_parse_scalar(parse, v, f"{key}[{i}]") for i, v in enumerate(data))


def _is_int(value) -> bool:
    # JSON true and false load as bools, which are ints equal to 1 and 0
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_sparse(parse, data, index_count, dimension, key):
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
        rows.append(word + (_parse_scalar(parse, row[index_count], where),))
    return tuple(sorted(rows, key=lambda r: r[:index_count]))


def _parse_header(data) -> dict:
    """The name, field and dimension that both document kinds open with."""
    name, dim = data["name"], data["dimension"]
    if not isinstance(name, str) or not name:
        raise DocumentError("name must be a nonempty string")
    try:
        field = FieldSpec.from_json(data["field"])
    except ScalarError as exc:
        raise DocumentError(f"field: {exc}")
    if not _is_int(dim) or dim < 1:
        raise DocumentError("dimension must be a positive integer")
    return {"name": name, "field": field, "dimension": dim}


def _parse_body(data, doc, keys, parse) -> dict:
    """``doc`` with each of ``keys`` present in ``data`` parsed, in the order
    of ``keys``: a sparse key into sorted rows, any other into a vector."""
    dim = doc["dimension"]
    for key in keys:
        if key in data:
            count = SPARSE_KEYS.get(key)
            doc[key] = (
                _parse_sparse(parse, data[key], count, dim, key)
                if count
                else _parse_scalar_vector(parse, data[key], dim, key)
            )
    return doc


def parse_structure_document(text: str) -> dict:
    """Check ``text`` into a dict of its keys and their parsed values, parsing
    each distinct scalar text once (``_scalar_parser``); keys are parsed in
    ``STRUCTURE_KEYS`` order, so an invalid scalar is named at its first position."""
    data = _load_json(text)
    _expect_keys(data, STRUCTURE_KEYS, STRUCTURE_KEYS[:-1], "structure")  # all but r
    doc = _parse_header(data)
    dim = doc["dimension"]
    parity = data["parity"]
    if (
        not isinstance(parity, list)
        or len(parity) != dim
        or any(not _is_int(p) or p not in (0, 1) for p in parity)
    ):
        raise DocumentError(f"parity must be a 0/1 list of length {dim}")
    doc["parity"] = tuple(parity)
    return _parse_body(data, doc, STRUCTURE_KEYS[4:], _scalar_parser(doc["field"]))


def parse_twistor_document(text: str) -> dict:
    data = _load_json(text)
    _expect_keys(data, TWISTOR_KEYS, TWISTOR_KEYS[:4], "twistor")  # all but inverse, normalization
    doc = _parse_header(data)
    parse = _scalar_parser(doc["field"])
    norm = data.get("normalization")
    if norm is not None:
        _expect_keys(norm, ("eps_alpha", "eps_beta"), ("eps_alpha", "eps_beta"), "normalization")
        doc["normalization"] = {
            key: _parse_scalar(parse, norm[key], f"normalization.{key}")
            for key in ("eps_alpha", "eps_beta")
        }
    return _parse_body(data, doc, ("element", "inverse"), parse)


# -- document <-> structure -----------------------------------------------------


def _element(algebra, arity, rows) -> TensorElement:
    return TensorElement(algebra, arity, {row[:-1]: row[-1] for row in rows})


def document_to_structure(doc: dict) -> QhsaStructure:
    dim = doc["dimension"]
    mult = {}
    for i, j, k, c in doc["mult"]:
        mult.setdefault((i, j), {})[k] = c
    algebra = GradedAlgebra(dim, doc["parity"], doc["unit"], mult, doc["field"])

    def sparse_map(rows, out_arity):
        images = {}
        for row in rows:
            i, word, c = row[0], row[1:-1], row[-1]
            images.setdefault(i, {})[word] = c
        return StructureMap(
            algebra,
            out_arity,
            [TensorElement(algebra, out_arity, images.get(i, {})) for i in range(dim)],
        )

    def vector(values):
        return TensorElement(algebra, 1, {(i,): c for i, c in enumerate(values)})

    r = doc.get("r")
    return QhsaStructure(
        algebra,
        sparse_map(doc["delta"], 2),
        StructureMap(algebra, 0, [TensorElement(algebra, 0, {(): c}) for c in doc["epsilon"]]),
        sparse_map(doc["antipode"], 1),
        _element(algebra, 3, doc["phi"]),
        vector(doc["alpha"]),
        vector(doc["beta"]),
        None if r is None else _element(algebra, 2, r),
    )


def twistor_to_document(name: str, H: QhsaStructure, F, normalization=None) -> dict:
    doc = {
        "name": name,
        "field": H.algebra.field,
        "dimension": H.algebra.dimension,
        "element": tuple(sorted(w + (c,) for w, c in F.element.terms.items())),
        "inverse": tuple(sorted(w + (c,) for w, c in F.inverse.terms.items())),
    }
    if normalization is not None:
        doc["normalization"] = dict(zip(("eps_alpha", "eps_beta"), normalization))
    return doc


def document_to_twistor(doc: dict, H: QhsaStructure):
    """The ``qhsa.transforms.Twistor`` on H that the parsed document declares."""
    from .transforms import Twistor

    if doc["field"] != H.algebra.field:
        raise DocumentError("twistor and structure declare different fields")
    if doc["dimension"] != H.algebra.dimension:
        raise DocumentError("twistor and structure dimensions differ")
    inverse = doc.get("inverse")
    return Twistor(
        _element(H.algebra, 2, doc["element"]),
        None if inverse is None else _element(H.algebra, 2, inverse),
    )


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


def serialize_twistor_document(doc: dict) -> str:
    field = doc["field"]
    data = {"name": doc["name"], "field": field.to_json(), "dimension": doc["dimension"]}
    for key in ("element", "inverse"):
        if key in doc:
            data[key] = _sparse_json(field, doc[key])
    if "normalization" in doc:
        data["normalization"] = {k: field.format(v) for k, v in doc["normalization"].items()}
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
    return doc["name"], document_to_structure(doc)


# -- report documents -------------------------------------------------------------


def report_document(fixture_name, suite_results, engine_version) -> dict:
    """suite_results: [(suite, CheckReport, seconds)] in execution order.

    Timing is segregated under its own key so reports stay byte-identical
    across runs once it is dropped.
    """
    entries = [{"suite": suite, **e} for suite, report, _ in suite_results for e in report.entries]
    return {
        "fixture": fixture_name,
        "engine_version": engine_version,
        "overall": "pass" if all(report.ok for _, report, _ in suite_results) else "fail",
        "entries": entries,
        "wall_time_seconds": {suite: round(t, 6) for suite, report, t in suite_results},
    }


def _json_text(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` at depth ``indent``, without the pure-Python
    encoder: ``json.dumps`` writes only empty, non-finite and other values."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int or kind is float and isfinite(value):
        return repr(value)
    inner = indent + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        items = (f"{inner}{_string(k)}: {_json_text(v, inner)}" for k, v in value.items())
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if (kind is list or kind is tuple) and value:
        return "[\n" + ",\n".join(inner + _json_text(v, inner) for v in value) + f"\n{indent}]"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


_REPORT = '{\n  "fixture": %s,\n  "engine_version": %s,\n  "overall": %s,\n  "entries": %s,\n  "wall_time_seconds": %s\n}\n'
_ENTRY = '    {\n      "suite": %s,\n      "check_id": %s,\n      "status": %s\n    }'


def serialize_report(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a ``report_document``, whose keys
    and those of an entry with no witness or detail fill ``_REPORT`` and ``_ENTRY``."""
    rows = [
        _ENTRY % tuple(map(_string, e.values())) if len(e) == 3 else "    " + _json_text(e, "    ")
        for e in doc["entries"]
    ]
    head = map(_string, (doc["fixture"], doc["engine_version"], doc["overall"]))
    entries = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return _REPORT % (*head, entries, _json_text(doc["wall_time_seconds"], "  "))


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
