"""Hypothesis strategies for loader input, valid and malformed: group and
multiplier JSON, and matrix files in CSV and SCHR1 binary form."""

from __future__ import annotations

import struct

from hypothesis import strategies as st

GROUP_KINDS = ("free", "zn", "finite", "sl2z", "sl2z_semidirect")

json_scalars = (st.none() | st.booleans() | st.integers(-3, 40) | st.integers()
                | st.floats() | st.text(max_size=4))

json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)

# near-valid multiplication tables: square-ish lists of small indices
small_tables = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-1, n) | json_scalars, min_size=n - 1,
                                max_size=n + 1), min_size=n - 1, max_size=n + 1))


@st.composite
def group_descriptions(draw):
    """A dict shaped like a group description: a kind (usually a real one)
    and fields drawn from the real field names and from noise."""
    fields = st.sampled_from(["rank", "n", "table", "generators", "names"]) | st.text(max_size=3)
    desc = draw(st.dictionaries(fields, json_values, max_size=4))
    if draw(st.integers(0, 3)):
        desc["kind"] = draw(st.sampled_from(GROUP_KINDS) | json_values)
    if desc.get("kind") == "finite" and draw(st.booleans()):
        desc["table"] = draw(small_tables)
    return desc


# JSON for SL(2,Z) and semidirect elements: [[a, b], [c, d]] and [matrix, [v0, v1]]
matrix_json = st.lists(st.lists(st.integers(-3, 3) | json_scalars, max_size=3), max_size=3)
semidirect_json = st.lists(matrix_json | json_values, max_size=3)


# multiplier files on Z: support rows [element, re, im], radial coefficient
# lists or a constant, each value a number, an [re, im] pair, or noise
json_numbers = st.integers(-3, 3) | st.floats() | st.integers()
value_json = json_numbers | st.lists(json_numbers, max_size=3) | json_values
z_element_json = st.lists(st.integers(-3, 3) | json_scalars, max_size=2) | json_values


@st.composite
def multiplier_descriptions(draw):
    """A dict shaped like a multiplier file: one of the three forms (or an
    unknown key), its body drawn from near-valid shapes and from noise, and
    sometimes a name."""
    form = draw(st.sampled_from(["support", "radial", "constant"]) | st.text(max_size=3))
    if form == "support":
        row = st.tuples(z_element_json, value_json, value_json).map(list)
        body = draw(st.lists(row | json_values, max_size=4) | json_values)
    elif form == "radial":
        coeffs = st.lists(value_json, max_size=5) | json_values
        body = draw(st.fixed_dictionaries({}, optional={"coeffs_by_length": coeffs})
                    | json_values)
    else:
        body = draw(value_json)
    desc = {form: body}
    if draw(st.booleans()):
        desc["name"] = draw(st.text(max_size=3) | json_values)
    return desc


# matrix files for `mdlab schur`: CSV text and SCHR1 binary, both small
matrix_token = (st.floats().map(repr) | st.integers(-3, 3).map(str)
                | st.tuples(st.floats(), st.floats()).map(lambda p: f"{p[0]}+{p[1]}j")
                | st.sampled_from(["nan", "inf", "1i", "", " ", "#"]) | st.text(max_size=3))
matrix_csv_text = st.lists(st.lists(matrix_token, min_size=1, max_size=4).map(",".join),
                           max_size=4).map("\n".join)


@st.composite
def matrix_binary_bytes(draw):
    """The SCHR1 header with a small or oversized shape, then float64
    (re, im) pairs: as many as the shape needs, or fewer, or more."""
    m = draw(st.integers(0, 4) | st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(0, 4) | st.integers(0, 2 ** 32 - 1))
    count = draw(st.just(2 * m * n) | st.integers(0, 40)) if m * n <= 16 \
        else draw(st.integers(0, 40))
    values = draw(st.lists(st.floats(), min_size=count, max_size=count))
    magic = draw(st.just(b"SCHR1") | st.binary(max_size=6))
    return magic + struct.pack("<II", m, n) + struct.pack(f"<{count}d", *values)
