"""Hypothesis strategies for JSON-shaped loader input, valid and malformed."""

from __future__ import annotations

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
