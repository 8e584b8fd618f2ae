"""The JSON data readers: weight_keyed, the three loaders built on it
(characters, decomposition data, Q-hat data) and the Cartan matrix loader.

Each loader, given any JSON value in place of its document or of its entry
list, either returns or raises LiecharError; never KeyError, TypeError or
another exception that the CLI would print as a traceback with exit 1.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    CartanMatrix,
    Character,
    DataValidationError,
    DecompositionProvider,
    LiecharError,
    QrData,
    load_decomposition_data,
)
from liechar.errors import weight_keyed

from test_kernel import PROPERTY

# Every key a data document uses, so that drawn objects come near valid ones.
KEYS = (
    "cartan", "entries", "factors", "lambda", "matrix", "mu", "mult", "p",
    "qhat", "r", "rank", "rows", "type", "weight",
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3, width=16)
    | st.sampled_from(["", "A1", "A2", "2"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=4),
    max_leaves=16,
)

# Each loader, with a valid document around the value in place of its entries.
LOADERS = {
    "character": (Character.from_json_dict, lambda v: {"rank": 1, "entries": v}),
    "decomposition": (
        load_decomposition_data,
        lambda v: {"type": "A1", "p": 3, "rows": v},
    ),
    "qhat": (
        lambda doc: QrData.from_json_dict(doc, DecompositionProvider.builtin_sl2(3)),
        lambda v: {"type": "A1", "p": 3, "r": 1, "entries": v},
    ),
    "cartan": (CartanMatrix.from_json_dict, lambda v: {"rank": 2, "matrix": v}),
}


def returns_or_raises_liechar_error(load, doc):
    try:
        load(doc)
    except LiecharError:
        pass


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(PROPERTY, max_examples=60)
@given(value=JSON_VALUES)
def test_any_json_value_as_document(name, value):
    returns_or_raises_liechar_error(LOADERS[name][0], value)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(PROPERTY, max_examples=60)
@given(value=JSON_VALUES | st.lists(JSON_VALUES, max_size=4))
def test_any_json_value_as_entry_list(name, value):
    load, around = LOADERS[name]
    returns_or_raises_liechar_error(load, around(value))


class TestWeightKeyed:
    """What the loaders' own tests do not reach: the messages for a value
    that is not a list and for an entry that is malformed, and the value
    reader's own errors, which pass through unchanged."""

    @pytest.mark.parametrize("entries", [None, 5, "ab", {"w": [0]}])
    def test_refuses_what_is_not_a_list(self, entries):
        with pytest.raises(DataValidationError, match="w entries must form a list"):
            weight_keyed(entries, "w", lambda e: e["v"], "thing")

    @pytest.mark.parametrize("entry", [5, None, [0], {"v": 1}, {"w": [0]}])
    def test_names_a_malformed_entry(self, entry):
        message = f"malformed thing entry {entry!r}"
        with pytest.raises(DataValidationError, match=re.escape(message)):
            weight_keyed([entry], "w", lambda e: e["v"], "thing")

    def test_passes_the_value_readers_own_errors_through(self):
        def refuse(entry):
            raise DataValidationError("inner refusal")

        with pytest.raises(DataValidationError, match="^inner refusal$"):
            weight_keyed([{"w": [0]}], "w", refuse, "thing")
