"""The shared request-frame decoder: any bytes give a request dict or a
typed error reply, never an exception."""

from __future__ import annotations

import json

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.serving.frontend import decode_frame

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=6,
)


def _assert_contract(line: bytes) -> None:
    message, reply = decode_frame(line)
    assert (message is None) != (reply is None)
    if message is not None:
        assert isinstance(message, dict)
    else:
        assert reply["ok"] is False and reply["error"] == "FleetError"
        json.dumps(reply)  # the reply itself goes back over the wire


class TestDecodeFrame:
    def test_object_decodes(self):
        assert decode_frame(b'{"op": "score", "ids": [1]}\n') == (
            {"op": "score", "ids": [1]},
            None,
        )

    def test_non_objects_and_garbage_are_typed(self):
        for line in (b"[1]\n", b"null\n", b"3\n", b'"x"\n', b"\xff\xfe{", b""):
            message, reply = decode_frame(line)
            assert message is None and reply["error"] == "FleetError"

    def test_deep_nesting_is_typed(self):
        _, reply = decode_frame(b"[" * 100_000)
        assert reply["error"] == "FleetError"

    @seed(2007)
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.binary(max_size=64) | _JSON.map(lambda v: json.dumps(v).encode()))
    def test_any_bytes_give_dict_or_typed_reply(self, line):
        _assert_contract(line)
