"""The predict wire codec: ``orjson`` in and out, the stdlib's answers.

A predict body is parsed by ``orjson``, and by :func:`json.loads` when
``orjson`` refuses it; the rows become one float64 matrix; the answer is
written by ``orjson``.  Every expectation here is computed with the
stdlib codec in the test, so the server must read the same doubles,
refuse the same bodies with the same messages, and write answers that a
strict :func:`json.loads` reads back bit for bit.
"""

import http.client
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.api import ModelServer, _instances_to_matrix, _loads

NAMES = ("p", "q", "r")
PREDICT = "/v1/models/latest/predict"

#: Signed zeros, the smallest subnormal, the smallest normal and the
#: largest finite double.
SPECIAL = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    -2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
)

doubles = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _matrices():
    return st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.lists(doubles, min_size=width, max_size=width),
            min_size=1,
            max_size=8,
        )
    )


def _write(rows, style: str) -> bytes:
    """A predict body carrying ``rows``, written by ``json.dumps`` or
    with every value as ``'%.17g'``."""
    if style == "json.dumps":
        return json.dumps({"instances": rows}).encode()
    text = ",".join(
        "[" + ",".join("%.17g" % value for value in row) + "]" for row in rows
    )
    return ('{"instances": [' + text + "]}").encode()


def _decode(body: bytes) -> np.ndarray:
    document = _loads(body)
    width = len(document["instances"][0])
    return _instances_to_matrix(document, tuple(f"f{i}" for i in range(width)))


def _reference(body: bytes) -> np.ndarray:
    return np.asarray(json.loads(body)["instances"], dtype=float)


class TestDecodeMatchesJson:
    @given(_matrices(), st.sampled_from(["json.dumps", "%.17g"]))
    @settings(max_examples=300, deadline=None)
    def test_matrix_is_bit_identical(self, rows, style):
        body = _write(rows, style)
        got = _decode(body)
        want = _reference(body)
        assert got.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(
        st.text("0123456789", min_size=1, max_size=40),
        st.text("0123456789", max_size=40),
        st.integers(-360, 330),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_decimal_strings_read_the_same_double(
        self, whole, fraction, exponent, negative
    ):
        # Long mantissas, leading zeros in the fraction, exponents from
        # below the subnormals to past the largest double.
        literal = ("-" if negative else "") + (whole.lstrip("0") or "0")
        if fraction:
            literal += "." + fraction
        literal += f"e{exponent}"
        body = f'{{"instances": [[{literal}]]}}'.encode()
        assert _decode(body).tobytes() == _reference(body).tobytes()

    @pytest.mark.parametrize(
        "literal",
        [
            "2.2250738585072011e-308",  # just below the smallest normal
            "2.2250738585072012e-308",
            "2.4703282292062327e-324",  # half the smallest subnormal
            "2.4703282292062328e-324",
            "9007199254740993",  # 2**53 + 1: a halfway integer
            "9007199254740993.0",
            "1e23",
            "8.98846567431158e307",
            "1.7976931348623157e308",
            "1.7976931348623158e308",  # rounds down to the largest double
            "1.7976931348623159e308",  # overflows to inf
            "1e400",
            "1e-400",
            "-0",
            "-0.0",
            "18446744073709551616",  # 2**64: past 64 bits
            "-9223372036854775809",
            "1" + "0" * 300,  # an integer that still fits a double
            "0." + "3" * 800,
            "1" + "7" * 799 + "e-790",
        ],
    )
    def test_adversarial_literals(self, literal):
        body = f'{{"instances": [[{literal}]]}}'.encode()
        assert _decode(body).tobytes() == _reference(body).tobytes()

    def test_object_rows_follow_the_schema_order(self):
        body = b'{"instances": [{"r": 3.5, "p": 1e-310, "q": -0.0}]}'
        got = _instances_to_matrix(_loads(body), NAMES)
        want = np.asarray([[1e-310, -0.0, 3.5]])
        assert got.tobytes() == want.tobytes()


@pytest.fixture
def server(registry, tiny_tree):
    registry.publish(tiny_tree)
    with ModelServer(registry, port=0, monitor=False) as running:
        yield running


def _post(server, body: bytes):
    """POST raw bytes; (status, parsed answer, raw answer)."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "POST", PREDICT, body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    return response.status, json.loads(raw), raw


def _strict_loads(raw: bytes):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant!r}")

    return json.loads(raw, parse_constant=refuse)


STRICT = b'{"instances": [[0.1, 0.7, 0.3], [0.9, 0.2, 0.6]]}'

#: Bodies both parsers refuse; json.loads's error is the expected one.
REFUSED = {
    "malformed": b"not json{",
    "empty": b"",
    "trailing comma": b'{"instances": [[0.1, 0.7, 0.3],]}',
    "leading zero": b'{"instances": [[01, 0.7, 0.3]]}',
    "control character": b'{"instances": [[0.1, 0.7, 0.3]], "x": "\x01"}',
    "extra data": STRICT + b" x",
    "unterminated": b'{"instances": [[0.1',
    "single quotes": b"{'instances': [[0.1, 0.7, 0.3]]}",
    "invalid utf-8": b'{"instances": [[0.1, 0.7, 0.3]], "x": "\xff"}',
}

#: Bodies orjson refuses and json.loads accepts, equivalent to STRICT.
RESCUED = {
    "utf-8 bom": b"\xef\xbb\xbf" + STRICT,
    "utf-16": STRICT.decode().encode("utf-16"),
    "utf-32": STRICT.decode().encode("utf-32"),
    "lone surrogate": STRICT[:-1] + b', "note": "\\ud800"}',
}

#: Bodies orjson refuses and json.loads reads as non-finite input.
NON_FINITE = {
    "NaN": b'{"instances": [[NaN, 0.7, 0.3]]}',
    "Infinity": b'{"instances": [[0.1, Infinity, 0.3]]}',
    "-Infinity": b'{"instances": [[0.1, 0.7, -Infinity]]}',
    "overflowing literal": b'{"instances": [[0.1, 0.7, 1e400]]}',
    "past the largest double": (
        b'{"instances": [[1.7976931348623159e308, 0.7, 0.3]]}'
    ),
}


class TestRefusedBodies:
    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_same_status_code_and_message_as_json(self, server, name):
        body = REFUSED[name]
        try:
            json.loads(body)
        except json.JSONDecodeError as error:
            message = f"request body is not valid JSON: {error}"
            want = (400, "invalid_json", message)
        except ValueError as error:  # undecodable bytes
            want = (400, "invalid_input", str(error))
        else:  # pragma: no cover - the table is wrong
            pytest.fail("json.loads accepts this body")
        status, answer, _ = _post(server, body)
        error = answer["error"]
        assert (status, error["code"], error["message"]) == want

    @pytest.mark.parametrize("name", sorted(RESCUED))
    def test_json_accepts_what_orjson_refuses(self, server, tiny_tree, name):
        rescued = json.loads(RESCUED[name])["instances"]
        assert rescued == json.loads(STRICT)["instances"]
        status, answer, _ = _post(server, RESCUED[name])
        assert status == 200
        want = tiny_tree.predict(_reference(STRICT))
        assert np.asarray(answer["predictions"]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_literals_are_refused_as_input(
        self, server, tiny_tree, name
    ):
        body = NON_FINITE[name]
        with pytest.raises(ValueError) as expected:
            tiny_tree.predict(_reference(body))
        status, answer, _ = _post(server, body)
        assert (status, answer["error"]["code"]) == (400, "invalid_input")
        assert answer["error"]["message"] == str(expected.value)


class TestAnswersOverHttp:
    @pytest.mark.parametrize("scale", [1.0, 1e-310, 1e-200, 1e150])
    def test_strict_json_and_bit_identical(self, server, tiny_tree, scale):
        rng = np.random.default_rng(7)
        X = rng.random((64, 3)) * scale
        X[0] = [-0.0, 5e-324, 2.2250738585072014e-308]
        for style in ("json.dumps", "%.17g"):
            body = _write(X.tolist(), style)
            status, _, raw = _post(server, body)
            assert status == 200, raw
            answer = _strict_loads(raw)
            assert set(answer) == {"model_id", "n", "predictions", "trace"}
            assert answer["n"] == len(X)
            got = np.asarray(answer["predictions"], dtype=float)
            want = tiny_tree.predict(_reference(body))
            assert got.tobytes() == want.tobytes()
