"""Tests for the self-describing value marshaller."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import MarshalError, TypeCodeError
from repro.serialization.cdr import CdrDecoder, CdrEncoder
from repro.serialization.marshal import Marshaller, dumps, loads
from repro.serialization.typecodes import TypeCode
from repro.serialization.xdr import XdrEncoder

XDR = Marshaller()
CDR = Marshaller(CdrEncoder, CdrDecoder)


recursive_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=10), st.binary(max_size=10)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=20,
)

arrays = hnp.arrays(
    dtype=st.sampled_from([np.int32, np.float64, np.uint8]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, max_side=8),
    elements=st.integers(0, 100),
)


def roundtrip(value, m=XDR):
    return m.loads(m.dumps(value))


def assert_same(out, value):
    """``out == value``, comparing ndarrays (also inside a list) by shape
    and elements."""
    if isinstance(value, np.ndarray):
        assert out.shape == value.shape
        np.testing.assert_array_equal(out, value)
    elif isinstance(value, list):
        assert type(out) is list and len(out) == len(value)
        for item_out, item in zip(out, value):
            assert_same(item_out, item)
    else:
        assert out == value


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2 ** 31 - 1, -(2 ** 31),
        2 ** 40, -(2 ** 40), 2 ** 100, -(2 ** 100),
        0.0, -2.5, 1e300, float("inf"),
        1 + 2j, "", "hello", "héllo ✓", b"", b"bytes",
    ])
    def test_roundtrip_xdr(self, value):
        assert roundtrip(value) == value

    @pytest.mark.parametrize("value", [
        None, True, -7, 2 ** 50, 2 ** 100, 3.25, "x", b"y", 1 - 1j,
    ])
    def test_roundtrip_cdr(self, value):
        assert roundtrip(value, CDR) == value

    def test_bool_is_not_int(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1 and roundtrip(1) is not True

    def test_bytearray_becomes_bytes(self):
        assert roundtrip(bytearray(b"ab")) == b"ab"

    def test_memoryview_becomes_bytes(self):
        assert roundtrip(memoryview(b"ab")) == b"ab"

    def test_numpy_scalar_degrades(self):
        assert roundtrip(np.int64(5)) == 5
        assert roundtrip(np.float64(2.5)) == 2.5

    @given(st.integers())
    def test_any_int(self, v):
        assert roundtrip(v) == v

    @given(st.floats(allow_nan=False))
    def test_any_float(self, v):
        assert roundtrip(v) == v

    @given(st.text(max_size=200))
    def test_any_text(self, v):
        assert roundtrip(v) == v


class TestContainers:
    def test_nested(self):
        value = {"a": [1, 2, (3, "four")], "b": {"c": None},
                 "k": {1, 2, 3}}
        assert roundtrip(value) == value

    def test_empty_containers(self):
        for v in ([], (), {}, set()):
            assert roundtrip(v) == v

    def test_tuple_vs_list_preserved(self):
        assert isinstance(roundtrip((1, 2)), tuple)
        assert isinstance(roundtrip([1, 2]), list)

    def test_dict_with_tuple_keys(self):
        value = {(1, "a"): "x", (2, "b"): "y"}
        assert roundtrip(value) == value

    @given(recursive_values)
    @settings(max_examples=60)
    def test_recursive_values(self, value):
        assert roundtrip(value) == value
        assert roundtrip(value, CDR) == value

    def test_unmarshalable_type_rejected(self):
        with pytest.raises(MarshalError):
            dumps(object())

    def test_unknown_typecode_rejected(self):
        with pytest.raises(TypeCodeError):
            loads(b"\x00\x00\x00\xfa")

    @pytest.mark.parametrize("m", [XDR, CDR], ids=["xdr", "cdr"])
    def test_nesting_deeper_than_the_stack_rejected(self, m):
        enc = m.encoder_cls()
        for _ in range(5000):  # [[[...[None]...]]]
            enc.pack_uint(TypeCode.LIST).pack_uint(1)
        wire = enc.pack_uint(TypeCode.NONE).getvalue()
        with pytest.raises(MarshalError):
            m.loads(wire)
        with pytest.raises(MarshalError):
            m.loads_many(wire, 1)


class TestNdarrays:
    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
        np.float32, np.float64, np.complex64, np.complex128, np.bool_,
    ])
    def test_all_dtypes(self, dtype):
        arr = np.arange(8).astype(dtype)
        out = roundtrip(arr)
        assert out.dtype == np.dtype(dtype).newbyteorder("<") or \
            out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, arr)

    def test_shape_preserved(self):
        arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        out = roundtrip(arr)
        assert out.shape == (2, 3, 4)
        np.testing.assert_array_equal(out, arr)

    def test_empty_array(self):
        out = roundtrip(np.empty((0, 3), dtype=np.int32))
        assert out.shape == (0, 3)

    def test_zero_dim_array(self):
        out = roundtrip(np.array(7.5))
        assert out.shape == () and out[()] == 7.5

    def test_noncontiguous_input(self):
        arr = np.arange(20, dtype=np.int32)[::2]
        np.testing.assert_array_equal(roundtrip(arr), arr)

    def test_fortran_order_input(self):
        arr = np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4))
        np.testing.assert_array_equal(roundtrip(arr), arr)

    def test_big_endian_input_normalized(self):
        arr = np.arange(5, dtype=">i4")
        out = roundtrip(arr)
        np.testing.assert_array_equal(out, arr)

    def test_decode_is_zero_copy(self):
        arr = np.arange(1 << 12, dtype=np.int64)
        wire = dumps(arr)
        out = loads(wire)
        # The decoded array aliases the wire buffer (read-only view).
        assert not out.flags.writeable
        assert out.base is not None

    def test_large_array_roundtrip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(1 << 16)
        np.testing.assert_array_equal(roundtrip(arr), arr)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(MarshalError):
            dumps(np.zeros(3, dtype=np.float16))

    def test_corrupt_payload_length_rejected(self):
        wire = bytearray(dumps(np.arange(4, dtype=np.int32)))
        # Shrink the declared opaque length header mid-stream: decoding
        # must fail loudly, not mis-shape.
        m = Marshaller()
        with pytest.raises(MarshalError):
            # Truncate the buffer so payload is short.
            m.loads(bytes(wire[:-4]))

    @given(arrays)
    @settings(max_examples=40)
    def test_arrays_property(self, arr):
        out = roundtrip(arr)
        np.testing.assert_array_equal(out, arr)

    @pytest.mark.parametrize("shape,body", [
        ((2 ** 32, 2 ** 32), b""),     # the int64 product wraps to 0 bytes
        ((0, 2 ** 63), b""),           # no ndarray has a dim this large
        ((1,) * 65, b"\x00" * 4),      # nor this many dims
    ], ids=["int64-wrap", "huge-dim", "too-many-dims"])
    def test_impossible_shape_rejected(self, shape, body):
        enc = XdrEncoder().pack_uint(TypeCode.NDARRAY).pack_uint(2)  # <i4
        enc.pack_array(shape, enc.pack_uhyper).pack_opaque(body)
        with pytest.raises(MarshalError):
            loads(enc.getvalue())

    def test_array_inside_container(self):
        value = {"payload": np.arange(10, dtype=np.int32), "tag": "x"}
        out = roundtrip(value)
        np.testing.assert_array_equal(out["payload"], value["payload"])
        assert out["tag"] == "x"


class TestFixedArity:
    def test_dumps_many_loads_many(self):
        wire = XDR.dumps_many([1, "two", 3.0])
        assert XDR.loads_many(wire, 3) == [1, "two", 3.0]

    def test_cross_codec_fails_loudly(self):
        # CDR bytes fed to the XDR unmarshaller must not silently decode.
        wire = CDR.dumps("hello world and more text")
        with pytest.raises(Exception):
            XDR.loads(wire)


class TestTruncation:
    """Every strict prefix of an encoding is rejected with MarshalError
    and nothing else; the whole encoding round-trips."""

    @pytest.mark.parametrize("m", [XDR, CDR], ids=["xdr", "cdr"])
    @given(value=st.one_of(recursive_values, arrays,
                           st.lists(arrays, max_size=3)))
    @settings(max_examples=60, derandomize=True)
    def test_every_strict_prefix_rejected(self, m, value):
        wire = m.dumps(value)
        assert_same(m.loads(wire), value)
        for cut in range(len(wire)):
            with pytest.raises(MarshalError):
                m.loads(wire[:cut])
