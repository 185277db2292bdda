"""Self-describing value marshaller over an XDR or CDR codec.

This is the layer the ORB uses to turn Python method arguments into wire
bytes.  Supported values: ``None``, ``bool``, ``int`` (any size), ``float``,
``complex``, ``str``, ``bytes``/``bytearray``/``memoryview``, ``list``,
``tuple``, ``set``, ``dict``, numpy ``ndarray``, and — via the pluggable
hook — :class:`repro.core.objref.ObjectReference` so global pointers can be
passed as arguments (how capabilities travel between processes, §4).

Dispatch
--------
Encoding looks the value's exact type up in one table and falls back to
``isinstance`` checks, in the same order, only for subclasses, object
references and numpy scalars; decoding looks the wire typecode up in
another.  Malformed input raises :class:`~repro.exceptions.MarshalError`
and nothing else.

Zero-copy discipline
--------------------
Large contiguous numpy arrays are encoded as a small header plus the raw
buffer, which the underlying :class:`~repro.util.bytesbuf.ByteBuffer`
stores *by reference*; decoding wraps the decoder's ``memoryview`` of the
body with ``np.frombuffer``.  Hence a 4 MB array argument crosses the
codec with no byte-level copies in either direction — the property §3.2
demands of proto-object implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import MarshalError, TypeCodeError
from repro.serialization.typecodes import ARRAY_DTYPES, TypeCode
from repro.serialization.xdr import XdrDecoder, XdrEncoder

__all__ = ["Marshaller", "dumps", "loads", "set_objref_hooks",
           "BatchRequest", "BatchReply", "peek_batch_count",
           "encode_overload_info", "decode_overload_info"]

# Pluggable ObjectReference (de)serialization, installed by repro.core.objref
# at import time to avoid a circular dependency: the marshaller must encode
# ORs, and ORs carry protocol tables that are themselves marshalled.
_OBJREF_HOOKS: Optional[tuple[Callable[[Any], bool],
                              Callable[[Any], bytes],
                              Callable[[bytes], Any]]] = None


def set_objref_hooks(is_objref: Callable[[Any], bool],
                     to_bytes: Callable[[Any], bytes],
                     from_bytes: Callable[[bytes], Any]) -> None:
    """Install the ObjectReference marshalling hooks (called by core)."""
    global _OBJREF_HOOKS
    _OBJREF_HOOKS = (is_objref, to_bytes, from_bytes)


class Marshaller:
    """Encode/decode arbitrary supported values over a codec pair.

    ``encoder_cls``/``decoder_cls`` default to XDR; pass the CDR classes to
    obtain a CDR marshaller.  Instances are stateless and thread-safe.
    """

    def __init__(self, encoder_cls=XdrEncoder, decoder_cls=XdrDecoder):
        self.encoder_cls = encoder_cls
        self.decoder_cls = decoder_cls

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def dumps(self, value: Any) -> bytes:
        enc = self.encoder_cls()
        self.encode_value(enc, value)
        return enc.getvalue()

    def dumps_many(self, values) -> bytes:
        """Encode a fixed-arity sequence without a length prefix."""
        enc = self.encoder_cls()
        for value in values:
            self.encode_value(enc, value)
        return enc.getvalue()

    def encode_value(self, enc, value: Any) -> None:
        encode = _ENCODERS.get(type(value))
        if encode is None:
            encode = _subclass_encoder(value)
        encode(self, enc, value)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def loads(self, data) -> Any:
        try:
            return self.decode_value(self.decoder_cls(data))
        except RecursionError:  # a peer's nesting deeper than our stack
            raise MarshalError("marshalled value nested too deeply") from None

    def loads_many(self, data, count: int) -> list:
        """Decode a fixed-arity sequence encoded by :meth:`dumps_many`."""
        dec = self.decoder_cls(data)
        try:
            return [self.decode_value(dec) for _ in range(count)]
        except RecursionError:
            raise MarshalError("marshalled value nested too deeply") from None

    def decode_value(self, dec) -> Any:
        tag = dec.unpack_uint()
        decode = _DECODERS.get(tag)
        if decode is None:
            raise TypeCodeError(f"unknown typecode {tag}")
        return decode(self, dec)


# -- encoders: (marshaller, encoder, value), chosen by the value's type -------

def _encode_int(m, enc, value) -> None:
    if -(2 ** 31) <= value < 2 ** 31:
        enc.pack_uint(TypeCode.INT32).pack_int(value)
    elif -(2 ** 63) <= value < 2 ** 63:
        enc.pack_uint(TypeCode.INT64).pack_hyper(value)
    else:
        nbytes = (value.bit_length() + 8) // 8  # +8 keeps the sign bit
        enc.pack_uint(TypeCode.BIGINT).pack_opaque(
            value.to_bytes(nbytes, "big", signed=True))


def _encode_ndarray(m, enc, arr: np.ndarray) -> None:
    dtype = arr.dtype
    code = _DTYPE_CODES.get(dtype.newbyteorder("<") if dtype.byteorder == ">"
                            else dtype)
    if code is None:
        raise MarshalError(f"unsupported ndarray dtype {arr.dtype}")
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    # Payload bytes are always little-endian on the wire regardless of
    # the codec's integer byte order (the header says so via the dtype
    # code table); byteswap only if the source array is big-endian.
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    enc.pack_uint(TypeCode.NDARRAY).pack_uint(code).pack_uint(arr.ndim)
    for dim in arr.shape:
        enc.pack_uhyper(dim)
    data = arr.reshape(-1).view(np.uint8).data  # zero-copy memoryview
    enc.pack_opaque(data)


def _items_encoder(code: TypeCode, order=None):
    def encode(m, enc, value) -> None:
        enc.pack_uint(code).pack_uint(len(value))
        for item in (value if order is None else order(value)):
            m.encode_value(enc, item)
    return encode


def _encode_dict(m, enc, value) -> None:
    enc.pack_uint(TypeCode.DICT).pack_uint(len(value))
    for k, v in value.items():
        m.encode_value(enc, k)
        m.encode_value(enc, v)


def _encode_bytes(m, enc, value) -> None:
    enc.pack_uint(TypeCode.BYTES).pack_opaque(value)


_encode_set = _items_encoder(TypeCode.SET, lambda v: sorted(v, key=repr))

#: Encoder per exact type.  Insertion order is also the ``isinstance``
#: order :func:`_subclass_encoder` tries, so ``bool`` precedes ``int``.
_ENCODERS = {
    type(None): lambda m, enc, v: enc.pack_uint(TypeCode.NONE),
    bool: lambda m, enc, v: enc.pack_uint(TypeCode.BOOL).pack_bool(v),
    int: _encode_int,
    float: lambda m, enc, v: enc.pack_uint(TypeCode.FLOAT64).pack_double(v),
    complex: lambda m, enc, v: (enc.pack_uint(TypeCode.COMPLEX128)
                                .pack_double(v.real).pack_double(v.imag)),
    str: lambda m, enc, v: enc.pack_uint(TypeCode.STRING).pack_string(v),
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    memoryview: _encode_bytes,
    np.ndarray: _encode_ndarray,
    list: _items_encoder(TypeCode.LIST),
    tuple: _items_encoder(TypeCode.TUPLE),
    set: _encode_set,
    frozenset: _encode_set,
    dict: _encode_dict,
}


def _subclass_encoder(value):
    """The encoder for a value whose exact type is not in the table."""
    for cls, encode in _ENCODERS.items():
        if isinstance(value, cls):
            return encode
    if _OBJREF_HOOKS is not None and _OBJREF_HOOKS[0](value):
        return lambda m, enc, v: enc.pack_uint(TypeCode.OBJREF).pack_opaque(
            _OBJREF_HOOKS[1](v))
    if isinstance(value, np.generic):
        # numpy scalar: degrade to the matching Python scalar.
        return lambda m, enc, v: m.encode_value(enc, v.item())
    raise MarshalError(
        f"cannot marshal value of type {type(value).__name__}")


# -- decoders: (marshaller, decoder) -> value, chosen by the wire tag ---------

def _decode_ndarray(m, dec) -> np.ndarray:
    dtype_code = dec.unpack_uint()
    dtype = _ARRAY_DTYPES.get(dtype_code)
    if dtype is None:
        raise TypeCodeError(f"unknown ndarray dtype code {dtype_code}")
    shape = tuple(dec.unpack_uhyper() for _ in range(dec.unpack_uint()))
    raw = dec.unpack_opaque()
    # Exact integers: a fixed-width product could wrap to the body size.
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise MarshalError(
            f"ndarray payload is {len(raw)} bytes, expected {expected}")
    # frombuffer is zero-copy; the result aliases the receive buffer and
    # is read-only, matching in-argument semantics.
    try:
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    except ValueError as exc:  # a shape numpy cannot represent
        raise MarshalError(f"bad ndarray shape {shape}: {exc}") from None


def _decode_set(m, dec) -> set:
    try:
        return {m.decode_value(dec) for _ in range(dec.unpack_uint())}
    except TypeError as exc:  # an unhashable member
        raise MarshalError(f"malformed set: {exc}") from None


def _decode_dict(m, dec) -> dict:
    try:  # a dict comprehension evaluates each key before its value
        return {m.decode_value(dec): m.decode_value(dec)
                for _ in range(dec.unpack_uint())}
    except TypeError as exc:  # an unhashable key
        raise MarshalError(f"malformed dict: {exc}") from None


def _decode_objref(m, dec):
    if _OBJREF_HOOKS is None:
        raise MarshalError("OBJREF seen but no hooks installed")
    return _OBJREF_HOOKS[2](bytes(dec.unpack_opaque()))


_DECODERS = {
    TypeCode.NONE: lambda m, dec: None,
    TypeCode.BOOL: lambda m, dec: dec.unpack_bool(),
    TypeCode.INT32: lambda m, dec: dec.unpack_int(),
    TypeCode.INT64: lambda m, dec: dec.unpack_hyper(),
    TypeCode.BIGINT: lambda m, dec: int.from_bytes(
        dec.unpack_opaque(), "big", signed=True),
    TypeCode.FLOAT64: lambda m, dec: dec.unpack_double(),
    TypeCode.FLOAT32: lambda m, dec: dec.unpack_float(),
    TypeCode.COMPLEX128: lambda m, dec: complex(dec.unpack_double(),
                                                dec.unpack_double()),
    TypeCode.STRING: lambda m, dec: dec.unpack_string(),
    TypeCode.BYTES: lambda m, dec: bytes(dec.unpack_opaque()),
    TypeCode.NDARRAY: _decode_ndarray,
    TypeCode.LIST: lambda m, dec: [m.decode_value(dec)
                                   for _ in range(dec.unpack_uint())],
    TypeCode.TUPLE: lambda m, dec: tuple([m.decode_value(dec)
                                          for _ in range(dec.unpack_uint())]),
    TypeCode.SET: _decode_set,
    TypeCode.DICT: _decode_dict,
    TypeCode.EXCEPTION: lambda m, dec: (dec.unpack_string(),
                                        dec.unpack_string()),
    TypeCode.OBJREF: _decode_objref,
}

#: numpy dtype per NDARRAY dtype code, and back, built once.
_ARRAY_DTYPES = {code: np.dtype(s) for code, s in ARRAY_DTYPES.items()}
_DTYPE_CODES = {dtype: code for code, dtype in _ARRAY_DTYPES.items()}


_DEFAULT = Marshaller()


def dumps(value: Any) -> bytes:
    """Marshal ``value`` with the default (XDR) marshaller."""
    return _DEFAULT.dumps(value)


def loads(data) -> Any:
    """Unmarshal bytes produced by :func:`dumps`."""
    return _DEFAULT.loads(data)


# ---------------------------------------------------------------------------
# Multi-request batch records
# ---------------------------------------------------------------------------

#: Wire discriminators so a request record can never be mis-decoded as a
#: reply (or vice versa) after a framing desync.
_BATCH_REQUEST_KIND = 0xB0A0
_BATCH_REPLY_KIND = 0xB0A1

#: Hard cap on sub-requests per record: a corrupted count must fail fast
#: instead of driving a multi-gigabyte allocation loop.
MAX_BATCH_ITEMS = 65536


def _encode_batch(kind: int, items) -> bytes:
    enc = XdrEncoder()
    enc.pack_uint(kind)
    enc.pack_uint(len(items))
    for sub_id, payload in items:
        enc.pack_uhyper(sub_id)
        enc.pack_opaque(payload)
    return enc.getvalue()


def _decode_batch(kind: int, what: str, data) -> Tuple[Tuple[int, bytes], ...]:
    dec = XdrDecoder(data)
    try:
        seen_kind = dec.unpack_uint()
        if seen_kind != kind:
            raise MarshalError(
                f"not a {what} record (kind 0x{seen_kind:x}, "
                f"expected 0x{kind:x})")
        count = dec.unpack_uint()
        if count > MAX_BATCH_ITEMS:
            raise MarshalError(
                f"{what} claims {count} items (cap {MAX_BATCH_ITEMS})")
        items = tuple((dec.unpack_uhyper(), bytes(dec.unpack_opaque()))
                      for _ in range(count))
    except MarshalError:
        raise
    except Exception as exc:  # noqa: BLE001 - underflow/struct errors
        raise MarshalError(f"truncated {what} record: {exc}") from exc
    if not dec.done():
        raise MarshalError(f"{what} record has trailing bytes")
    return items


@dataclass(frozen=True)
class BatchRequest:
    """One multi-request wire record: ``(sub_id, payload)`` pairs.

    The payloads are opaque at this layer — the invoke path puts encoded
    invocations in them; the glue path capability-processes the whole
    encoded record *once*, amortising crypto/compression/integrity cost
    across every sub-request it carries.  ``sub_id`` is the in-batch
    correlation id: replies may come back in any order and are matched
    by id, never by position.
    """

    items: Tuple[Tuple[int, bytes], ...]

    @classmethod
    def of(cls, payloads: Sequence[bytes]) -> "BatchRequest":
        """Wrap ``payloads`` with their positions as sub ids."""
        return cls(tuple((i, bytes(p)) for i, p in enumerate(payloads)))

    def to_bytes(self) -> bytes:
        return _encode_batch(_BATCH_REQUEST_KIND, self.items)

    @classmethod
    def from_bytes(cls, data) -> "BatchRequest":
        return cls(_decode_batch(_BATCH_REQUEST_KIND, "BatchRequest", data))

    def __len__(self) -> int:
        return len(self.items)


def peek_batch_count(data) -> Optional[int]:
    """The member count of a :class:`BatchRequest` record, or ``None``
    when ``data`` is not one.

    Admission control needs the *cost* of an opaque payload before
    dispatch; the batch record's fixed ``(kind, count)`` header makes
    that a two-word peek instead of a full decode.
    """
    try:
        dec = XdrDecoder(data)
        if dec.unpack_uint() != _BATCH_REQUEST_KIND:
            return None
        count = dec.unpack_uint()
    except Exception:  # noqa: BLE001 - truncated/foreign payload
        return None
    if count > MAX_BATCH_ITEMS:
        return None
    return count


def encode_overload_info(retry_after: float, reason: str = "overload",
                         depth: int = 0) -> bytes:
    """Encode the payload of an overload (pushback) reply::

        XDR: double retry_after    (seconds; the server's backoff hint)
             string reason         ("queue_full" | "deadline" | ...)
             uint   depth          (queue depth at shed time, diagnostics)
    """
    enc = XdrEncoder()
    enc.pack_double(float(retry_after))
    enc.pack_string(reason)
    enc.pack_uint(max(int(depth), 0))
    return enc.getvalue()


def decode_overload_info(data) -> dict:
    """Decode :func:`encode_overload_info` bytes into a plain dict."""
    try:
        dec = XdrDecoder(data)
        return {"retry_after": dec.unpack_double(),
                "reason": dec.unpack_string(),
                "depth": dec.unpack_uint()}
    except Exception as exc:  # noqa: BLE001 - underflow/struct errors
        raise MarshalError(f"malformed overload info: {exc}") from exc


@dataclass(frozen=True)
class BatchReply:
    """The reply record mirroring :class:`BatchRequest`.

    Each payload is an ordinary reply envelope (OK / EXCEPTION / MOVED),
    so one failed sub-request never poisons its batch-mates — partial
    failure is per-item by construction.
    """

    items: Tuple[Tuple[int, bytes], ...]

    def to_bytes(self) -> bytes:
        return _encode_batch(_BATCH_REPLY_KIND, self.items)

    @classmethod
    def from_bytes(cls, data) -> "BatchReply":
        return cls(_decode_batch(_BATCH_REPLY_KIND, "BatchReply", data))

    def in_order(self, count: int) -> list:
        """The reply payloads for sub ids ``0..count-1``, in id order.

        Raises :class:`MarshalError` when an id is missing or duplicated
        — a server that drops or double-answers a sub-request must not
        silently cross-deliver results.
        """
        by_id = {}
        for sub_id, payload in self.items:
            if sub_id in by_id:
                raise MarshalError(f"duplicate sub id {sub_id} in batch "
                                   "reply")
            by_id[sub_id] = payload
        try:
            return [by_id[i] for i in range(count)]
        except KeyError as exc:
            raise MarshalError(
                f"batch reply is missing sub id {exc.args[0]} "
                f"(got {sorted(by_id)})") from None

    def __len__(self) -> int:
        return len(self.items)
