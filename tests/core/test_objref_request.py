"""Tests for object references, protocol entries, and the request model."""

import numpy as np
import pytest

from repro.core.objref import ObjectReference, ProtocolEntry
from repro.core.request import (
    Invocation,
    decode_invocation,
    decode_reply,
    encode_invocation,
    encode_reply_exception,
    encode_reply_moved,
    encode_reply_ok,
)
from repro.exceptions import MarshalError, ObjectMovedError, RemoteException
from repro.idl.types import InterfaceSpec, MethodSpec
from repro.serialization.marshal import Marshaller, dumps, loads


def sample_interface():
    return InterfaceSpec("Thing", methods={"m": MethodSpec("m")})


def sample_oref():
    return ObjectReference(
        object_id="obj-1", context_id="ctx-1",
        interface=sample_interface(),
        protocols=[
            ProtocolEntry("glue", {"glue_id": "g1", "capabilities": [
                {"type": "quota", "max_calls": 5}],
                "inner": {"proto_id": "nexus", "proto_data": {}},
                "machine": "M1", "lan": "l", "site": "s",
                "addresses": []}),
            ProtocolEntry("shm", {"machine": "M1", "addresses": []}),
            ProtocolEntry("nexus", {"machine": "M1", "addresses": []}),
        ],
        version=3,
    )


class TestProtocolEntry:
    def test_wire_roundtrip(self):
        entry = ProtocolEntry("nexus", {"addresses": [{"a": 1}]})
        assert ProtocolEntry.from_wire(entry.to_wire()).proto_data == \
            entry.proto_data

    def test_clone_is_deep(self):
        entry = ProtocolEntry("nexus", {"addresses": [{"a": 1}]})
        copy = entry.clone()
        copy.proto_data["addresses"][0]["a"] = 2
        assert entry.proto_data["addresses"][0]["a"] == 1


class TestObjectReference:
    def test_bytes_roundtrip(self):
        oref = sample_oref()
        again = ObjectReference.from_bytes(oref.to_bytes())
        assert again.object_id == "obj-1"
        assert again.version == 3
        assert again.proto_ids() == ["glue", "shm", "nexus"]
        assert again.interface.method_names() == ("m",)
        assert again.protocols[0].proto_data["capabilities"][0]["type"] \
            == "quota"

    def test_entry_lookup(self):
        oref = sample_oref()
        assert oref.entry("shm").proto_id == "shm"
        assert oref.entry("nope") is None

    def test_clone_independent(self):
        oref = sample_oref()
        copy = oref.clone()
        copy.protocols.pop(0)
        assert len(oref.protocols) == 3

    def test_bad_bytes_rejected(self):
        with pytest.raises(MarshalError):
            ObjectReference.from_bytes(dumps({"not": "an oref"}))

    def test_marshals_as_value(self):
        """ORs ride the marshaller as first-class values — the mechanism
        that lets capabilities pass between processes (§4)."""
        oref = sample_oref()
        value = {"ref": oref, "note": "enjoy"}
        out = loads(dumps(value))
        assert isinstance(out["ref"], ObjectReference)
        assert out["ref"].proto_ids() == oref.proto_ids()

    def test_marshals_inside_arrays(self):
        out = loads(dumps([sample_oref(), sample_oref()]))
        assert all(isinstance(x, ObjectReference) for x in out)

    def test_uri_roundtrip(self):
        oref = sample_oref()
        uri = oref.to_uri()
        assert uri.startswith("hpcor:")
        again = ObjectReference.from_uri(uri)
        assert again.object_id == oref.object_id
        assert again.proto_ids() == oref.proto_ids()

    def test_uri_wrong_scheme(self):
        with pytest.raises(MarshalError):
            ObjectReference.from_uri("IOR:000102")

    def test_uri_corrupt_payload(self):
        uri = sample_oref().to_uri()
        with pytest.raises(MarshalError):
            ObjectReference.from_uri(uri[:-10] + "!!!madness")

    def test_uri_is_line_safe(self):
        """No whitespace or characters that break shells/files."""
        uri = sample_oref().to_uri()
        assert "\n" not in uri and " " not in uri


class TestInvocationCodec:
    M = Marshaller()

    def test_roundtrip(self):
        inv = Invocation("obj-1", "add", (1, "two", 3.0), oneway=False)
        out = decode_invocation(self.M, encode_invocation(self.M, inv))
        assert out == inv

    def test_array_args(self):
        arr = np.arange(10, dtype=np.int64)
        inv = Invocation("o", "m", (arr,))
        out = decode_invocation(self.M, encode_invocation(self.M, inv))
        np.testing.assert_array_equal(out.args[0], arr)

    def test_oneway_flag(self):
        inv = Invocation("o", "m", (), oneway=True)
        assert decode_invocation(
            self.M, encode_invocation(self.M, inv)).oneway

    def test_malformed_rejected(self):
        bad = self.M.dumps_many([1, 2, [], False])  # ids must be strings
        with pytest.raises(MarshalError):
            decode_invocation(self.M, bad)


class TestReplyCodec:
    M = Marshaller()

    def test_ok(self):
        wire = encode_reply_ok(self.M, {"x": [1, 2]})
        assert decode_reply(self.M, wire) == {"x": [1, 2]}

    def test_ok_none(self):
        assert decode_reply(self.M, encode_reply_ok(self.M, None)) is None

    def test_exception(self):
        wire = encode_reply_exception(self.M, ValueError("boom"))
        with pytest.raises(RemoteException) as err:
            decode_reply(self.M, wire)
        assert err.value.remote_type == "ValueError"
        assert "boom" in str(err.value)

    def test_moved_carries_forward(self):
        oref = sample_oref()
        wire = encode_reply_moved(self.M, oref.to_bytes())
        with pytest.raises(ObjectMovedError) as err:
            decode_reply(self.M, wire)
        assert err.value.forward.object_id == "obj-1"
        assert err.value.forward.version == 3


class TestMalformedEnvelope:
    M = Marshaller()

    @pytest.mark.parametrize("decode,fields", [
        (decode_reply, [7, None]),
        (decode_reply, ["OK", None]),
        (decode_reply, [1, "not a pair"]),
        (decode_reply, [3, (0.5, "why", "extra")]),
        (decode_invocation, ["o", "m", "not a list", False]),
    ], ids=["unknown-status", "non-int-status", "exception-payload",
            "overload-payload", "non-list-args"])
    def test_malformed_envelope_is_a_marshal_error(self, decode, fields):
        with pytest.raises(MarshalError):
            decode(self.M, self.M.dumps_many(fields))
