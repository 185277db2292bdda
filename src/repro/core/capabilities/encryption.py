"""Encryption capability: DH-agreed symmetric encryption of requests.

The motivating scenario wants the server to "encrypt the data exchanged"
with clients connecting from outside its trust boundary (§1); the Figure
4 experiment stacks exactly this ("security") on top of the timeout
capability.

Key management: the descriptor carries the *server's* long-term DH public
value — public data, safe inside a travelling OR.  The client half
generates an ephemeral DH key, derives the shared symmetric key, and
prefixes every message with its ephemeral public value plus a fresh
nonce.  The server half derives (and caches) the same key per client
public value.  Nothing secret ever rides in the descriptor.

Wire layout of a processed payload (XDR)::

    opaque client_dh_public
    uhyper nonce
    opaque ciphertext

Default applicability: ``different-site`` — encrypt exactly when client
and server are on different campuses, the policy of the paper's Figure 3
and Figure 4 scenarios.
"""

from __future__ import annotations

from typing import Dict

from repro.core.capabilities.base import Capability, register_capability_type
from repro.core.request import RequestMeta
from repro.exceptions import CapabilityError, DecryptionError
from repro.security.block_cipher import XteaCtr
from repro.security.dh import DEFAULT_DH_PARAMS, DhParams, DhPrivateKey
from repro.security.prng import Pcg32
from repro.security.stream_cipher import StreamCipher
from repro.serialization.xdr import XdrDecoder, XdrEncoder

__all__ = ["EncryptionCapability"]

_CIPHERS = {"stream", "xtea"}


@register_capability_type
class EncryptionCapability(Capability):
    """Symmetric encryption with per-OR DH key agreement."""

    type_name = "encryption"
    default_applicability = "different-site"
    cost_kind = "cipher"

    def __init__(self, descriptor: dict, context, role: str):
        super().__init__(descriptor, context, role)
        cipher = self.descriptor.get("cipher", "stream")
        if cipher not in _CIPHERS:
            raise CapabilityError(f"unknown cipher {cipher!r}")
        self.cipher_name = cipher
        if cipher == "xtea":
            self.cost_kind = "block_cipher"
        params = self.descriptor.get("dh_params")
        self.dh_params = (DhParams(p=params[0], g=params[1]) if params
                          else DEFAULT_DH_PARAMS)
        # Nonce stream seeded per instance with a process-unique token:
        # id() alone can recur after GC (e.g. stacks re-created by
        # migration), and nonce reuse under one session key would leak
        # keystream.
        from repro.util.ids import fresh_uid

        self._nonce_rng = Pcg32(
            seed=hash((fresh_uid(), role)) & 0xFFFFFFFF, stream=7)
        self._key_cache: Dict[int, bytes] = {}
        if role == "server":
            seed = self.descriptor.get("server_key_seed")
            if seed is None:
                raise CapabilityError(
                    "server half needs server_key_seed in the descriptor "
                    "(use EncryptionCapability.server_descriptor)")
            self._dh = DhPrivateKey(self.dh_params, seed=seed)
            if self._dh.public != self.descriptor.get("server_public"):
                raise CapabilityError(
                    "descriptor server_public does not match the seed")
        else:
            if "server_public" not in self.descriptor:
                raise CapabilityError(
                    "client half needs server_public in the descriptor")
            self._dh = DhPrivateKey(self.dh_params)
            self._shared_key = self._dh.derive_key(
                self.descriptor["server_public"], nbytes=16)

    # -- descriptor construction ----------------------------------------------

    @classmethod
    def server_descriptor(cls, key_seed: int, cipher: str = "stream",
                          applicability: str | None = None) -> dict:
        """Build the travelling descriptor for a server whose long-term
        DH private key derives from ``key_seed``.

        Note: the seed is included so the *exporting server* can
        reconstruct its half; a production system would keep the private
        key in a local store and strip ``server_key_seed`` before handing
        the OR out.  ``ObjectReference.public_descriptor`` sanitization is
        left to applications; the tests cover both shapes.
        """
        dh = DhPrivateKey(DEFAULT_DH_PARAMS, seed=key_seed)
        descriptor = cls.describe(cipher=cipher,
                                  server_public=dh.public,
                                  server_key_seed=key_seed)
        if applicability:
            descriptor["applicability"] = applicability
        return descriptor

    # -- key handling -----------------------------------------------------------

    def _make_cipher(self, key: bytes):
        if self.cipher_name == "xtea":
            return XteaCtr(key)
        return StreamCipher(key)

    def _server_key_for(self, client_public: int) -> bytes:
        key = self._key_cache.get(client_public)
        if key is None:
            key = self._dh.derive_key(client_public, nbytes=16)
            # Bound the cache: one entry per client ephemeral key; evict
            # wholesale if an adversarial peer churns keys.
            if len(self._key_cache) > 1024:
                self._key_cache.clear()
            self._key_cache[client_public] = key
        return key

    # -- transforms ---------------------------------------------------------------

    def _encrypt(self, data: bytes, key: bytes) -> bytes:
        public = self._dh.public
        nonce = (self._nonce_rng.next_u32() << 32) | \
            self._nonce_rng.next_u32()
        ciphertext = self._make_cipher(key).encrypt(data, nonce)
        enc = XdrEncoder()
        enc.pack_opaque(public.to_bytes(
            (self.dh_params.p.bit_length() + 7) // 8, "big"))
        enc.pack_uhyper(nonce)
        enc.pack_opaque(ciphertext)
        return enc.getvalue()

    def _decrypt(self, data: bytes, key: bytes) -> bytes:
        try:
            dec = XdrDecoder(data)
            nonce = dec.unpack_uhyper()
            ciphertext = bytes(dec.unpack_opaque())
        except Exception as exc:
            raise DecryptionError(f"malformed encrypted payload: {exc}") \
                from exc
        return self._make_cipher(key).decrypt(ciphertext, nonce)

    @staticmethod
    def _split_public(data: bytes) -> tuple[int, memoryview]:
        try:
            dec = XdrDecoder(data)
            public = int.from_bytes(bytes(dec.unpack_opaque()), "big")
            return public, dec.rest()
        except DecryptionError:
            raise
        except Exception as exc:
            raise DecryptionError(f"malformed encrypted payload: {exc}") \
                from exc

    # Request direction: client encrypts with its session key; server
    # derives the matching key from the client's ephemeral public and
    # stashes it in the per-request meta for the reply.

    def process(self, data: bytes, meta: RequestMeta) -> bytes:
        if self.role != "client":
            raise CapabilityError("server half cannot process requests")
        return self._encrypt(bytes(data), self._shared_key)

    def unprocess(self, data: bytes, meta: RequestMeta) -> bytes:
        peer_public, rest = self._split_public(bytes(data))
        key = self._server_key_for(peer_public)
        # Keyed by instance so two encryption capabilities in one stack
        # keep separate session keys.
        meta.properties[f"encryption.session_key.{id(self)}"] = key
        return self._decrypt(bytes(rest), key)

    # Reply direction: server encrypts with the session key recorded
    # during unprocess; client decrypts with its own session key.

    def process_reply(self, data: bytes, meta: RequestMeta) -> bytes:
        key = meta.properties.get(f"encryption.session_key.{id(self)}")
        if key is None:
            raise CapabilityError(
                "reply encryption without a session key (request was not "
                "unprocessed by this capability)")
        return self._encrypt(bytes(data), key)

    def unprocess_reply(self, data: bytes, meta: RequestMeta) -> bytes:
        _public, rest = self._split_public(bytes(data))
        return self._decrypt(bytes(rest), self._shared_key)
