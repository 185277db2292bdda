"""Wire-format substrate: XDR and CDR codecs plus a value marshaller.

The paper's proto-objects each own a data encoding — "there could be a TCP
based proto-object that uses XDR for data encoding" (§3.1).  This package
supplies two interchangeable encodings and a typed marshaller on top:

* :mod:`repro.serialization.xdr` — big-endian, 4-byte-aligned XDR
  (RFC 1832 subset), the encoding Nexus-era systems actually used.
* :mod:`repro.serialization.cdr` — little-endian CDR-style variant with
  natural alignment, standing in for CORBA IIOP's encoding, so the
  multi-protocol machinery has genuinely different wire formats to choose
  between.
* :mod:`repro.serialization.cursor` — the bounds-checked, zero-copy read
  cursor both decoders are built on.
* :mod:`repro.serialization.marshal` — self-describing value marshalling
  (ints, floats, strings, sequences, mappings, numpy arrays) over either
  codec, with a zero-copy fast path for large contiguous arrays.
"""

from repro.serialization.typecodes import TypeCode
from repro.serialization.xdr import XdrDecoder, XdrEncoder
from repro.serialization.cdr import CdrDecoder, CdrEncoder
from repro.serialization.marshal import (
    Marshaller,
    dumps,
    loads,
)

__all__ = [
    "TypeCode",
    "XdrEncoder",
    "XdrDecoder",
    "CdrEncoder",
    "CdrDecoder",
    "Marshaller",
    "dumps",
    "loads",
]
