"""Low-level utilities shared by every other subsystem.

The modules here deliberately have no dependency on the rest of the
library so that anything may import them:

* :mod:`repro.util.bytesbuf` — growable byte buffer with zero-copy large chunks
* :mod:`repro.util.checksums` — CRC-32 / Adler-32 / Fletcher-16, vectorized
* :mod:`repro.util.ids` — deterministic unique-id generation
* :mod:`repro.util.timing` — wall/virtual time sources, stopwatch
* :mod:`repro.util.stats` — small online-statistics helpers
"""

from repro.util.bytesbuf import ByteBuffer
from repro.util.checksums import adler32, crc32, fletcher16
from repro.util.ids import IdGenerator, fresh_uid
from repro.util.timing import Stopwatch, WallClock
from repro.util.stats import OnlineStats

__all__ = [
    "ByteBuffer",
    "adler32",
    "crc32",
    "fletcher16",
    "IdGenerator",
    "fresh_uid",
    "Stopwatch",
    "WallClock",
    "OnlineStats",
]
