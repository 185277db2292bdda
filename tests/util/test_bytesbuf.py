"""Tests for the zero-copy byte buffer."""

from hypothesis import given, strategies as st

from repro.util.bytesbuf import ZERO_COPY_THRESHOLD, ByteBuffer


class TestByteBuffer:
    def test_empty(self):
        buf = ByteBuffer()
        assert len(buf) == 0
        assert buf.getvalue() == b""
        assert buf.chunks() == []

    def test_initial_data(self):
        buf = ByteBuffer(b"abc")
        assert buf.getvalue() == b"abc"

    def test_write_returns_self(self):
        buf = ByteBuffer()
        assert buf.write(b"a") is buf

    def test_small_writes_coalesce(self):
        buf = ByteBuffer()
        for _ in range(10):
            buf.write(b"ab")
        chunks = buf.chunks()
        assert chunks == [b"ab" * 10]
        assert len(buf) == 20

    def test_large_chunk_kept_by_reference(self):
        big = b"x" * (ZERO_COPY_THRESHOLD + 1)
        buf = ByteBuffer()
        buf.write(b"hdr")
        buf.write(big)
        chunks = buf.chunks()
        assert chunks[0] == b"hdr"
        assert chunks[1] is big  # identity: no copy was made

    def test_large_bytearray_is_frozen(self):
        # A mutable input must be snapshotted, otherwise later mutation
        # by the caller would corrupt the already-queued message.
        big = bytearray(b"y" * (ZERO_COPY_THRESHOLD + 5))
        buf = ByteBuffer()
        buf.write(big)
        big[0] = ord(b"z")
        assert buf.getvalue()[0] == ord(b"y")

    def test_large_writable_memoryview_made_readonly(self):
        backing = bytearray(b"m" * (ZERO_COPY_THRESHOLD + 2))
        buf = ByteBuffer()
        buf.write(memoryview(backing))
        chunk = buf.chunks()[0]
        assert isinstance(chunk, memoryview) and chunk.readonly

    def test_zero_length_write_is_noop(self):
        buf = ByteBuffer()
        buf.write(b"")
        assert len(buf) == 0 and buf.chunks() == []

    def test_write_many(self):
        buf = ByteBuffer()
        buf.write_many([b"a", b"b", b"c"])
        assert buf.getvalue() == b"abc"

    def test_interleaved_small_and_large(self):
        big = b"L" * ZERO_COPY_THRESHOLD
        buf = ByteBuffer()
        buf.write(b"s1").write(big).write(b"s2")
        assert buf.getvalue() == b"s1" + big + b"s2"
        assert len(buf) == 4 + len(big)

    def test_clear(self):
        buf = ByteBuffer(b"abc")
        buf.clear()
        assert len(buf) == 0
        assert buf.getvalue() == b""

    def test_getvalue_idempotent(self):
        buf = ByteBuffer()
        buf.write(b"abc").write(b"def")
        assert buf.getvalue() == buf.getvalue() == b"abcdef"

    @given(st.lists(st.binary(max_size=2000), max_size=20))
    def test_roundtrip_matches_join(self, parts):
        buf = ByteBuffer()
        for p in parts:
            buf.write(p)
        assert buf.getvalue() == b"".join(parts)
        assert len(buf) == sum(len(p) for p in parts)
