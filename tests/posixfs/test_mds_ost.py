"""Unit tests for the metadata server and object stores."""

import pytest

from repro.cluster import Cluster
from repro.errors import FileExists, FileNotFound, FileSystemError
from repro.posixfs.mds import MetadataServer
from repro.posixfs.ost import ObjectStore, SimOST


class TestMetadataServer:
    def test_create_and_lookup(self):
        mds = MetadataServer(default_stripe_size=128, default_stripe_count=4)
        attrs = mds.create("/data/file")
        assert attrs.layout.stripe_size == 128
        assert attrs.layout.ost_count == 4
        assert mds.lookup("/data/file") is attrs
        assert mds.exists("/data/file")
        assert mds.file_count() == 1

    def test_create_with_explicit_striping(self):
        mds = MetadataServer()
        attrs = mds.create("/f", stripe_size=32, stripe_count=2)
        assert attrs.layout.stripe_size == 32
        assert attrs.layout.ost_count == 2

    def test_duplicate_create_rejected_unless_exist_ok(self):
        mds = MetadataServer()
        first = mds.create("/f")
        with pytest.raises(FileExists):
            mds.create("/f")
        assert mds.create("/f", exist_ok=True) is first

    def test_lookup_missing_raises(self):
        with pytest.raises(FileNotFound):
            MetadataServer().lookup("/missing")

    def test_update_size_monotonic(self):
        mds = MetadataServer()
        mds.create("/f")
        assert mds.update_size("/f", 100) == 100
        assert mds.update_size("/f", 50) == 100
        assert mds.lookup("/f").size == 100

    def test_unlink(self):
        mds = MetadataServer()
        mds.create("/f")
        mds.unlink("/f")
        assert not mds.exists("/f")
        with pytest.raises(FileNotFound):
            mds.unlink("/f")

    def test_object_ids_distinct_per_ost_and_inode(self):
        mds = MetadataServer()
        a = mds.create("/a")
        b = mds.create("/b")
        assert a.object_id(0) != a.object_id(1)
        assert a.object_id(0) != b.object_id(0)


class TestObjectStore:
    def test_write_and_read(self):
        store = ObjectStore("ost0")
        store.write_range("obj", 10, b"hello")
        assert store.read_range("obj", 10, 5) == b"hello"
        assert store.object_size("obj") == 15

    def test_read_past_end_zero_filled(self):
        store = ObjectStore("ost0")
        store.write_range("obj", 0, b"ab")
        assert store.read_range("obj", 0, 5) == b"ab\x00\x00\x00"
        assert store.read_range("missing", 0, 3) == b"\x00\x00\x00"

    def test_write_grows_with_zero_gap(self):
        store = ObjectStore("ost0")
        store.write_range("obj", 5, b"xy")
        assert store.read_range("obj", 0, 7) == b"\x00" * 5 + b"xy"

    def test_overwrite(self):
        store = ObjectStore("ost0")
        store.write_range("obj", 0, b"aaaa")
        store.write_range("obj", 1, b"bb")
        assert store.read_range("obj", 0, 4) == b"abba"

    def test_invalid_arguments(self):
        store = ObjectStore("ost0")
        with pytest.raises(FileSystemError):
            store.write_range("obj", -1, b"x")
        with pytest.raises(FileSystemError):
            store.read_range("obj", -1, 4)

    def test_counters(self):
        store = ObjectStore("ost0")
        store.write_range("obj", 0, b"1234")
        store.read_range("obj", 0, 2)
        assert store.bytes_written == 4
        assert store.bytes_read == 2
        assert store.object_count() == 1
        assert store.stored_bytes() == 4


class TestSimOST:
    """The bulk handlers: every range of an access, one disk operation."""

    def setup_method(self):
        self.cluster = Cluster()
        self.node = self.cluster.add_node("ost0", role="ost", with_disk=True)
        self.ost = SimOST(self.node)

    def run(self, generator):
        return self.cluster.sim.run(
            stop_event=self.cluster.sim.process(generator))

    def test_write_ranges_is_one_disk_io_of_the_summed_size(self):
        disk = self.node.disk
        written = self.run(self.ost.write_ranges(
            "obj", [(0, b"aaaa"), (100, b"bb"), (50, b"cccccc")]))
        assert written == 12
        assert (disk.operations, disk.bytes_transferred) == (1, 12)
        assert self.cluster.sim.now == pytest.approx(disk.io_time(12))
        assert self.ost.store.read_range("obj", 48, 10) \
            == b"\x00\x00cccccc\x00\x00"
        assert self.ost.store.object_size("obj") == 102

    def test_write_ranges_applies_in_order(self):
        self.run(self.ost.write_ranges("obj", [(0, b"aaaa"), (2, b"bbbb")]))
        assert self.ost.store.read_range("obj", 0, 6) == b"aabbbb"

    def test_read_ranges_round_trips_and_zero_fills_past_the_end(self):
        self.run(self.ost.write_ranges("obj", [(0, b"abcdef"), (10, b"xy")]))
        disk = self.node.disk
        before = (disk.operations, disk.bytes_transferred)
        pieces = self.run(self.ost.read_ranges(
            "obj", [(10, 2), (0, 3), (4, 8), (11, 4), (40, 2)]))
        assert pieces == [b"xy", b"abc", b"ef\x00\x00\x00\x00xy",
                          b"y\x00\x00\x00", b"\x00\x00"]
        assert (disk.operations - before[0],
                disk.bytes_transferred - before[1]) == (1, 19)
        assert self.run(self.ost.read_ranges("missing", [(0, 3)])) \
            == [b"\x00\x00\x00"]
