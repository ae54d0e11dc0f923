"""Unit tests of the collective read (scan) workload geometry."""

import pytest

from repro.errors import BenchmarkError
from repro.workloads.collective_read import CollectiveReadWorkload
from tests._workloads import pieces, sparse_scan_contents


def read_bytes(workload):
    """Bytes fetched over all ranks and rounds (overlaps counted twice)."""
    return sum(size for rank in range(workload.num_ranks)
               for round_index in range(workload.rounds)
               for _offset, size in workload.read_pairs(rank, round_index))


def test_read_pairs_cover_each_section_exactly_once_without_halo():
    workload = CollectiveReadWorkload(num_ranks=4, rounds=2,
                                      blocks_per_rank=3, block_size=256)
    for round_index in range(workload.rounds):
        covered = set()
        for rank in range(workload.num_ranks):
            for offset, size in workload.read_pairs(rank, round_index):
                for byte in range(offset, offset + size, 256):
                    assert byte not in covered, "ranks overlap without halo"
                    covered.add(byte)
        base = round_index * workload.section_size
        assert covered == set(range(base, base + workload.section_size, 256))


def test_halo_blocks_create_cross_rank_overlap_and_merge_adjacent():
    workload = CollectiveReadWorkload(num_ranks=2, rounds=1,
                                      blocks_per_rank=2, block_size=128,
                                      halo_blocks=1)
    pairs0 = workload.read_pairs(0, 0)
    pairs1 = workload.read_pairs(1, 0)
    # rank 0 owns blocks 0, 2 and halos into 1, 3: one merged dense run
    assert pairs0 == [(0, 4 * 128)]
    # rank 1 owns blocks 1, 3 and halos into 2: blocks 1-3 merged
    assert pairs1 == [(128, 3 * 128)]
    # the halo made the two ranks' reads overlap
    bytes0 = {offset for offset, size in pairs0 for offset in
              range(offset, offset + size)}
    bytes1 = {offset for offset, size in pairs1 for offset in
              range(offset, offset + size)}
    assert bytes0 & bytes1


def test_expected_pieces_match_the_checkpoint_contents():
    workload = CollectiveReadWorkload(num_ranks=3, rounds=2,
                                      blocks_per_rank=2, block_size=64,
                                      halo_blocks=1)
    content = sparse_scan_contents(workload)
    # a dense dump is its checkpoint's contents, not a zero byte left
    assert content == workload.content_workload().expected_contents()
    assert len(content) == workload.file_size and 0 not in content
    for rank in range(workload.num_ranks):
        for round_index in range(workload.rounds):
            pairs = workload.read_pairs(rank, round_index)
            scanned = pieces(content, pairs)
            assert len(scanned) == sum(size for _offset, size in pairs)
            assert 0 not in scanned


def test_byte_accounting():
    workload = CollectiveReadWorkload(num_ranks=4, rounds=3,
                                      blocks_per_rank=2, block_size=512)
    assert sum(size for _offset, size in workload.read_pairs(0, 0)) \
        == 2 * 512
    assert read_bytes(workload) == workload.file_size  # dense scan
    with_halo = CollectiveReadWorkload(num_ranks=4, rounds=3,
                                       blocks_per_rank=2, block_size=512,
                                       halo_blocks=1)
    assert read_bytes(with_halo) > with_halo.file_size


def test_parameter_validation():
    with pytest.raises(BenchmarkError):
        CollectiveReadWorkload(num_ranks=0)
    with pytest.raises(BenchmarkError):
        CollectiveReadWorkload(num_ranks=2, halo_blocks=-1)
    workload = CollectiveReadWorkload(num_ranks=2)
    with pytest.raises(BenchmarkError):
        workload.read_pairs(5, 0)
    with pytest.raises(BenchmarkError):
        workload.read_pairs(0, 9)


def test_sparse_dumps_zero_the_hole_slots():
    workload = CollectiveReadWorkload(num_ranks=2, rounds=2,
                                      blocks_per_rank=2, block_size=64,
                                      hole_every=2)
    content = sparse_scan_contents(workload)
    assert len(content) == workload.file_size
    for round_index in range(workload.rounds):
        base = round_index * workload.section_size
        for slot in range(workload.blocks_per_section):
            block = content[base + slot * 64:base + (slot + 1) * 64]
            if workload.is_hole(slot):
                assert block == b"\x00" * 64
            else:
                assert block != b"\x00" * 64
    holes = [slot for slot in range(workload.blocks_per_section)
             if workload.is_hole(slot)]
    assert holes == [1, 3]


def test_seed_pairs_reproduce_the_sparse_contents():
    workload = CollectiveReadWorkload(num_ranks=2, rounds=2,
                                      blocks_per_rank=3, block_size=32,
                                      hole_every=3)
    rebuilt = bytearray(workload.file_size)
    for offset, payload in workload.seed_pairs():
        rebuilt[offset:offset + len(payload)] = payload
    assert bytes(rebuilt) == sparse_scan_contents(workload)
    # written runs never touch a hole slot
    for offset, payload in workload.seed_pairs():
        assert len(payload) % 32 == 0


def test_dense_seed_is_one_run_and_hole_every_validates():
    workload = CollectiveReadWorkload(num_ranks=2)
    assert workload.seed_pairs() == [(0, sparse_scan_contents(workload))]
    with pytest.raises(BenchmarkError):
        CollectiveReadWorkload(num_ranks=2, hole_every=1)
    with pytest.raises(BenchmarkError):
        CollectiveReadWorkload(num_ranks=2, hole_every=-1)
