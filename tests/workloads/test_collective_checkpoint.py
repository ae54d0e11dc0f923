"""Unit tests of the collective checkpoint workload generator."""

import pytest

from repro.errors import BenchmarkError
from repro.workloads.collective_checkpoint import CollectiveCheckpointWorkload


def test_geometry():
    workload = CollectiveCheckpointWorkload(num_ranks=4, rounds=3,
                                            blocks_per_rank=2, block_size=512)
    assert workload.blocks_per_section == 8
    assert workload.section_size == 8 * 512
    assert workload.file_size == 3 * 8 * 512
    for rank in range(workload.num_ranks):
        assert sum(len(payload) for _offset, payload
                   in workload.write_pairs(rank, 0)) == 2 * 512
    assert sum(len(payload)
               for rank in range(workload.num_ranks)
               for round_index in range(workload.rounds)
               for _offset, payload in workload.write_pairs(rank, round_index)
               ) == workload.file_size


def test_round_sections_are_dense_and_rank_blocks_disjoint():
    workload = CollectiveCheckpointWorkload(num_ranks=3, rounds=2,
                                            blocks_per_rank=4, block_size=256)
    for round_index in range(workload.rounds):
        base = round_index * workload.section_size
        covered = set()
        for rank in range(workload.num_ranks):
            for offset, payload in workload.write_pairs(rank, round_index):
                assert len(payload) == workload.block_size
                assert base <= offset < base + workload.section_size
                block = (offset - base) // workload.block_size
                assert block % workload.num_ranks == rank  # interleaved
                assert block not in covered                # disjoint
                covered.add(block)
        assert len(covered) == workload.blocks_per_section  # dense


def test_expected_contents_match_serial_application():
    workload = CollectiveCheckpointWorkload(num_ranks=2, rounds=2,
                                            blocks_per_rank=3, block_size=64)
    content = bytearray(workload.file_size)
    for round_index in range(workload.rounds):
        for rank in range(workload.num_ranks):
            for offset, payload in workload.write_pairs(rank, round_index):
                content[offset:offset + len(payload)] = payload
    assert bytes(content) == workload.expected_contents()
    assert 0 not in workload.expected_contents()  # dense: no zero byte left


def test_payloads_differ_across_ranks_and_rounds():
    workload = CollectiveCheckpointWorkload(num_ranks=2, rounds=2,
                                            blocks_per_rank=1, block_size=16)
    fills = {workload.write_pairs(rank, round_index)[0][1][0]
             for rank in range(2) for round_index in range(2)}
    assert len(fills) == 4


def test_validation():
    with pytest.raises(BenchmarkError):
        CollectiveCheckpointWorkload(num_ranks=0)
    with pytest.raises(BenchmarkError):
        CollectiveCheckpointWorkload(num_ranks=2, rounds=0)
    with pytest.raises(BenchmarkError):
        CollectiveCheckpointWorkload(num_ranks=2, block_size=0)
    workload = CollectiveCheckpointWorkload(num_ranks=2)
    with pytest.raises(BenchmarkError):
        workload.write_pairs(2, 0)
    with pytest.raises(BenchmarkError):
        workload.write_pairs(0, 5)
