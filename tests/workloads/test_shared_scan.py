"""Tests for the shared-scan workload (node-local cache benchmark input)."""

import pytest

from repro.errors import BenchmarkError
from repro.workloads.shared_scan import SharedScanWorkload
from tests._workloads import pieces


class TestIdenticalPattern:
    def test_every_client_reads_the_same_section(self):
        workload = SharedScanWorkload(num_clients=3, rounds=2,
                                      blocks_per_round=4, block_size=128,
                                      pattern="identical")
        for round_index in range(workload.rounds):
            pairs = {workload.read_pairs(client, round_index)[0]
                     for client in range(3)}
            assert len(pairs) == 1
        assert workload.read_pairs(0, 0) != workload.read_pairs(0, 1)

    def test_file_holds_one_section_per_round(self):
        workload = SharedScanWorkload(num_clients=3, rounds=2,
                                      blocks_per_round=4, block_size=128)
        assert workload.file_size == 2 * 4 * 128


class TestStreamingPattern:
    def test_sections_are_disjoint_across_clients_and_rounds(self):
        workload = SharedScanWorkload(num_clients=3, rounds=2,
                                      blocks_per_round=2, block_size=64,
                                      pattern="streaming")
        seen = set()
        for round_index in range(workload.rounds):
            for client in range(workload.num_clients):
                pair = workload.read_pairs(client, round_index)[0]
                assert pair not in seen
                seen.add(pair)
        assert workload.file_size == len(seen) * workload.section_size


class TestContents:
    def test_expected_pieces_match_contents(self):
        workload = SharedScanWorkload(num_clients=2, rounds=2,
                                      blocks_per_round=3, block_size=32,
                                      pattern="streaming")
        content = workload.expected_contents()
        assert len(content) == workload.file_size
        for client in range(2):
            for round_index in range(2):
                base = (workload.section_index(client, round_index)
                        * workload.section_size)
                assert pieces(content, workload.read_pairs(
                    client, round_index)) \
                    == content[base:base + workload.section_size]

    def test_contents_are_nonzero_and_deterministic(self):
        workload = SharedScanWorkload(num_clients=2)
        content = workload.expected_contents()
        assert 0 not in content
        assert content == workload.expected_contents()


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(BenchmarkError):
            SharedScanWorkload(num_clients=0)
        with pytest.raises(BenchmarkError):
            SharedScanWorkload(num_clients=1, rounds=0)
        with pytest.raises(BenchmarkError):
            SharedScanWorkload(num_clients=1, pattern="zigzag")
        workload = SharedScanWorkload(num_clients=2)
        with pytest.raises(BenchmarkError):
            workload.read_pairs(2, 0)
        with pytest.raises(BenchmarkError):
            workload.read_pairs(0, 99)

    def test_total_read_bytes(self):
        workload = SharedScanWorkload(num_clients=2, rounds=3,
                                      blocks_per_round=2, block_size=64)
        assert sum(size for client in range(workload.num_clients)
                   for round_index in range(workload.rounds)
                   for _offset, size in workload.read_pairs(client,
                                                            round_index)) \
            == 2 * 3 * 2 * 64
