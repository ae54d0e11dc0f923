"""Property: the analytic ``free_at`` queues are first-come first-served.

``NIC.reserve``, ``Link.reserve`` and ``Disk.io`` keep one scalar and hand
out slots at the instant a request reaches the device.  The contract their
module docstrings state is checked here against a reference that knows
nothing about events: sort the requests by arrival (ties in the order they
were issued), start each at ``max(arrival, previous finish)``, finish it one
service time later.  Seeded scripts draw arrival times from a coarse grid so
simultaneous arrivals are common; every quantity is a dyadic rational, so
the comparison is exact.
"""

import random

import pytest

from repro.cluster import Cluster, ClusterConfig

SEEDS = range(60)
LATENCY = 0.125
NET_BANDWIDTH = 1024.0
DISK_BANDWIDTH = 512.0
DISK_OVERHEAD = 0.0625


def fifo_finish_times(jobs):
    """The reference model: ``jobs`` is ``[(arrival, service)]`` in issue
    order; returns each job's finish time on one FIFO device."""
    finish = [0.0] * len(jobs)
    free_at = 0.0
    for index in sorted(range(len(jobs)), key=lambda i: (jobs[i][0], i)):
        arrival, service = jobs[index]
        start = max(arrival, free_at)
        free_at = finish[index] = start + service
    return finish


def random_script(rng):
    """``[(issue time, nbytes)]`` sorted by issue time: bursts, ties, gaps."""
    count = rng.randint(2, 12)
    script = [(rng.randrange(0, 16) * 0.25, rng.randrange(1, 9) * 128)
              for _ in range(count)]
    return sorted(script, key=lambda job: job[0])


def make_cluster(network_model):
    return Cluster(config=ClusterConfig(
        network_model=network_model, nodes_per_switch=64,
        network_latency=LATENCY, network_bandwidth=NET_BANDWIDTH,
        disk_bandwidth=DISK_BANDWIDTH, disk_overhead=DISK_OVERHEAD))


def run_script(cluster, script, action):
    """Issue ``action(index, nbytes)`` at each job's time; finish times."""
    finished = [None] * len(script)

    def job(index, issue, nbytes):
        yield cluster.sim.timeout(issue)
        yield from action(index, nbytes)
        finished[index] = cluster.sim.now

    for index, (issue, nbytes) in enumerate(script):
        cluster.sim.process(job(index, issue, nbytes))
    cluster.sim.run_all()
    return finished


@pytest.mark.parametrize("seed", SEEDS)
def test_disk_io_is_fifo_by_arrival(seed):
    script = random_script(random.Random(seed))
    cluster = make_cluster("bottleneck")
    disk = cluster.add_node("s0", with_disk=True).disk
    finished = run_script(cluster, script,
                          lambda index, nbytes: disk.io(nbytes))
    assert finished == fifo_finish_times(
        [(issue, DISK_OVERHEAD + nbytes / DISK_BANDWIDTH)
         for issue, nbytes in script])
    assert disk.operations == len(script)
    assert disk.bytes_transferred == sum(nbytes for _, nbytes in script)


@pytest.mark.parametrize("network_model", ["bottleneck", "queued"])
@pytest.mark.parametrize("seed", SEEDS)
def test_fan_in_transfers_are_fifo_on_every_hop(seed, network_model):
    """Few senders, one receiver: a transfer queues on its sender's NIC (the
    bottleneck model's ``NIC.reserve``) or egress link (the queued model's
    ``Link.reserve``), propagates, then queues on the receiver's."""
    rng = random.Random(seed)
    script = random_script(rng)
    cluster = make_cluster(network_model)
    senders = cluster.add_nodes("src", rng.randint(1, 3))
    sender_of = [rng.randrange(len(senders)) for _ in script]
    target = cluster.add_node("dst")
    finished = run_script(
        cluster, script, lambda index, nbytes: cluster.network.transfer(
            senders[sender_of[index]], target, nbytes))

    service = [nbytes / NET_BANDWIDTH for _, nbytes in script]
    sent = [None] * len(script)
    for sender in range(len(senders)):
        mine = [index for index, owner in enumerate(sender_of)
                if owner == sender]
        for index, done in zip(mine, fifo_finish_times(
                [(script[index][0], service[index]) for index in mine])):
            sent[index] = done
    assert finished == fifo_finish_times(
        [(sent[index] + LATENCY, service[index])
         for index in range(len(script))])
    assert cluster.network.messages == len(script)
