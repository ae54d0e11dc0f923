"""Property: the analytic ``free_at`` queues are first-come first-served.

``NIC.reserve`` (every link of either network model) and ``Disk.io`` keep
one scalar and hand out slots at the instant a request reaches the device.
The contract their module docstrings state is checked here against a
reference that knows nothing about events: sort the requests by arrival
(ties in the order they were issued), start each at ``max(arrival, previous
finish)``, finish it one service time later.  Seeded scripts draw arrival
times from a coarse grid so simultaneous arrivals are common; every
quantity is a dyadic rational, so the comparison is exact.

``Disk.append`` — log runs — is checked the same way on scripts that mix the
two kinds: against its own reference, and against the FIFO one, which no
request may finish later than.  Ties stay in those scripts: ``append`` keeps
no timer, so an append that arrives at the instant a run starts is not an
event-order race — the run has started and the append opens the next one —
and every property below is asserted for such arrivals too.
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


def log_finish_times(jobs):
    """The reference model of a disk serving both kinds: ``jobs`` is
    ``[(arrival, nbytes, kind)]`` in issue order; returns each job's finish
    time and the number of device operations.  In arrival order, an append
    joins the queue's tail — streaming its bytes behind it, no overhead — if
    that tail is a run of appends which has not started; any other request
    starts one operation of its own."""
    finish = [0.0] * len(jobs)
    free_at = 0.0
    open_until = None  # start of the run at the tail; None if it is an io
    operations = 0
    for index in sorted(range(len(jobs)), key=lambda i: (jobs[i][0], i)):
        arrival, nbytes, kind = jobs[index]
        if kind == "append" and open_until is not None and arrival < open_until:
            free_at += nbytes / DISK_BANDWIDTH
        else:
            start = max(arrival, free_at)
            free_at = start + DISK_OVERHEAD + nbytes / DISK_BANDWIDTH
            operations += 1
            open_until = start if kind == "append" else None
        finish[index] = free_at
    return finish, operations


def random_script(rng, grid=0.25):
    """``[(issue time, nbytes)]`` sorted by issue time: bursts, ties, gaps."""
    count = rng.randint(2, 12)
    script = [(rng.randrange(0, int(4 / grid)) * grid,
               rng.randrange(1, 9) * 128)
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


def run_on_disk(script, kinds):
    """Run ``script`` on one fresh disk, job ``i`` through ``Disk.<kinds[i]>``;
    returns the disk and the finish times."""
    cluster = make_cluster("bottleneck")
    disk = cluster.add_node("s0", with_disk=True).disk
    finished = run_script(
        cluster, script,
        lambda index, nbytes: getattr(disk, kinds[index])(nbytes))
    return disk, finished


def run_mixed_script(seed, append_share, grid):
    """A script whose jobs are appends with probability ``append_share``.
    On the coarse ``grid`` simultaneous arrivals are common; on the one as
    fine as the overhead, arrivals at the instant a run starts are."""
    rng = random.Random(seed)
    script = random_script(rng, grid)
    kinds = ["append" if rng.random() < append_share else "io"
             for _ in script]
    disk, finished = run_on_disk(script, kinds)
    return script, kinds, disk, finished


MIXED = pytest.mark.parametrize(
    "seed, append_share, grid",
    [(seed, share, grid) for seed in SEEDS for share in (0.5, 1.0)
     for grid in (0.25, DISK_OVERHEAD)])


@MIXED
def test_no_request_finishes_later_than_under_fifo(seed, append_share, grid):
    script, _kinds, _disk, finished = run_mixed_script(seed, append_share, grid)
    fifo = fifo_finish_times(
        [(issue, DISK_OVERHEAD + nbytes / DISK_BANDWIDTH)
         for issue, nbytes in script])
    assert all(ours <= theirs for ours, theirs in zip(finished, fifo))
    # and the device finishes requests in the order they arrived, across
    # kinds (``script`` is sorted by arrival, ties in issue order)
    assert all(first < second for first, second in zip(finished, finished[1:]))


@MIXED
def test_disk_appends_go_down_as_runs(seed, append_share, grid):
    script, kinds, disk, finished = run_mixed_script(seed, append_share, grid)
    expected, operations = log_finish_times(
        [(issue, nbytes, kind) for (issue, nbytes), kind in zip(script, kinds)])
    assert finished == expected
    # device work is exact: one overhead per io and per run, every byte once
    total = sum(nbytes for _, nbytes in script)
    assert disk.operations == operations
    assert kinds.count("io") <= operations <= len(script)
    assert disk.bytes_transferred == total
    assert disk.busy_time == operations * DISK_OVERHEAD + total / DISK_BANDWIDTH


def test_the_scripts_do_form_runs():
    """The dominance above is not vacuous: over the seeds, all-append scripts
    save operations, and appends do arrive at the instant the device frees."""
    saved = tied = 0
    for seed in SEEDS:
        script, _kinds, disk, finished = run_mixed_script(
            seed, 1.0, DISK_OVERHEAD)
        saved += len(script) - disk.operations
        tied += sum(1 for issue, _ in script if issue in finished)
    assert saved >= len(SEEDS)
    assert tied >= 10


def test_appends_behind_a_busy_disk_share_one_overhead():
    """An io holds the device until 1.0625; three appends queue meanwhile and
    go down as one run, each done with its own last byte; an io that arrives
    behind the run closes it, so the next append opens a second run — which
    the last append, arriving at the instant that run starts, is too late
    for."""
    script = [(0.0, 512), (0.25, 128), (0.5, 256), (0.5, 128), (0.75, 128),
              (0.75, 256), (2.4375, 128)]
    kinds = ["io", "append", "append", "append", "io", "append", "append"]
    disk, finished = run_on_disk(script, kinds)
    assert finished == [1.0625, 1.375, 1.875, 2.125, 2.4375, 3.0, 3.3125]
    assert disk.operations == 5


@pytest.mark.parametrize("nbytes", [0, 128, 1024])
def test_a_lone_append_is_a_lone_io(nbytes):
    finished = {}
    for kind in ("io", "append"):
        disk, finished[kind] = run_on_disk([(0.75, nbytes)], [kind])
        assert (disk.operations, disk.busy_time) \
            == (1, DISK_OVERHEAD + nbytes / DISK_BANDWIDTH)
    assert finished["append"] == finished["io"]


@pytest.mark.parametrize("network_model", ["bottleneck", "queued"])
@pytest.mark.parametrize("seed", SEEDS)
def test_fan_in_transfers_are_fifo_on_every_hop(seed, network_model):
    """Few senders, one receiver: a transfer queues on its sender's NIC (the
    bottleneck model) or egress link (the queued model), propagates, then
    queues on the receiver's."""
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


@pytest.mark.parametrize("nodes_per_switch,finish", [
    # NIC out, one latency, NIC in
    (2, 512 / NET_BANDWIDTH + LATENCY + 512 / NET_BANDWIDTH),
    # ... plus the uplink and downlink at 4x the NIC bandwidth and the
    # switch-to-switch hop at 2.5x the latency
    (1, 2 * 512 / NET_BANDWIDTH + 2 * 512 / (4 * NET_BANDWIDTH)
     + LATENCY + 2.5 * LATENCY),
])
def test_a_lone_queued_transfer_pays_each_hop_once(nodes_per_switch, finish):
    cluster = Cluster(config=ClusterConfig(
        network_model="queued", nodes_per_switch=nodes_per_switch,
        network_latency=LATENCY, network_bandwidth=NET_BANDWIDTH))
    src, dst = cluster.add_nodes("n", 2)
    assert run_script(cluster, [(0.0, 512)], lambda _index, nbytes:
                      cluster.network.transfer(src, dst, nbytes)) == [finish]
