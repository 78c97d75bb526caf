"""In-process swarms of real ``create_node()`` nodes and their load.

One :class:`Workload` names a swarm shape (size, dissemination, transport,
loss, journal) and its load (an open-loop rate or a closed-loop window).
:func:`measure` builds the swarm, warms it, drives it for the timed
window, drains it and checks the delivery log; :class:`Measurement`
carries everything the end-to-end and per-layer metrics are computed
from.  All randomness comes from the run's seed: the bus delays and
losses, the broadcast schedule, origins and payloads.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import NodeConfig, create_node
from repro.net import LocalAsyncBus
from repro.obs import merge_snapshots
from repro.sim.network import GaussianDelayModel
from repro.util.rng import RandomSource

from check import CheckReport, DeliveryLog, check_log

#: The paper's delay model returns milliseconds and the bus multiplies
#: them by ``time_scale`` into seconds: N(100, 20²) ms x 1e-5 is a
#: one-way delay of about 1 ms (std 0.2 ms, receiver skew 0.2 ms).
BUS_TIME_SCALE = 1e-5

#: Seconds of open-loop load after warm-up and before the window opens,
#: so the window starts from steady state (digest rounds cycling, stores
#: and journals filling, and the sessions' retransmit timeouts decayed
#: from the RTT samples of the warm-up's bursts: with 1 s of settle the
#: lossy row, at 5 % loss, opened its window with timeouts up to 112 ms
#: and a first second's p99 of 145 ms); checked for correctness, not
#: measured.
SETTLE_SECONDS = 4.0

#: How long the drain after the window may take before undelivered pairs
#: count as missing.
DRAIN_TIMEOUT = 30.0

#: Set-ups per run; ``setup_s`` is their median.  A lossy warm-up now
#: and then waits out a retransmission backoff chain, so one set-up
#: alone spreads widely.
SETUPS = 9

#: The window is cut into this many equal slices; p99 latency is the
#: median over slices of each slice's p99, so one host hiccup or one
#: rare runtime pause moves one slice, not the run.
SLICES = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark row: a swarm shape and its load."""

    name: str
    nodes: int
    config: Tuple[Tuple[str, object], ...] = ()
    transport: str = "bus"  # "bus" (LocalAsyncBus) or "udp" (loopback)
    loss: float = 0.0
    journal: bool = False
    seed_ring: int = 0  # overlay bootstrap successors; 0 = full mesh
    rate: float = 0.0  # open loop: broadcasts/s over all origins
    window: int = 0  # closed loop: outstanding broadcasts per origin
    latency_limit_ms: float = 0.0  # knee probe: p99 limit

    @property
    def open_loop(self) -> bool:
        return self.rate > 0

    def node_config(self, index: int, data_dir: Optional[str]) -> NodeConfig:
        # Disjoint key sets (R=128 holds 3 keys for each of up to 42
        # nodes): the delivery condition is then exact, so any oracle
        # violation is a defect rather than the paper's designed error.
        config = NodeConfig(**dict(self.config))
        return config.replace(
            keys=tuple(range(config.k * index, config.k * (index + 1))),
            data_dir=data_dir,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mesh16-steady",
            nodes=16,
            rate=15.0,
            latency_limit_ms=50.0,
        ),
        Workload(
            name="mesh16-lossy-journal",
            nodes=16,
            config=(("detector", "refined"),),
            # 3 %: at 5 % a lost retransmission (with the pairs it holds
            # behind it) was common enough to set p99 in some slices and
            # not in others; see perfbench/README.md.
            loss=0.03,
            journal=True,
            rate=15.0,
            latency_limit_ms=500.0,
        ),
        Workload(
            name="overlay32-gossip",
            nodes=32,
            config=(("dissemination", "overlay"), ("fanout", 3), ("view_size", 12)),
            seed_ring=4,
            rate=7.0,
            latency_limit_ms=2000.0,
        ),
        Workload(
            name="udp4-closed",
            nodes=4,
            transport="udp",
            window=16,
        ),
    )
}


@dataclass
class Measurement:
    """Raw results of one measured window."""

    workload: Workload
    setup_times: List[float]
    cpu_seconds: float
    wall_seconds: float
    slices: List[Tuple[float, float, float, int]]  # (start, end, cpu s, deliveries)
    before: dict  # merged registry snapshot at the window start
    after: dict  # ... and at the window end
    report: CheckReport
    generator_lag: List[float]
    registry_mismatch: int
    pending_peak: float = 0.0  # largest per-node pending high-water mark

    def counter(self, name: str) -> float:
        """Window delta of a registry counter summed over the swarm."""
        return self.after["counters"].get(name, 0) - self.before["counters"].get(name, 0)

    @property
    def deliveries(self) -> float:
        return self.counter("repro_endpoint_delivered_total")


class Swarm:
    """The nodes of one workload, wired and logged."""

    def __init__(self, workload: Workload, seed: int, work_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.names = [f"n{i:02d}" for i in range(workload.nodes)]
        self.log = DeliveryLog(self.names)
        self.nodes = []
        self.due: Dict[Tuple[int, int], float] = {}

    async def build(self, on_delivery=None) -> None:
        """Create and wire every node; ``on_delivery`` wraps the log's
        callbacks (the traced run records them as a span)."""
        workload = self.workload
        bus = None
        if workload.transport == "bus":
            bus = LocalAsyncBus(
                delay_model=GaussianDelayModel(),
                rng=RandomSource(seed=self.seed).spawn(f"bus-{workload.name}"),
                time_scale=BUS_TIME_SCALE,
                loss_rate=workload.loss,
            )
        for i, name in enumerate(self.names):
            data_dir = os.path.join(self.work_dir, name) if workload.journal else None
            callback = self.log.callback(name)
            if on_delivery is not None:
                callback = on_delivery(callback)
            self.nodes.append(
                await create_node(
                    name,
                    workload.node_config(i, data_dir),
                    transport=bus.attach(name) if bus is not None else None,
                    on_delivery=callback,
                )
            )
        addresses = [node.local_address for node in self.nodes]
        n = len(self.nodes)
        for i, node in enumerate(self.nodes):
            if workload.seed_ring:
                peers = [(i + step) % n for step in range(1, workload.seed_ring + 1)]
            else:
                peers = [j for j in range(n) if j != i]
            for j in peers:
                node.add_peer(addresses[j])

    async def warm(self) -> None:
        """Broadcast rounds from every node until each link carries
        deltas (two acked rounds) and, in overlay mode, every partial
        view has spread past its seed ring to full size."""
        overlay = self.nodes[0].overlay
        full = None if overlay is None else min(self.workload.nodes - 1, overlay.view_size)
        rounds = 0
        while True:
            for i, node in enumerate(self.nodes):
                await node.broadcast({"warm": rounds, "o": i})
            rounds += 1
            if not await self.wait_delivered(DRAIN_TIMEOUT):
                raise RuntimeError("warm-up broadcasts were not delivered")
            if full is not None:
                if rounds >= 2 and all(len(node.overlay) >= full for node in self.nodes):
                    return
                if rounds >= 200:
                    raise RuntimeError("overlay views did not spread during warm-up")
            else:
                await self.wait_acked(DRAIN_TIMEOUT)
                if rounds >= 2:
                    return

    def expected_deliveries(self) -> int:
        return self.log.sent * (self.workload.nodes - 1)

    async def wait_delivered(self, timeout: float) -> bool:
        expected = self.expected_deliveries()
        return await _wait_for(lambda: self.log.remote_deliveries >= expected, timeout)

    async def wait_acked(self, timeout: float) -> bool:
        def acked() -> bool:
            return all(
                node.session.unacked_count(peer) == 0
                for node in self.nodes
                for peer in node.peers
            )

        return await _wait_for(acked, timeout)

    def snapshots(self) -> List[dict]:
        return [node.metrics.snapshot() for node in self.nodes]

    def reset_pending_peaks(self) -> None:
        # The window's high-water mark, not warm-up's.
        for node in self.nodes:
            node.endpoint.stats.pending_peak = 0

    def check(self) -> Tuple[CheckReport, int]:
        """The log check plus the registry cross-check: the registry's
        remote-delivery total must equal the callback count."""
        report = check_log(self.log, self.due)
        registry = sum(
            node.metrics.snapshot()["counters"].get("repro_endpoint_delivered_total", 0)
            for node in self.nodes
        )
        return report, int(registry) - self.log.remote_deliveries

    async def close(self) -> None:
        await asyncio.gather(*(node.close() for node in self.nodes))


async def _wait_for(predicate, timeout: float, interval: float = 0.002) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(interval)
    return True


def open_loop_schedule(workload: Workload, seed: int, phase: str, start: float, seconds: float):
    """Poisson arrivals at ``workload.rate`` over ``[start, start +
    seconds)``: the count is fixed at rate x seconds and the due times
    are uniform order statistics (a Poisson process conditioned on its
    count), with uniformly random origins and small JSON payloads.
    Everything but ``start`` is fixed by the seed and the phase name."""
    rng = random.Random(f"{workload.name}/{seed}/{phase}")
    count = int(round(workload.rate * seconds))
    dues = sorted(start + rng.random() * seconds for _ in range(count))
    return [
        (due, rng.randrange(workload.nodes), {"k": k, "v": rng.randrange(1 << 30)})
        for k, due in enumerate(dues)
    ]


async def drive_open_loop(swarm: Swarm, schedule, lags: Optional[List[float]]) -> None:
    """One client issuing the schedule; a broadcast that blocks delays
    the ones behind it.  With ``lags`` given, the lag and due time of
    each broadcast are recorded (the window); without, nothing is."""
    loop = asyncio.get_running_loop()
    nodes = swarm.nodes
    due_table = swarm.due
    for due, origin, payload in schedule:
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if lags is None:
            await nodes[origin].broadcast(payload)
            continue
        lags.append(loop.time() - due)
        message = await nodes[origin].broadcast(payload)
        due_table[(origin, message.seq)] = due


async def drive_closed_loop(swarm: Swarm, seed: int, window_start: float, until: float) -> None:
    """Each origin keeps ``window`` broadcasts outstanding until every
    peer delivered them; latency counts from the broadcast() call, for
    broadcasts made from ``window_start`` on."""
    loop = asyncio.get_running_loop()
    window = swarm.workload.window
    credits = [asyncio.Semaphore(window) for _ in swarm.nodes]
    swarm.log.on_complete = lambda origin: credits[origin].release()
    rng = random.Random(f"{swarm.workload.name}/{seed}/closed")

    async def origin_loop(origin: int) -> None:
        node = swarm.nodes[origin]
        k = 0
        while True:
            await credits[origin].acquire()
            now = loop.time()
            if now >= until:
                return
            message = await node.broadcast({"k": k, "v": rng.randrange(1 << 30)})
            if now >= window_start:
                swarm.due[(origin, message.seq)] = now
            k += 1

    await asyncio.gather(*(origin_loop(i) for i in range(len(swarm.nodes))))


async def setup_swarm(workload: Workload, seed: int, work_dir: str, on_delivery=None):
    """Build and warm one swarm; returns it with its set-up seconds."""
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir, exist_ok=True)
    swarm = Swarm(workload, seed, work_dir)
    started = time.perf_counter()
    await swarm.build(on_delivery)
    await swarm.warm()
    return swarm, time.perf_counter() - started


async def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    work_dir: str,
    setups: int = SETUPS,
    on_delivery=None,
    on_window=None,
) -> Measurement:
    """Set the swarm up ``setups`` times (the last one is measured), run
    the settle load and the timed window, drain and check.

    ``on_window(swarm, True)`` / ``on_window(swarm, False)`` are called
    as the window opens and closes (the traced run marks its span range
    with them).
    """
    loop = asyncio.get_running_loop()
    setup_times = []
    report = CheckReport()
    mismatch = 0
    for attempt in range(setups):
        swarm, elapsed = await setup_swarm(workload, seed, work_dir, on_delivery)
        setup_times.append(elapsed)
        if attempt < setups - 1:
            await swarm.wait_delivered(DRAIN_TIMEOUT)
            warm_report, warm_mismatch = swarm.check()
            report.merge(warm_report)
            mismatch += abs(warm_mismatch)
            await swarm.close()
            # Free this swarm before the next is built, so neither the
            # next set-up's time nor the run's peak memory depends on
            # when a collection happens to reclaim it.
            del swarm
            gc.collect()
    lags: List[float] = []
    # Set-up garbage is collected and frozen before any load, so the
    # window's collections scan only what the window allocates.
    gc.collect()
    gc.freeze()
    try:
        start = loop.time() + 0.01
        window_start = start + SETTLE_SECONDS
        window_end = window_start + seconds
        if workload.open_loop:
            settle = open_loop_schedule(workload, seed, "settle", start, SETTLE_SECONDS)
            timed = open_loop_schedule(workload, seed, "window", window_start, seconds)
            driver = loop.create_task(_drive_open(swarm, settle, timed, lags))
        else:
            driver = loop.create_task(
                drive_closed_loop(swarm, seed, window_start, window_end)
            )
        await asyncio.sleep(max(0.0, window_start - loop.time()))
        swarm.reset_pending_peaks()
        before = merge_snapshots(swarm.snapshots())
        if on_window is not None:
            on_window(swarm, True)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        slices = []
        mark = (window_start, cpu0, swarm.log.remote_deliveries)
        for k in range(1, SLICES + 1):
            boundary = window_start + seconds * k / SLICES
            await asyncio.sleep(max(0.0, boundary - loop.time()))
            now = (boundary, time.process_time(), swarm.log.remote_deliveries)
            slices.append((mark[0], boundary, now[1] - mark[1], now[2] - mark[2]))
            mark = now
        cpu1, wall1 = mark[1], time.perf_counter()
        if on_window is not None:
            on_window(swarm, False)
        per_node = swarm.snapshots()
        after = merge_snapshots(per_node)
        pending_peak = max(snap["gauges"].get("repro_pending_peak", 0.0) for snap in per_node)
        await driver
        await swarm.wait_delivered(DRAIN_TIMEOUT)
        final_report, final_mismatch = swarm.check()
        report.merge(final_report)
        mismatch += abs(final_mismatch)
    finally:
        await swarm.close()
        gc.unfreeze()
    return Measurement(
        workload=workload,
        setup_times=setup_times,
        cpu_seconds=cpu1 - cpu0,
        wall_seconds=wall1 - wall0,
        slices=slices,
        before=before,
        after=after,
        report=report,
        generator_lag=lags,
        registry_mismatch=mismatch,
        pending_peak=pending_peak,
    )


async def _drive_open(swarm: Swarm, settle, timed, lags: List[float]) -> None:
    await drive_open_loop(swarm, settle, None)
    await drive_open_loop(swarm, timed, lags)
