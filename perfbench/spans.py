"""Span recorder for the traced run, and the per-layer metrics.

The recorder wraps, at class level, the entry points of each layer's
module (the table below) before the swarm is built, so every instance
the nodes create runs through the wrappers.  Each call records one span
``(name, start, end, parent)`` in memory; a coroutine records one span
per step between suspensions and a generator one span per item, so
spans nest strictly on the single event-loop thread and a span's self
time is its duration minus its children's.  A layer that has no public
entry point at the place its work happens (the session's receive path
and timers, the transports' socket callbacks, the node's wire intake)
is wrapped at the private method the lower layer calls; its self time is
the remainder of that span.

Patching at class level keeps ``send_now`` / ``set_batch_receiver`` on
the transport's own class, which is where the session looks for them
(a wrapper *transport* would have to define them itself, as
``FaultyTransport``'s docstring warns).  Methods a later version of the
program no longer has are skipped and listed in the output.

Counts come from the same boundaries (bytes per frame type at the
session's transmit point, ACK bytes at the frame codec, journal disk
bytes around snapshots) and from the nodes' own metric registries.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from typing import Dict, List

from swarm import measure

#: (module, class, methods, layer).  The layer names the bucket a span's
#: self time is summed into.
TARGETS = (
    ("repro.core.codec", "MessageCodec",
     ("encode", "decode", "encode_delta", "decode_delta", "delta_header"), "codec"),
    ("repro.core.codec", "FrameCodec",
     ("encode", "decode", "encode_data_body", "encode_data_with_body"), "codec.frame"),
    ("repro.net.session", "ReliableSession",
     ("send", "push", "send_digest", "send_relay", "flush", "data_body",
      "_handle_datagram", "_handle_datagram_batch", "_flush_peer", "_ack_timer",
      "_tick_loop"), "session"),
    ("repro.net.bus", "BusTransport", ("send",), "transport"),
    ("repro.net.bus", "LocalAsyncBus", ("_arrive",), "transport"),
    ("repro.net.udp", "BatchedUdpTransport",
     ("send_now", "send", "_flush_tx", "_on_readable", "_on_writable"), "transport"),
    ("repro.net.node", "ReliableCausalNode",
     ("broadcast", "_send_message", "_handle_wire_message", "_handle_relay",
      "_handle_digest", "_handle_delivery", "_anti_entropy_loop", "_heal_peer"), "node"),
    ("repro.net.node", "MessageStore", ("missing_for",), "node.store_missing_for"),
    ("repro.core.protocol", "CausalBroadcastEndpoint", ("on_receive",), "protocol.on_receive"),
    ("repro.core.protocol", "CausalBroadcastEndpoint", ("broadcast",), "protocol.broadcast"),
    ("repro.core.pending", "PendingBuffer", ("add", "drain", "notify_increment"), "pending"),
    ("repro.core.pending", "HybridBuffer", ("add", "drain", "notify_increment"), "pending"),
    ("repro.core.detector", "DeliveryErrorDetector", ("check", "on_delivered"), "detector"),
    ("repro.core.detector", "RefinedAlertDetector", ("on_delivered",), "detector"),
    ("repro.net.journal", "NodeJournal",
     ("record_send", "record_delivery", "write_snapshot"), "journal"),
    ("repro.net.overlay", "PartialView",
     ("push_targets", "gossip_sample", "merge_sample", "digest_targets"), "overlay"),
)

#: Frame type bytes (offset 3 of every session frame; PROTOCOL.md).
FRAME_DATA, FRAME_ACK, FRAME_DIGEST, FRAME_RELAY = 1, 2, 4, 11


class SpanRecorder:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (name id, start ns, end ns, parent index)
        self.stack: List[int] = []
        self.names: List[str] = []
        self.layers: List[str] = []
        self.wire_bytes: Dict[int, int] = defaultdict(int)
        self.disk_bytes = 0
        self.skipped: List[str] = []
        self.window = (0, 0)
        self.window_wire: Dict[int, int] = {}
        self._wal_marks: Dict[int, int] = {}
        self._journals: list = []
        self._patched: list = []

    # -- recording --------------------------------------------------------

    def enter(self, name_id: int) -> int:
        index = len(self.spans)
        self.spans.append((name_id, time.perf_counter_ns(), self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        name_id, start, parent = self.spans[index]
        self.spans[index] = (name_id, start, time.perf_counter_ns(), parent)
        self.stack.pop()

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str):
        """A span-recording stand-in for ``fn`` (plain, coroutine or
        generator function)."""
        sid = self.name_id(name, layer)
        enter, exit_ = self.enter, self.exit
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def coroutine_wrapper(*args, **kwargs):
                return await _Steps(enter, exit_, sid, fn(*args, **kwargs))
            return coroutine_wrapper
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return _step_items(enter, exit_, sid, fn(*args, **kwargs))
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, class_name, methods, layer in TARGETS:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module_name}.{class_name}")
                continue
            for method in methods:
                raw = cls.__dict__.get(method)
                if raw is None:
                    self.skipped.append(f"{class_name}.{method}")
                    continue
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                wrapped = self.wrap(fn, f"{class_name}.{method}", layer)
                self._patch(cls, method, staticmethod(wrapped) if static else wrapped, raw)
        self._install_counters()

    def _patch(self, cls, attribute: str, value, original) -> None:
        setattr(cls, attribute, value)
        self._patched.append((cls, attribute, original))

    def _install_counters(self) -> None:
        from repro.core.codec import AckFrame, BatchFrame, FrameCodec
        from repro.net.journal import NodeJournal
        from repro.net.session import ReliableSession

        wire = self.wire_bytes
        bench = self.name_id("bench.count", "bench")
        enter, exit_ = self.enter, self.exit

        transmit = ReliableSession.__dict__.get("_transmit")
        if transmit is not None:
            def counting_transmit(session, addr, state, frame_bytes):
                wire[frame_bytes[3]] += len(frame_bytes)
                return transmit(session, addr, state, frame_bytes)
            self._patch(ReliableSession, "_transmit", counting_transmit, transmit)
        else:
            self.skipped.append("ReliableSession._transmit")

        frame_encode = FrameCodec.encode  # the span wrapper installed above
        raw_encode = next(
            (o for c, a, o in self._patched if c is FrameCodec and a == "encode"), frame_encode
        )

        def counting_encode(codec, frame):
            data = frame_encode(codec, frame)
            if isinstance(frame, AckFrame):
                wire[FRAME_ACK] += len(data)
            elif isinstance(frame, BatchFrame) and frame.ack is not None:
                index = enter(bench)
                # The piggybacked ack's share: a standalone ACK minus its
                # 4-byte frame header.
                wire[FRAME_ACK] += len(raw_encode(codec, frame.ack)) - 4
                exit_(index)
            return data
        self._patch(FrameCodec, "encode", counting_encode, frame_encode)

        snapshot = NodeJournal.write_snapshot  # the span wrapper installed above
        recorder = self

        def counting_snapshot(journal, *args, **kwargs):
            index = enter(bench)
            before = _size(journal.wal_path)
            exit_(index)
            snapshot(journal, *args, **kwargs)
            index = enter(bench)
            mark = recorder._wal_marks.get(id(journal))
            if mark is not None:
                recorder.disk_bytes += before - mark + _size(journal.snapshot_path)
                recorder._wal_marks[id(journal)] = 0
            exit_(index)
        self._patch(NodeJournal, "write_snapshot", counting_snapshot, snapshot)

    def uninstall(self) -> None:
        for cls, attribute, original in reversed(self._patched):
            setattr(cls, attribute, original)
        self._patched.clear()

    # -- the measured window ---------------------------------------------

    def open_window(self, swarm) -> None:
        self.window = (len(self.spans), len(self.spans))
        self.wire_bytes.clear()
        self.disk_bytes = 0
        self._journals = [node.journal for node in swarm.nodes if node.journal is not None]
        self._wal_marks = {id(j): _size(j.wal_path) for j in self._journals}

    def close_window(self, swarm) -> None:
        self.window = (self.window[0], len(self.spans))
        self.window_wire = dict(self.wire_bytes)
        for journal in self._journals:
            self.disk_bytes += _size(journal.wal_path) - self._wal_marks.get(id(journal), 0)
        self._wal_marks = {}

    def analyse(self):
        """Self time (ns) and span count per name id over the window, and
        the total duration of root spans (everything attributed)."""
        first, last = self.window
        spans = self.spans[first:last]
        children = [0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= first:
                children[parent - first] += end - start
        self_ns = [0] * len(self.names)
        counts = [0] * len(self.names)
        rooted = 0
        for i, (name_id, start, end, parent) in enumerate(spans):
            self_ns[name_id] += end - start - children[i]
            counts[name_id] += 1
            if parent < first:
                rooted += end - start
        return self_ns, counts, rooted

    def write(self, path: str) -> int:
        """Dump the window's spans as TSV: index, name, start_ns, end_ns,
        parent index (-1 for a root); returns how many."""
        first, last = self.window
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name_id, start, end, parent) in enumerate(self.spans[first:last]):
                out.write(f"{i}\t{self.names[name_id]}\t{start}\t{end}\t"
                          f"{parent - first if parent >= first else -1}\n")
        return last - first


class _Steps:
    """Awaitable driving a coroutine one step at a time, one span per step."""

    __slots__ = ("enter", "exit", "sid", "coro")

    def __init__(self, enter, exit_, sid, coro) -> None:
        self.enter, self.exit, self.sid, self.coro = enter, exit_, sid, coro

    def __await__(self):
        coro = self.coro
        value, error = None, None
        while True:
            index = self.enter(self.sid)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit(index)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # handed on to the coroutine
                value, error = None, exc


def _step_items(enter, exit_, sid, generator):
    while True:
        index = enter(sid)
        try:
            item = next(generator)
        except StopIteration:
            return
        finally:
            exit_(index)
        yield item


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def traced_measure(workload, seed: int, seconds: float, work_dir: str):
    """One traced measurement (a single set-up) with the recorder
    installed for its whole life."""
    recorder = SpanRecorder()
    recorder.install()
    callback_sid = recorder.name_id("bench.on_delivery", "bench")

    def on_delivery(callback):
        enter, exit_ = recorder.enter, recorder.exit

        def traced(record):
            index = enter(callback_sid)
            try:
                callback(record)
            finally:
                exit_(index)
        return traced

    def on_window(swarm, opening: bool) -> None:
        if opening:
            recorder.open_window(swarm)
        else:
            recorder.close_window(swarm)

    try:
        m = asyncio.run(measure(
            workload, seed, seconds, work_dir, setups=1,
            on_delivery=on_delivery, on_window=on_window,
        ))
    finally:
        recorder.uninstall()
    if recorder.skipped:
        print(f"[traced] not wrapped (absent in this version): {', '.join(recorder.skipped)}")
    return m, recorder


def _histogram_delta(m, name: str):
    """Window delta of a merged registry histogram as (bounds, counts, sum, count)."""
    after = m.after["histograms"].get(name)
    if after is None:
        return None
    before = m.before["histograms"].get(name, {"counts": [0] * len(after["counts"]),
                                                "sum": 0.0, "count": 0})
    counts = [a - b for a, b in zip(after["counts"], before["counts"])]
    return after["bounds"], counts, after["sum"] - before["sum"], after["count"] - before["count"]


def _histogram_quantile(delta, q: float) -> float:
    from repro.obs import Histogram

    if delta is None:
        return 0.0
    bounds, counts, total, count = delta
    histogram = Histogram(bounds)
    histogram.counts, histogram.sum, histogram.count = counts, total, count
    return histogram.quantile(q)


def per_layer(untraced, traced, recorder: SpanRecorder) -> dict:
    """The per-layer metrics from the traced run (plus the untraced
    run's busy share and CPU, for the overhead)."""
    self_ns, counts, rooted = recorder.analyse()
    names = recorder.names
    layer_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    for name_id, name in enumerate(names):
        layer_ns[recorder.layers[name_id]] += self_ns[name_id]
        calls[name] += counts[name_id]
    m = traced
    deliveries = max(m.deliveries, 1.0)

    def us(layer: str) -> float:
        return layer_ns[layer] / 1000.0 / deliveries

    def share(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    c = m.counter
    wire = recorder.window_wire
    untraced_cpu = 1e6 * untraced.cpu_seconds / max(untraced.deliveries, 1.0)
    traced_cpu = 1e6 * m.cpu_seconds / deliveries
    hops = _histogram_delta(m, "repro_relay_hops")
    return {
        "codec.self_us_per_delivery": (us("codec"), "us"),
        "codec.frame_self_us_per_delivery": (us("codec.frame"), "us"),
        "codec.message_encodes_per_delivery": (
            (calls["MessageCodec.encode"] + calls["MessageCodec.encode_delta"]) / deliveries,
            "count"),
        "codec.message_decodes_per_delivery": (
            (c("repro_codec_messages_decoded_total") + c("repro_codec_deltas_decoded_total"))
            / deliveries, "count"),
        "codec.delta_share": (share(
            c("repro_wire_delta_sent_total"),
            c("repro_wire_delta_sent_total") + c("repro_wire_full_sent_total")), "share"),
        "session.self_us_per_delivery": (us("session"), "us"),
        "session.data_frames_per_delivery": (
            (c("repro_wire_data_sent_total") + c("repro_wire_retransmits_total")) / deliveries,
            "count"),
        "session.retransmits_per_delivery": (
            c("repro_wire_retransmits_total") / deliveries, "count"),
        "session.frames_per_datagram": (share(
            c("repro_wire_frames_sent_total"), c("repro_wire_datagrams_sent_total")), "count"),
        "session.ack_piggyback_share": (share(
            c("repro_wire_acks_piggybacked_total"), c("repro_wire_acks_sent_total")), "share"),
        "session.digests_per_delivery": (c("repro_wire_digests_sent_total") / deliveries, "count"),
        "transport.self_us_per_delivery": (us("transport"), "us"),
        "transport.datagrams_per_wakeup": (share(
            c("repro_io_rx_datagrams_total"), c("repro_io_rx_wakeups_total")), "count"),
        "node.self_us_per_delivery": (us("node"), "us"),
        "node.store_missing_for_us_per_delivery": (us("node.store_missing_for"), "us"),
        "node.redundant_receive_share": (share(
            c("repro_endpoint_duplicates_total"), c("repro_endpoint_received_total")), "share"),
        "protocol.on_receive_self_us_per_delivery": (us("protocol.on_receive"), "us"),
        "protocol.broadcast_self_us": (share(
            layer_ns["protocol.broadcast"] / 1000.0,
            calls["CausalBroadcastEndpoint.broadcast"]), "us"),
        "pending.self_us_per_delivery": (us("pending"), "us"),
        "pending.depth_peak": (m.pending_peak, "count"),
        "pending.wait_p99_ms": (
            1000.0 * _histogram_quantile(
                _histogram_delta(m, "repro_delivery_wait_seconds"), 0.99), "ms"),
        "pending.spurious_wakeup_share": (share(
            c("repro_pending_spurious_wakeups_total"), c("repro_pending_wakeups_total")),
            "share"),
        "detector.self_us_per_delivery": (us("detector"), "us"),
        "detector.alert_rate": (share(
            c("repro_detector_alerts_total"), c("repro_detector_checks_total")), "share"),
        "journal.self_us_per_delivery": (us("journal"), "us"),
        "journal.snapshot_ms_p99": (
            1000.0 * _histogram_quantile(
                _histogram_delta(m, "repro_journal_snapshot_seconds"), 0.99), "ms"),
        "journal.appends_per_delivery": (c("repro_journal_appends_total") / deliveries, "count"),
        "journal.disk_bytes_per_delivery": (recorder.disk_bytes / deliveries, "B"),
        "overlay.self_us_per_delivery": (us("overlay"), "us"),
        "overlay.relay_coverage_share": (
            c("repro_relay_first_intake_total") / deliveries, "share"),
        "overlay.relay_duplicate_share": (share(
            c("repro_relay_duplicates_total"),
            c("repro_relay_duplicates_total") + c("repro_relay_first_intake_total")), "share"),
        "overlay.hops_mean": (share(hops[2], hops[3]) if hops else 0.0, "count"),
        "wire.data_bytes_per_delivery": (wire.get(FRAME_DATA, 0) / deliveries, "B"),
        "wire.ack_bytes_per_delivery": (wire.get(FRAME_ACK, 0) / deliveries, "B"),
        "wire.digest_bytes_per_delivery": (wire.get(FRAME_DIGEST, 0) / deliveries, "B"),
        "wire.relay_bytes_per_delivery": (wire.get(FRAME_RELAY, 0) / deliveries, "B"),
        "loop.busy_share": (untraced.cpu_seconds / untraced.wall_seconds, "share"),
        "loop.unattributed_us_per_delivery": (
            (1e9 * m.cpu_seconds - rooted) / 1000.0 / deliveries, "us"),
        "trace.overhead_us_per_delivery": (traced_cpu - untraced_cpu, "us"),
    }
