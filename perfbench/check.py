"""Delivery-log correctness check for the swarm benchmark.

During a run every node's ``on_delivery`` callback appends one tuple to a
shared :class:`DeliveryLog`: the sender's own self-delivery marks the
broadcast, every remote delivery marks a (message, receiver) pair.  The
swarm runs in one event-loop thread, so the log's order is the global
order in which these events happened.

After the timed window :func:`check_log` replays that log:

* exactly once: every (message, receiver) pair is delivered once — a
  pair never delivered by the drain deadline is *missing*, a second
  delivery is a *duplicate*;
* per-sender FIFO: each receiver delivers each sender's seqs as 1, 2, 3 …;
* payload integrity: the delivered payload equals the broadcast one;
* causal order: the log is replayed through
  :class:`repro.sim.oracle.CausalityOracle`, the ground-truth vector
  clock of the paper's Section 5.4.1.  A proven violation fails its
  pair; an ambiguous delivery (the oracle cannot decide after an
  earlier violation) is counted beside it, as the paper's ε_max.

A pair fails once however many of these checks it breaks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.sim.oracle import CausalityOracle, DeliveryVerdict

MessageId = Tuple[int, int]  # (sender index, seq)


class DeliveryLog:
    """Append-only record of one swarm's broadcasts and deliveries.

    Events are ``(local, node, sender, seq, time, payload)`` with node
    and sender as indices into ``names``.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.events: List[tuple] = []
        self.sent = 0
        self.remote_deliveries = 0
        # Closed-loop bookkeeping: deliveries still owed per message, and
        # the hook told when the last receiver delivered it.
        self.owed: Dict[MessageId, int] = {}
        self.on_complete = None

    def callback(self, name: str):
        """The ``on_delivery`` handler for node ``name``."""
        node = self.index[name]
        index = self.index
        append = self.events.append
        clock = time.monotonic
        receivers = len(self.names) - 1
        log = self

        def on_delivery(record) -> None:
            message = record.message
            if record.local:
                append((True, node, node, message.seq, clock(), message.payload))
                log.sent += 1
                if log.on_complete is not None:
                    log.owed[(node, message.seq)] = receivers
                return
            sender = index[message.sender]
            append((False, node, sender, message.seq, clock(), message.payload))
            log.remote_deliveries += 1
            if log.on_complete is not None:
                key = (sender, message.seq)
                owed = log.owed.get(key)
                if owed is not None:
                    if owed <= 1:
                        del log.owed[key]
                        log.on_complete(sender)
                    else:
                        log.owed[key] = owed - 1

        return on_delivery


@dataclass
class CheckReport:
    """What :func:`check_log` found; ``failed`` counts distinct pairs."""

    attempted: int = 0
    failed: int = 0
    missing: int = 0
    duplicates: int = 0
    fifo_breaks: int = 0
    payload_mismatches: int = 0
    unknown: int = 0
    violations: int = 0
    ambiguous: int = 0
    deliveries: int = 0
    latencies: List[Tuple[float, float]] = field(default_factory=list)  # (due, latency)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ambiguous_share(self) -> float:
        return self.ambiguous / self.deliveries if self.deliveries else 0.0

    def merge(self, other: "CheckReport") -> None:
        for name in (
            "attempted", "failed", "missing", "duplicates", "fifo_breaks",
            "payload_mismatches", "unknown", "violations", "ambiguous",
            "deliveries",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies.extend(other.latencies)

    def summary(self) -> str:
        return (
            f"attempted={self.attempted} failed={self.failed} "
            f"missing={self.missing} duplicates={self.duplicates} "
            f"fifo={self.fifo_breaks} payload={self.payload_mismatches} "
            f"unknown={self.unknown} violations={self.violations} "
            f"ambiguous={self.ambiguous}"
        )


def check_log(log: DeliveryLog, due: Dict[MessageId, float]) -> CheckReport:
    """Check one swarm's log; latencies are taken for the messages in
    ``due`` (message id -> the time its broadcast was due)."""
    n = len(log.names)
    oracle = CausalityOracle(capacity=n)
    for i in range(n):
        oracle.register_node(i)
    report = CheckReport()
    sent: Dict[MessageId, object] = {}
    delivered: Dict[Tuple[int, int, int], int] = {}
    last_seq: Dict[Tuple[int, int], int] = {}
    failed = set()
    for local, node, sender, seq, at, payload in log.events:
        message_id = (sender, seq)
        if local:
            sent[message_id] = payload
            oracle.on_send(node, message_id, at, fanout=n - 1)
            continue
        pair = (node, sender, seq)
        count = delivered.get(pair, 0) + 1
        delivered[pair] = count
        if count > 1:
            report.duplicates += 1
            failed.add(pair)
            continue
        if message_id not in sent:
            report.unknown += 1
            failed.add(pair)
            continue
        report.deliveries += 1
        link = (node, sender)
        if seq != last_seq.get(link, 0) + 1:
            report.fifo_breaks += 1
            failed.add(pair)
        last_seq[link] = max(seq, last_seq.get(link, 0))
        if payload != sent[message_id]:
            report.payload_mismatches += 1
            failed.add(pair)
        verdict = oracle.classify_delivery(node, message_id, at).verdict
        if verdict is DeliveryVerdict.VIOLATION:
            report.violations += 1
            failed.add(pair)
        elif verdict is DeliveryVerdict.AMBIGUOUS:
            report.ambiguous += 1
        due_at = due.get(message_id)
        if due_at is not None:
            report.latencies.append((due_at, at - due_at))
    for sender, seq in sent:
        for node in range(n):
            if node != sender and (node, sender, seq) not in delivered:
                report.missing += 1
                failed.add((node, sender, seq))
    report.attempted = len(sent) * (n - 1)
    report.failed = len(failed)
    return report


def self_test() -> None:
    """Feed the checker a synthetic log with one missing delivery, one
    duplicate and one causal inversion, and check it counts each."""

    class _Message:
        def __init__(self, sender, seq, payload):
            self.sender, self.seq, self.payload = sender, seq, payload

    class _Record:
        def __init__(self, message, local):
            self.message, self.local = message, local

    log = DeliveryLog(["a", "b", "c"])
    on = {name: log.callback(name) for name in log.names}
    a1, a2, b1 = _Message("a", 1, "a1"), _Message("a", 2, "a2"), _Message("b", 1, "b1")
    on["a"](_Record(a1, True))
    on["a"](_Record(a2, True))
    on["b"](_Record(a1, False))
    on["b"](_Record(b1, True))  # b1 causally follows a1
    on["b"](_Record(a2, False))
    on["b"](_Record(a2, False))  # duplicate
    on["a"](_Record(b1, False))
    on["c"](_Record(b1, False))  # before its cause a1: inversion
    on["c"](_Record(a1, False))
    # c never delivers a2: missing
    report = check_log(log, due={})
    expected = dict(attempted=6, failed=3, missing=1, duplicates=1, violations=1)
    found = {name: getattr(report, name) for name in expected}
    if found != expected or report.fifo_breaks or report.payload_mismatches:
        raise AssertionError(f"checker self-test: expected {expected}, got {report.summary()}")
