"""Differential test: the indexed ``MessageStore.missing_for`` against the
linear walk it replaced.

The reference below is the original implementation: it walks the whole
store in insertion order and serves every encoding the remote digest
does not cover, up to the cap.  The production version skips covered
senders through a per-sender index and visits only the uncovered rest;
it must yield exactly the same sequence and keep the same unservable-
request accounting.  Two stores receive the same operation history; one
answers through the index, its twin through the reference walk.
"""

import logging
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.node import MessageStore

SENDERS = ("a", "b", "c", "d")


def linear_missing_for(store, remote, limit=256):
    """The pre-index ``missing_for``: O(store) walk, oldest first."""
    for sender, high in store._evicted_high.items():
        if remote.get(sender, (0, ()))[0] < high:
            store.stats.unservable_requests += 1
            store._warned_unservable = True
            break
    served = 0
    for sender, seq in store._order:
        if served >= limit:
            return
        contiguous, extras = remote.get(sender, (0, ()))
        if seq <= contiguous or seq in extras:
            continue
        data = store.get(sender, seq)
        if data is not None:
            served += 1
            yield data


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "evicted" in record.getMessage():
            self.count += 1


@st.composite
def frontier_maps(draw):
    remote = {}
    for sender in draw(st.lists(st.sampled_from(SENDERS), unique=True)):
        contiguous = draw(st.integers(0, 16))
        above = draw(st.lists(st.integers(1, 12), max_size=5, unique=True))
        remote[sender] = (contiguous, tuple(sorted(contiguous + gap for gap in above)))
    return remote


seqs = st.integers(1, 16)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(SENDERS), seqs),
        st.tuples(st.just("restore"), st.sampled_from(SENDERS), seqs),
        st.tuples(st.just("purge"), st.sampled_from(SENDERS)),
        st.tuples(
            st.just("query"), frontier_maps(),
            st.sampled_from([0, 1, 2, 3, 5, 256]),
        ),
    ),
    max_size=80,
)


def _encoding(sender, seq):
    return f"{sender}:{seq}".encode()


@settings(max_examples=300, deadline=None)
@given(
    limit=st.sampled_from([1, 2, 3, 5, 8, 64, 8192]),
    recovered=st.none() | frontier_maps(),
    ops=operations,
)
def test_index_matches_linear_walk(limit, recovered, ops):
    indexed, reference = MessageStore(limit=limit), MessageStore(limit=limit)
    if recovered is not None:
        for store in (indexed, reference):
            store.restore_frontiers(recovered)
    counter = _WarningCounter()
    logger = logging.getLogger("repro.net.node")
    logger.addHandler(counter)
    try:
        for op in ops:
            kind = op[0]
            if kind == "add":
                for store in (indexed, reference):
                    store.add(op[1], op[2], _encoding(op[1], op[2]))
            elif kind == "restore":
                # Only ids the store already knows may be re-stocked.
                if indexed.knows(op[1], op[2]):
                    for store in (indexed, reference):
                        store.restore_message(op[1], op[2], _encoding(op[1], op[2]))
            elif kind == "purge":
                assert indexed.purge_sender(op[1]) == reference.purge_sender(op[1])
            else:
                remote, cap = op[1], op[2]
                assert list(indexed.missing_for(remote, cap)) == list(
                    linear_missing_for(reference, remote, cap)
                )
            # An empty digest covers nothing: the answer exposes every
            # encoding the index holds, in order.
            assert list(indexed.missing_for({}, 8192)) == list(
                linear_missing_for(reference, {}, 8192)
            )
            assert indexed.stats == reference.stats
            assert len(indexed) == len(reference)
            assert indexed.frontiers() == reference.frontiers()
    finally:
        logger.removeHandler(counter)
    assert counter.count == (1 if reference._warned_unservable else 0)


def test_cap_of_256_keeps_the_oldest_across_senders():
    indexed, reference = MessageStore(), MessageStore()
    # Interleaved senders with shuffled arrivals, so the oldest 256
    # uncovered encodings span senders and are not in seq order.
    rng = random.Random(7)
    arrivals = [(sender, seq) for seq in range(1, 121) for sender in SENDERS]
    rng.shuffle(arrivals)
    for sender, seq in arrivals:
        for store in (indexed, reference):
            store.add(sender, seq, _encoding(sender, seq))
    remote = {"a": (40, (45, 50)), "c": (119, ())}
    served = list(indexed.missing_for(remote))
    assert len(served) == 256
    assert served == list(linear_missing_for(reference, remote))
    # A digest covering everything held is answered with nothing.
    covered = {sender: (200, ()) for sender in SENDERS}
    assert list(indexed.missing_for(covered)) == []
