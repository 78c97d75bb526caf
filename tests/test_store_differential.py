"""Differential tests: the indexed ``MessageStore.missing_for`` against
the linear walk it replaced, and ``MessageStore.lacks`` against a
brute-force set comparison.

The reference below is the original implementation: it walks the whole
store in insertion order and serves every encoding the remote digest
does not cover, up to the cap.  The production version skips covered
senders through a per-sender index and visits only the uncovered rest;
it must yield exactly the same sequence and keep the same unservable-
request accounting.  Two stores receive the same operation history; one
answers through the index, its twin through the reference walk.

``lacks`` (the pull test of push-pull anti-entropy) is checked against
a model that keeps every id the store has recorded as a plain set: the
store lacks something exactly when an admitted sender's remote id set
is not a subset of the model's.
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


def admit_all(sender):
    return True


def brute_lacks(known, remote, admitted):
    """Set reference: does the remote digest name an admitted id that was
    never recorded here?"""
    for sender, (contiguous, extras) in remote.items():
        theirs = set(range(1, contiguous + 1)) | set(extras)
        if sender in admitted and theirs - known.get(sender, set()):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(
    limit=st.sampled_from([1, 3, 8192]),
    recovered=st.none() | frontier_maps(),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.sampled_from(SENDERS), seqs),
            st.tuples(st.just("restore"), st.sampled_from(SENDERS), seqs),
            st.tuples(st.just("purge"), st.sampled_from(SENDERS)),
            st.tuples(
                st.just("query"), frontier_maps(),
                st.frozensets(st.sampled_from(SENDERS)),
            ),
        ),
        max_size=80,
    ),
)
def test_lacks_matches_set_comparison(limit, recovered, ops):
    store = MessageStore(limit=limit)
    known = {}
    if recovered is not None:
        store.restore_frontiers(recovered)
        for sender, (contiguous, extras) in recovered.items():
            known[sender] = set(range(1, contiguous + 1)) | set(extras)
    for op in ops:
        kind = op[0]
        if kind == "add":
            # Out-of-order adds: seqs arrive in any order, with gaps.
            store.add(op[1], op[2], _encoding(op[1], op[2]))
            known.setdefault(op[1], set()).add(op[2])
        elif kind == "restore":
            # Re-stocking bytes never changes which ids are known.
            if store.knows(op[1], op[2]):
                store.restore_message(op[1], op[2], _encoding(op[1], op[2]))
        elif kind == "purge":
            store.purge_sender(op[1])
            known.pop(op[1], None)
        else:
            remote, admitted = op[1], op[2]
            assert store.lacks(remote, admitted.__contains__) == brute_lacks(
                known, remote, admitted
            )
            # Every sender admitted, ones this store never saw included.
            assert store.lacks(remote, admit_all) == brute_lacks(
                known, remote, set(SENDERS)
            )
        # Our own digest never shows us behind ourselves.
        assert not store.lacks(store.frontiers(), admit_all)


def test_lacks_ignores_rejected_senders_and_covered_digests():
    store = MessageStore()
    for seq in (1, 2, 5):
        store.add("a", seq, _encoding("a", seq))
    assert not store.lacks({"a": (2, (5,))}, admit_all)
    assert store.lacks({"a": (3, ())}, admit_all)  # seq 3 was never recorded
    assert store.lacks({"a": (2, (4,))}, admit_all)  # an extra above our frontier
    assert store.lacks({"b": (1, ())}, admit_all)  # a sender we never heard of
    # A purged (departed) sender the filter rejects never causes a pull.
    store.purge_sender("a")
    assert not store.lacks({"a": (9, ())}, lambda sender: sender != "a")
