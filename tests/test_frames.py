"""Wire tests for the reliability frames (DATA/ACK/NACK/DIGEST/HEARTBEAT)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import (
    AckFrame,
    CodecError,
    DataFrame,
    DigestFrame,
    FrameCodec,
    HeartbeatFrame,
    JoinAckFrame,
    JoinFrame,
    LeaveFrame,
    MemberRecord,
    MessageCodec,
    NackFrame,
    ViewFrame,
)
from repro.core.protocol import Message
from repro.core.clocks import ProbabilisticCausalClock

codec = FrameCodec()

seqs = st.integers(min_value=0, max_value=2**40)
ascending = st.lists(
    st.integers(min_value=1, max_value=2**20), min_size=0, max_size=16, unique=True
).map(sorted).map(tuple)


class TestRoundTrip:
    @given(seq=seqs, payload=st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_data_frame(self, seq, payload):
        frame = DataFrame(seq=seq, payload=payload)
        assert codec.decode(codec.encode(frame)) == frame

    @given(cumulative=seqs, deltas=ascending)
    @settings(max_examples=200, deadline=None)
    def test_ack_frame(self, cumulative, deltas):
        sacks = tuple(cumulative + d for d in deltas)
        frame = AckFrame(cumulative=cumulative, sacks=sacks)
        assert codec.decode(codec.encode(frame)) == frame

    @given(first=st.integers(min_value=1, max_value=2**40), deltas=ascending)
    @settings(max_examples=200, deadline=None)
    def test_nack_frame(self, first, deltas):
        missing = (first,) + tuple(first + d for d in deltas)
        frame = NackFrame(missing=missing)
        assert codec.decode(codec.encode(frame)) == frame

    @given(
        frontiers=st.dictionaries(
            st.text(min_size=1, max_size=12),
            st.tuples(st.integers(min_value=0, max_value=2**30), ascending),
            max_size=8,
        ).map(
            lambda d: {
                sender: (contiguous, tuple(contiguous + delta for delta in extras))
                for sender, (contiguous, extras) in d.items()
            }
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_digest_frame(self, frontiers):
        frame = DigestFrame(frontiers=frontiers)
        assert codec.decode(codec.encode(frame)) == frame

    @given(count=st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=200, deadline=None)
    def test_heartbeat_frame(self, count):
        frame = HeartbeatFrame(count=count)
        assert codec.decode(codec.encode(frame)) == frame


class TestDispatch:
    def test_frames_and_messages_are_distinguishable(self):
        """Frame magic differs from message magic at the first bytes."""
        message_codec = MessageCodec()
        clock = ProbabilisticCausalClock(16, (0, 3))
        message = Message(
            sender="p", seq=1, timestamp=clock.prepare_send(), payload="x"
        )
        message_bytes = message_codec.encode(message)
        frame_bytes = codec.encode(DataFrame(seq=1, payload=message_bytes))
        assert FrameCodec.is_frame(frame_bytes)
        assert not FrameCodec.is_frame(message_bytes)
        # And a DATA frame's payload round-trips the inner message.
        inner = codec.decode(frame_bytes).payload
        assert message_codec.decode(inner).payload == "x"

    def test_empty_and_short_data_not_frames(self):
        assert not FrameCodec.is_frame(b"")
        assert not FrameCodec.is_frame(b"PF")


class TestMalformed:
    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(b"XX\x01\x01")

    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(b"PF\x01\x63" + b"\x00" * 16)

    def test_unknown_version_rejected(self):
        data = bytearray(codec.encode(DataFrame(seq=1, payload=b"x")))
        data[2] = 99
        with pytest.raises(CodecError):
            codec.decode(bytes(data))

    def test_truncated_data_rejected(self):
        data = codec.encode(DataFrame(seq=1, payload=b"hello"))
        with pytest.raises(CodecError):
            codec.decode(data[:-3])

    def test_truncated_digest_rejected(self):
        data = codec.encode(DigestFrame({"alice": (5, (7, 9))}))
        with pytest.raises(CodecError):
            codec.decode(data[:-1])

    def test_empty_nack_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(NackFrame(missing=()))

    def test_non_ascending_sack_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(AckFrame(cumulative=10, sacks=(5,)))

    def test_negative_heartbeat_count_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(HeartbeatFrame(count=-1))

    def test_truncated_heartbeat_rejected(self):
        data = codec.encode(HeartbeatFrame(count=7))
        with pytest.raises(CodecError):
            codec.decode(data[:-2])


# ----------------------------------------------------------------------
# membership frames (VIEW / JOIN / JOIN_ACK / LEAVE)
# ----------------------------------------------------------------------

addresses = st.tuples(
    st.text(min_size=1, max_size=20), st.integers(min_value=0, max_value=65535)
)
key_sets = st.lists(
    st.integers(min_value=0, max_value=255), min_size=0, max_size=8, unique=True
).map(sorted).map(tuple)
members = st.lists(
    st.tuples(st.text(min_size=1, max_size=12), addresses, key_sets),
    max_size=6,
    unique_by=lambda m: m[0],
).map(lambda ms: tuple(MemberRecord(n, a, k) for n, a, k in ms))


class TestMembershipRoundTrip:
    @given(view_id=seqs, records=members)
    @settings(max_examples=150, deadline=None)
    def test_view_frame(self, view_id, records):
        frame = ViewFrame(view_id=view_id, members=records)
        assert codec.decode(codec.encode(frame)) == frame

    @given(node_id=st.text(min_size=1, max_size=20), address=addresses,
           keys=key_sets)
    @settings(max_examples=150, deadline=None)
    def test_join_frame(self, node_id, address, keys):
        frame = JoinFrame(node_id=node_id, address=address, keys=keys)
        assert codec.decode(codec.encode(frame)) == frame

    @given(
        accepted=st.booleans(),
        view_id=seqs,
        keys=key_sets,
        records=members,
        frontiers=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.tuples(seqs, ascending),
            max_size=4,
        ).map(
            lambda d: {
                sender: (contiguous, tuple(contiguous + delta for delta in extras))
                for sender, (contiguous, extras) in d.items()
            }
        ),
        vector=st.lists(
            st.integers(min_value=0, max_value=2**30), max_size=32
        ).map(tuple),
        reason=st.text(max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_join_ack_frame(
        self, accepted, view_id, keys, records, frontiers, vector, reason
    ):
        frame = JoinAckFrame(
            accepted=accepted, view_id=view_id, r=256, k=len(keys) or 1,
            keys=keys, members=records, frontiers=frontiers,
            vector=vector, reason=reason,
        )
        assert codec.decode(codec.encode(frame)) == frame

    @given(node_id=st.text(min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_leave_frame(self, node_id):
        frame = LeaveFrame(node_id=node_id)
        assert codec.decode(codec.encode(frame)) == frame

    def test_list_address_decodes_as_tuple(self):
        # JSON has no tuples; decoding canonicalises to tuples so
        # addresses stay usable as dict keys / transport targets.
        frame = JoinFrame(node_id="n", address=["10.0.0.1", 9000], keys=())
        decoded = codec.decode(codec.encode(frame))
        assert decoded.address == ("10.0.0.1", 9000)


class TestMembershipMalformed:
    def test_truncated_view_rejected(self):
        frame = ViewFrame(
            view_id=3,
            members=(MemberRecord("a", ("h", 1), (0, 1)),),
        )
        with pytest.raises(CodecError):
            codec.decode(codec.encode(frame)[:-2])

    def test_truncated_join_ack_rejected(self):
        frame = JoinAckFrame(
            accepted=True, view_id=1, r=16, k=2, keys=(0, 1),
            members=(), frontiers={"a": (3, ())}, vector=(0,) * 16,
        )
        with pytest.raises(CodecError):
            codec.decode(codec.encode(frame)[:-1])

    def test_unencodable_address_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(JoinFrame(node_id="n", address=object(), keys=()))


class TestDigestV3:
    """The compact, self-contained frontier map (frame version 3)."""

    def test_golden_bytes(self):
        data = codec.encode(DigestFrame({"n00": (5, ()), "n01": (3, (5, 7))}))
        assert data == bytes.fromhex(
            "50460304"    # PF, version 3, DIGEST
            "02"          # two senders
            "036e3030"    # "n00"
            "0a"          # contiguous 5, no extras
            "036e3031"    # "n01"
            "07"          # contiguous 3, extras follow
            "0200"        # two extras (u16 count) ...
            "0202"        # ... 5 and 7 as gaps above 3
        )

    def test_max_contiguous_round_trips(self):
        frame = DigestFrame({"p": (2**64 - 1, ()), "q": (2**64 - 3, (2**64 - 1,))})
        assert codec.decode(codec.encode(frame)) == frame

    def test_contiguous_beyond_u64_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(DigestFrame({"p": (2**64, ())}))
        with pytest.raises(CodecError):
            codec.encode(DigestFrame({"p": (-1, ())}))

    def test_empty_map_round_trips(self):
        data = codec.encode(DigestFrame({}))
        assert data == b"PF\x03\x04\x00"
        assert codec.decode(data) == DigestFrame({})

    def test_long_ids_round_trip(self):
        # The varint length prefix adds no id-length limit of its own.
        long_id = "x" * 300 + "é" * 200
        frame = DigestFrame({long_id: (9, (11,)), "short": (1, ())})
        assert codec.decode(codec.encode(frame)) == frame
        ack = JoinAckFrame(
            accepted=True, view_id=2, r=16, k=2, keys=(0, 1), members=(),
            frontiers={long_id: (4, ())}, vector=(0,) * 16,
        )
        assert codec.decode(codec.encode(ack)) == ack

    def test_version_2_frame_rejected(self):
        data = bytearray(codec.encode(DigestFrame({"p": (1, ())})))
        data[2] = 2
        with pytest.raises(CodecError, match="version"):
            codec.decode(bytes(data))

    def test_extras_flag_without_extras_rejected(self):
        # Non-canonical: the flag promises a list that is empty.
        with pytest.raises(CodecError):
            codec.decode(b"PF\x03\x04\x01\x01p\x03\x00\x00")

    def test_non_utf8_sender_is_a_codec_error(self):
        with pytest.raises(CodecError):
            codec.decode(b"PF\x03\x04\x01\x01\xff\x02")
