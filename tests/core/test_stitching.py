"""Tests for the Stitch Engine's candidate search and stitching."""

from hypothesis import given, strategies as st

from repro.core.cluster_queue import ClusterQueue
from repro.core.stitching import StitchEngine
from repro.network.flit import STITCH_METADATA_BYTES, segment_packet
from repro.network.packet import Packet, PacketType


def _queue():
    return ClusterQueue(capacity=64, partition_by_type=True, separate_ptw=False)


def _flits(ptype, payload=None):
    kwargs = {} if payload is None else {"payload_bytes": payload}
    return segment_packet(Packet(ptype=ptype, src_gpu=0, dst_gpu=2, **kwargs), 16)


def _rsp_tail():
    return _flits(PacketType.READ_RSP)[-1]  # 4 used, 12 empty


def test_no_candidates_in_empty_queue():
    engine = StitchEngine()
    assert engine.find_candidate(_rsp_tail(), _queue()) is None


def test_finds_fitting_whole_packet():
    engine = StitchEngine()
    q = _queue()
    req = _flits(PacketType.READ_REQ)[0]  # cost 12
    q.push(req)
    assert engine.find_candidate(_rsp_tail(), q) is req


def test_best_fit_prefers_largest_cost():
    engine = StitchEngine()
    q = _queue()
    small = _flits(PacketType.WRITE_RSP)[0]  # cost 4
    large = _flits(PacketType.READ_REQ)[0]  # cost 12
    q.push(small)
    q.push(large)
    assert engine.find_candidate(_rsp_tail(), q) is large


def test_oversized_candidates_skipped():
    engine = StitchEngine()
    q = _queue()
    full = _flits(PacketType.READ_RSP)[0]  # 16 used: cost 19
    q.push(full)
    assert engine.find_candidate(_rsp_tail(), q) is None


def test_partial_candidate_cost_includes_metadata():
    engine = StitchEngine()
    q = _queue()
    other_tail = _rsp_tail()  # cost 4 + metadata
    q.push(other_tail)
    parent = _rsp_tail()
    assert engine.find_candidate(parent, q) is other_tail
    engine.stitch_all(parent, q)
    assert parent.segments[0].wire_bytes == 4 + STITCH_METADATA_BYTES


def test_stitch_all_removes_candidates_from_queue():
    engine = StitchEngine()
    q = _queue()
    a = _flits(PacketType.WRITE_RSP)[0]
    b = _flits(PacketType.WRITE_RSP)[0]
    q.push(a)
    q.push(b)
    parent = _rsp_tail()
    absorbed = engine.stitch_all(parent, q)
    assert absorbed == 2
    assert q.is_empty()
    assert {seg.flit for seg in parent.segments} == {a, b}


def test_stitch_all_respects_space():
    engine = StitchEngine()
    q = _queue()
    for _ in range(5):
        q.push(_flits(PacketType.WRITE_RSP)[0])  # cost 4 each
    parent = _rsp_tail()  # 12 empty -> 3 fit
    absorbed = engine.stitch_all(parent, q)
    assert absorbed == 3
    assert len(q) == 2
    assert parent.empty_bytes == 0


def test_search_depth_bounds_visibility():
    engine = StitchEngine(search_depth=2)
    q = _queue()
    # bury the only fitting candidate behind two oversized ones
    for _ in range(2):
        q.push(_flits(PacketType.READ_RSP)[0])  # full flits, never fit
    fitting = _flits(PacketType.WRITE_RSP)[0]
    q.push(fitting)  # third in its own partition, so still visible
    parent = _rsp_tail()
    assert engine.find_candidate(parent, q) is fitting


def test_statistics_accumulate():
    engine = StitchEngine()
    q = _queue()
    q.push(_flits(PacketType.READ_REQ)[0])
    parent = _rsp_tail()
    engine.stitch_all(parent, q)
    assert engine.parents_stitched == 1
    assert engine.candidates_absorbed == 1
    assert engine.bytes_stitched == 12


def test_no_stitch_leaves_stats_untouched():
    engine = StitchEngine()
    q = _queue()
    parent = _flits(PacketType.READ_RSP)[0]  # full: nothing fits
    assert engine.stitch_all(parent, q) == 0
    assert engine.parents_stitched == 0


def test_perfect_fit_early_exit():
    engine = StitchEngine()
    q = _queue()
    perfect = _flits(PacketType.READ_REQ)[0]  # cost 12 == empty 12
    q.push(perfect)
    parent = _rsp_tail()
    assert engine.find_candidate(parent, q) is perfect


def test_best_fit_reports_position():
    engine = StitchEngine()
    q = _queue()
    for _ in range(2):
        q.push(_flits(PacketType.READ_RSP)[0])  # full flits, never fit
    req = _flits(PacketType.READ_REQ)[0]
    q.push(req)
    flit, part, index = engine._best_fit(_rsp_tail(), q)
    assert flit is req
    assert part.flits[index] is req


def test_stitching_a_pooled_head_releases_its_timer():
    engine = StitchEngine()
    q = _queue()
    pooled = _flits(PacketType.READ_REQ)[0]
    pooled.pooled = True
    q.push(pooled)
    q.push(_flits(PacketType.READ_REQ)[0])
    part = q.partitions()[0]
    part.blocked_until, part.pooled_at = 100, 68
    assert engine.stitch_all(_rsp_tail(), q) == 1
    assert q.stale_timers_cleared == 1
    assert part.blocked_until == 0
    assert len(q) == 1


_KINDS = [
    PacketType.READ_REQ,
    PacketType.READ_RSP,
    PacketType.WRITE_REQ,
    PacketType.WRITE_RSP,
    PacketType.PT_REQ,
    PacketType.PT_RSP,
]


def _staged(spec):
    """A queue staged from ``spec``, a list of (kind, pooled head?) pairs;
    every other partition carries a pooling timer."""
    q = ClusterQueue(capacity=512, partition_by_type=True, separate_ptw=True)
    for kind, pooled in spec:
        flits = _flits(kind)
        flits[0].pooled = pooled
        for flit in flits:
            q.push(flit)
    for i, part in enumerate(q.partitions()):
        part.blocked_until = 50 if i % 2 else 0
    return q


def _layout(q):
    return [
        (p.key, p.blocked_until, [(f.cq_seq, f.pooled) for f in p.flits])
        for p in q.partitions()
    ]


@given(
    spec=st.lists(
        st.tuples(st.sampled_from(_KINDS), st.booleans()), min_size=1, max_size=60
    ),
    depth=st.integers(min_value=1, max_value=10),
    parent_kind=st.sampled_from([PacketType.READ_RSP, PacketType.WRITE_REQ]),
    payload=st.integers(min_value=1, max_value=64),
)
def test_positional_stitch_matches_scanning_removal(spec, depth, parent_kind, payload):
    """Property: removing stitched candidates at the position the search
    found them absorbs the same flits, in the same order, and leaves the
    same queue, timers and counters as find_candidate + remove_flit."""
    fast_q, ref_q = _staged(spec), _staged(spec)
    fast_parent = _flits(parent_kind, payload)[-1]
    ref_parent = _flits(parent_kind, payload)[-1]
    engine = StitchEngine(search_depth=depth)
    absorbed = engine.stitch_all(fast_parent, fast_q)
    reference = StitchEngine(search_depth=depth)
    ref_absorbed = 0
    while True:
        candidate = reference.find_candidate(ref_parent, ref_q)
        if candidate is None:
            break
        assert ref_q.remove_flit(candidate)
        ref_parent.absorb(candidate)
        ref_absorbed += 1
    assert absorbed == ref_absorbed
    assert [s.flit.cq_seq for s in fast_parent.segments] == [
        s.flit.cq_seq for s in ref_parent.segments
    ]
    assert _layout(fast_q) == _layout(ref_q)
    assert len(fast_q) == len(ref_q)
    assert fast_q.stale_timers_cleared == ref_q.stale_timers_cleared
