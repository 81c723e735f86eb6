"""The campaign_mixed traffic: every new campaign is resubmitted once."""

from service import Campaigns


def _sequence(seed, count):
    campaigns = Campaigns(seed)
    out = []
    for _ in range(count):
        kind = campaigns.next_class()
        out.append((kind, campaigns.spec(kind)))
    return out


def test_new_campaigns_alternate_with_their_resubmissions():
    sequence = _sequence(7, 40)
    kinds = [kind for kind, _ in sequence]
    assert kinds[0] == "fresh"  # an overlap needs a pair seen before
    assert kinds[1::2] == ["repeat"] * 20
    assert kinds[2::2].count("fresh") == 9 and kinds[2::2].count("overlap") == 10
    for (_, new), (_, repeat) in zip(sequence[0::2], sequence[1::2]):
        assert repeat is new


def test_campaigns_are_four_points_and_overlap_reuses_one_pair():
    seen = set()
    for kind, data in _sequence(3, 40):
        pairs = {(p["workload"], p["seed"]) for p in data["points"]}
        assert len(data["points"]) == 4 and len(pairs) == 2
        if kind == "fresh":
            assert not pairs & seen
        elif kind == "overlap":
            assert len(pairs & seen) == 1
        else:
            assert pairs <= seen
        seen |= pairs


def test_the_seed_fixes_the_sequence():
    assert _sequence(5, 20) == _sequence(5, 20)
    assert _sequence(5, 20) != _sequence(6, 20)
