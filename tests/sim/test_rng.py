"""Tests for named random streams."""

from repro.sim.rng import RngStreams, _stable_key


class TestRngStreams:
    def test_same_seed_same_name_same_sequence(self):
        a = RngStreams(5).get("loss")
        b = RngStreams(5).get("loss")
        assert list(a.random(10)) == list(b.random(10))

    def test_different_names_independent(self):
        streams = RngStreams(5)
        a = streams.get("loss")
        b = streams.get("timers")
        assert list(a.random(10)) != list(b.random(10))

    def test_different_seeds_differ(self):
        a = RngStreams(5).get("loss")
        b = RngStreams(6).get("loss")
        assert list(a.random(10)) != list(b.random(10))

    def test_get_returns_same_object(self):
        streams = RngStreams(1)
        assert streams.get("x") is streams.get("x")

    def test_getitem_alias(self):
        streams = RngStreams(1)
        assert streams["x"] is streams.get("x")

    def test_consumption_does_not_affect_other_streams(self):
        """Drawing extra numbers from one stream leaves another stream's
        future identical — the pairing property the runner relies on."""
        s1 = RngStreams(9)
        s1.get("a").random(100)  # consume heavily
        tail1 = list(s1.get("b").random(5))
        s2 = RngStreams(9)
        tail2 = list(s2.get("b").random(5))
        assert tail1 == tail2

    def test_seed_property(self):
        assert RngStreams(77).seed == 77


class TestStableKey:
    def test_deterministic(self):
        assert _stable_key("loss") == _stable_key("loss")

    def test_distinct_for_distinct_names(self):
        names = ["loss", "timers", "topology", "tree", "loss:data", "srm-timers"]
        keys = {_stable_key(n) for n in names}
        assert len(keys) == len(names)

    def test_fits_in_64_bits(self):
        assert 0 <= _stable_key("anything at all") < 2**64

