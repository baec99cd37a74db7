"""Tests for the high-level Matcher API."""

import pytest

from repro.errors import ReproError
from repro.matcher import BACKENDS, Matcher

PAPER = ["he", "she", "his", "hers"]


class TestConstruction:
    def test_from_strings(self):
        m = Matcher(PAPER)
        assert m.n_patterns == 4
        assert m.n_states == 10

    def test_from_pattern_set(self, paper_patterns):
        assert Matcher(paper_patterns).n_patterns == 4

    def test_unknown_backend(self):
        with pytest.raises(ReproError, match="backend"):
            Matcher(PAPER, backend="quantum")

    def test_pattern_lookup(self):
        m = Matcher(PAPER)
        assert m.pattern(3) == "hers"
        assert m.pattern(3, as_text=False) == b"hers"


class TestScanning:
    def test_doc_example(self):
        m = Matcher(PAPER)
        assert m.count("ushers") == 3
        triples = [(m.pattern(p), s, e) for s, e, p in m.finditer("ushers")]
        assert triples == [("she", 1, 4), ("he", 2, 4), ("hers", 2, 6)]

    def test_findall_slicing_contract(self):
        m = Matcher(PAPER)
        text = "ushers"
        for s, e, pid in m.findall(text):
            assert text[s:e] == m.pattern(pid)

    def test_contains_any(self):
        m = Matcher(PAPER)
        assert m.contains_any("xxshexx")
        assert not m.contains_any("zzz")

    def test_count_by_pattern(self):
        m = Matcher(PAPER)
        assert m.count_by_pattern("ushers hers") == [2, 1, 0, 2]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend):
        m = Matcher(PAPER, backend=backend)
        assert m.findall("she sells hers usher his") == Matcher(
            PAPER
        ).findall("she sells hers usher his")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("empty", ["", b"", bytearray()])
    def test_empty_text_matches_nothing(self, backend, empty):
        m = Matcher(PAPER, backend=backend)
        assert len(m.scan(empty)) == 0
        assert m.findall(empty) == []
        assert m.count(empty) == 0
        assert m.find_first(empty) is None
        assert m.stream().feed(empty) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "patterns, text, case_insensitive",
        [
            (PAPER, "h", False),  # 1 byte, a pattern prefix
            (PAPER, "s", False),
            (["hers"], "her", False),  # shorter than the pattern
            ([b"\x00", b"\x00\x00a"], b"\x00", False),  # NUL dictionary
            ([b"\x00", b"\x00\x00a"], b"x\x00\x00a\x00", False),
            (PAPER, "SHE he", True),
            (["he", "She"], "S", True),
        ],
        ids=[
            "1byte", "1byte-nomatch", "short", "nul-1byte", "nul", "ci",
            "ci-1byte",
        ],
    )
    def test_degenerate_inputs_agree(
        self, backend, patterns, text, case_insensitive
    ):
        """findall, find_first and stream() agree with the serial scan."""
        m = Matcher(patterns, backend=backend, case_insensitive=case_insensitive)
        want = Matcher(patterns, case_insensitive=case_insensitive).findall(text)
        assert m.findall(text) == want
        assert m.find_first(text) == min(want, default=None)
        assert sorted(m.stream().feed(text)) == m.scan(text).as_pairs()

    def test_serial_mt_workers_thread_through(self):
        # Long enough to split into real slabs at every worker count.
        text = "she sells hers usher his " * 200
        expected = Matcher(PAPER).findall(text)
        for w in (1, 2, 4):
            mt = Matcher(PAPER, backend="serial_mt", workers=w)
            assert mt.workers == w
            assert mt.findall(text) == expected

    def test_gpu_timing_access(self):
        m = Matcher(PAPER, backend="gpu")
        r = m.scan_with_timing(b"ushers " * 500)
        assert r.seconds > 0 and len(r.matches) == 1500

    def test_timing_requires_gpu_backend(self):
        with pytest.raises(ReproError, match="gpu"):
            Matcher(PAPER).scan_with_timing("x")

    def test_bytes_and_str_inputs(self):
        m = Matcher(PAPER)
        assert m.count(b"ushers") == m.count("ushers")


class TestCaseInsensitive:
    def test_folded_matching(self):
        m = Matcher(["Admin", "SELECT"], case_insensitive=True)
        assert m.count("GET /aDmIn?q=select * from t") == 2

    def test_case_sensitive_default(self):
        m = Matcher(["Admin"])
        assert m.count("admin ADMIN") == 0
        assert m.count("Admin") == 1

    def test_colliding_patterns_merge(self):
        m = Matcher(["He", "he"], case_insensitive=True)
        assert m.n_patterns == 1
        assert m.count("tHe") == 1

    def test_bytes_input_folded(self):
        m = Matcher([b"virus"], case_insensitive=True)
        assert m.contains_any(b"VIRUS PAYLOAD")

    def test_non_ascii_bytes_unaffected(self):
        m = Matcher([bytes([0xC0, 0xDE])], case_insensitive=True)
        assert m.contains_any(bytes([1, 0xC0, 0xDE, 2]))

    def test_ndarray_input_folded(self):
        import numpy as np

        m = Matcher(["abc"], case_insensitive=True)
        arr = np.frombuffer(b"xxABCxx", dtype=np.uint8)
        assert m.count(arr) == 1
        # The caller's array is untouched (fold copies).
        assert bytes(arr) == b"xxABCxx"

    def test_stream_folds_like_scan(self):
        # Regression: stream() skipped the case fold, so feeds found 1
        # of the 3 matches findall reports.
        m = Matcher(["he", "She"], case_insensitive=True)
        assert len(m.findall("SHE he")) == 3
        assert sorted(m.stream().feed("SHE he")) == m.scan("SHE he").as_pairs()
        # Feeds large enough for the tiled path fold too.
        big = b"SHE hE " * 300
        s = m.stream()
        got = s.feed(big[:1500]) + s.feed(big[1500:])
        assert sorted(got) == m.scan(big).as_pairs()
        assert len(got) == 900

    def test_all_scan_paths_byte_exact(self):
        # Regression: scan_with_timing skipped the case fold, so a
        # case-insensitive GPU matcher silently missed uppercase
        # matches on the timing path only.
        text = b"He said SHE saw HIS and HERS in USHERS"
        oracle = Matcher(PAPER, backend="serial", case_insensitive=True)
        expected = oracle.scan(text)
        assert len(expected) > 0
        gpu = Matcher(PAPER, backend="gpu", case_insensitive=True)
        assert gpu.scan(text) == expected
        assert gpu.scan_with_timing(text).matches == expected
        assert gpu.scan(text, resilient=True) == expected


class TestStreamAndHighlight:
    def test_stream_shares_dictionary(self):
        m = Matcher(PAPER)
        s = m.stream()
        assert s.feed(b"ush") == []
        assert len(s.feed(b"ers")) == 3

    def test_highlight_basic(self):
        m = Matcher(["he"])
        assert m.highlight("the cat") == "t[he] cat"

    def test_highlight_merges_overlaps(self):
        m = Matcher(PAPER)
        assert m.highlight("ushers") == "u[shers]"

    def test_highlight_no_match(self):
        assert Matcher(PAPER).highlight("zzz") == "zzz"

    def test_highlight_custom_marks(self):
        m = Matcher(["he"])
        assert m.highlight("he", open_mark="<", close_mark=">") == "<he>"


class TestFindFirst:
    def test_basic(self):
        m = Matcher(PAPER)
        assert m.find_first("xx ushers") == (4, 7, 1)  # she at [4,7)

    def test_none_when_absent(self):
        assert Matcher(PAPER).find_first("zzzz") is None

    def test_early_exit_does_not_scan_tail(self):
        # A hit in the first chunk returns without touching the rest;
        # verified indirectly: a huge tail adds no failures and the
        # reported hit is the global first.
        m = Matcher(["needle"])
        text = b"needle" + b"x" * (1 << 20)
        assert m.find_first(text, chunk=4096) == (0, 6, 0)

    def test_first_is_global_minimum_across_chunks(self):
        m = Matcher(PAPER)
        text = b"z" * 5000 + b"hers" + b"z" * 5000 + b"she"
        start, end, pid = m.find_first(text, chunk=512)
        # "he" and "hers" both start at 5000; shorter end wins the tie.
        assert (start, end) == (5000, 5002)
        assert m.pattern(pid) == "he"

    def test_straddling_earlier_start_wins(self):
        # "sh|e" split by the chunk boundary: "she" (start 0) completes
        # in chunk 2, after "he" (start 1) has already been... actually
        # both report in chunk 2; use a dictionary where the in-chunk
        # hit reports first but a longer straddler starts earlier.
        m = Matcher(["bc", "abcd"])
        text = b"abc" + b"d"  # chunk=3 splits abcd
        hit = m.find_first(text, chunk=3)
        # bc [1,3) reports in chunk 1; abcd [0,4) completes in chunk 2
        # and starts earlier — it must win.
        assert hit == (0, 4, 1)

    def test_respects_case_folding(self):
        m = Matcher(["admin"], case_insensitive=True)
        assert m.find_first(b"GET /ADMIN") == (5, 10, 0)

    def test_drain_limit_tightens_on_earlier_start(self, monkeypatch):
        # Regression: when the drain surfaced an earlier-starting
        # match, the stop position stayed derived from the stale best
        # and the scan kept feeding chunks past the now-final answer.
        from repro.core.streaming import StreamMatcher

        feeds = []
        real_feed = StreamMatcher.feed

        def counting_feed(self, data):
            feeds.append(len(data))
            return real_feed(self, data)

        monkeypatch.setattr(StreamMatcher, "feed", counting_feed)
        long = "m" * 10 + "cdm"  # starts at 0, ends at 13
        m = Matcher([long, "cd"])
        text = long + "z" * 50
        # chunk=4: "cd" (start 10) reports first; the drain then
        # surfaces the full 13-char pattern (start 0), which tightens
        # the drain limit from 23 to 13 and stops the scan at pos 16.
        assert m.find_first(text, chunk=4) == (0, 13, 0)
        assert len(feeds) == 4  # stale-limit bug needed 6


class TestScanPackets:
    def test_per_packet_verdicts(self):
        from repro.workload.packets import generate_stream

        attacks = [b"GET /admin HTTP/1.1\r\n\r\n"]
        stream = generate_stream(300, attacks, attack_rate=0.1, seed=3)
        m = Matcher(["/admin"])
        verdicts = m.scan_packets(stream)
        assert set(verdicts) == set(stream.attack_packet_indices)
        # Packet-local positions slice back to the pattern.
        for pkt, hits in verdicts.items():
            payload = stream.packet(pkt)
            for s, e, pid in hits:
                assert payload[s:e] == b"/admin"

    def test_boundary_straddling_hits_dropped(self):
        from repro.workload.packets import PacketStream
        import numpy as np

        # Two packets: "...ab" + "cd...": pattern abcd spans them and
        # must NOT be reported (payloads are independent).
        payload = b"xxab" + b"cdyy"
        stream = PacketStream(
            payload=payload,
            offsets=np.array([0, 4, 8], dtype=np.int64),
            attack_labels=(False, False),
        )
        m = Matcher(["abcd"])
        assert m.scan_packets(stream) == {}


class TestFindFirstProperty:
    def test_property_find_first_equals_min_of_findall(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            st.text(alphabet="hers u", min_size=0, max_size=300),
            st.integers(min_value=1, max_value=64),
        )
        def check(text, chunk):
            m = Matcher(PAPER)
            expected = min(m.findall(text), default=None)
            assert m.find_first(text, chunk=chunk) == expected

        check()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_property_entry_points_agree(self, backend):
        """find_first == min(findall) and split stream() feeds == scan,
        on every backend, folded or not, across the tiled feed size."""
        from hypothesis import given, settings, strategies as st

        matchers = {
            ci: Matcher(PAPER, backend=backend, case_insensitive=ci)
            for ci in (False, True)
        }

        @settings(max_examples=25, deadline=None)
        @given(
            st.text(alphabet="hers uHIS", min_size=0, max_size=200),
            st.sampled_from([1, 8]),
            st.lists(st.integers(min_value=0, max_value=1600), max_size=5),
            st.booleans(),
        )
        def check(text, reps, cuts, ci):
            m = matchers[ci]
            text = text * reps
            assert m.find_first(text) == min(m.findall(text), default=None)
            n = len(text)
            bounds = sorted({min(c, n) for c in cuts} | {0, n})
            stream = m.stream()
            pairs = []
            for lo, hi in zip(bounds, bounds[1:]):
                pairs.extend(stream.feed(text[lo:hi]))
            assert sorted(pairs) == m.scan(text).as_pairs()

        check()


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        m = Matcher(PAPER)
        path = str(tmp_path / "m.dfa")
        m.save(path)
        loaded = Matcher.load(path)
        assert loaded.findall("ushers") == m.findall("ushers")

    def test_load_with_double_array_backend(self, tmp_path):
        m = Matcher(PAPER)
        path = str(tmp_path / "m.dfa")
        m.save(path)
        loaded = Matcher.load(path, backend="double_array")
        assert loaded.count("ushers") == 3

    def test_from_dfa_backend_validation(self, paper_dfa):
        with pytest.raises(ReproError):
            Matcher.from_dfa(paper_dfa, backend="nope")
