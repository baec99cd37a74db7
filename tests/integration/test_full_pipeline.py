"""End-to-end pipeline: every layer of the repository in one flow.

corpus → pattern extraction → automaton → persistence round-trip →
all matcher families → GPU kernels → experiment cell → figure table →
chart rendering.  If this passes, the public API composes.
"""

import io

import pytest

from repro import Matcher
from repro.analysis import event_report, figure_chart, trend_summary
from repro.bench import ExperimentRunner, run_figure
from repro.compress import BandedSTT, BitmapDeltaSTT
from repro.core import (
    DFA,
    AhoCorasickAutomaton,
    DoubleArrayAC,
    load_dfa,
    match_serial,
    save_dfa,
    scan_stream,
    validate_dfa,
)
from repro.core.compact import CompactSTT
from repro.gpu import Device
from repro.kernels import (
    run_global_kernel,
    run_multi_gpu,
    run_pfac_kernel,
    run_shared_kernel,
)
from repro.workload import DatasetFactory, extract_patterns


@pytest.fixture(scope="module")
def pipeline():
    factory = DatasetFactory(scale=0.001, seed=77)
    text = factory.corpus.generate(300_000, stream_seed=1)
    patterns = extract_patterns(text, 300, seed=2)
    ac = AhoCorasickAutomaton.build(patterns)
    dfa = DFA.from_automaton(ac)
    return factory, text, patterns, ac, dfa


class TestFullPipeline:
    def test_phase1_artifacts_validate(self, pipeline):
        _, _, _, ac, dfa = pipeline
        assert validate_dfa(dfa) == []
        buf = io.BytesIO()
        save_dfa(dfa, buf)
        loaded = load_dfa(io.BytesIO(buf.getvalue()))
        assert loaded.stt == dfa.stt

    def test_all_matcher_families_agree(self, pipeline):
        _, text, patterns, ac, dfa = pipeline
        sample = text[:50_000]
        reference = match_serial(dfa, sample)
        assert len(reference) > 50

        assert DoubleArrayAC.from_automaton(ac).match(sample) == reference
        assert scan_stream(
            dfa, (sample[i : i + 7777] for i in range(0, len(sample), 7777))
        ) == reference
        assert run_global_kernel(dfa, sample, Device()).matches == reference
        assert run_shared_kernel(dfa, sample, Device()).matches == reference
        assert run_pfac_kernel(dfa, sample, Device()).matches == reference
        assert run_multi_gpu(dfa, sample, 3).matches == reference

    def test_all_compressed_forms_exact(self, pipeline):
        _, _, _, ac, dfa = pipeline
        assert BandedSTT.from_stt(dfa.stt).verify_against(dfa.stt)
        assert CompactSTT.from_dfa(dfa).verify_against(dfa)
        assert BitmapDeltaSTT.from_automaton(ac).verify_against(dfa, sample=800)

    def test_matcher_api_over_same_dictionary(self, pipeline):
        _, text, patterns, _, dfa = pipeline
        m = Matcher.from_dfa(dfa)
        sample = bytes(text[:20_000])
        hits = m.findall(sample)
        assert len(hits) == len(match_serial(dfa, sample))
        first = m.find_first(sample)
        assert first == min(hits)

    def test_figure_generation_and_rendering(self, pipeline):
        runner = ExperimentRunner(scale=0.001, seed=77)
        table = run_figure("fig22", runner, ["50KB"], [100])
        assert table.min_value() > 1.0
        assert "fig22" in figure_chart(table)
        assert "trends" in trend_summary(table)

    def test_event_report_on_pipeline_kernel(self, pipeline):
        _, text, _, _, dfa = pipeline
        r = run_shared_kernel(dfa, text[:50_000], Device())
        report = event_report(r)
        assert "cycle split" in report and "Gbps" in report
