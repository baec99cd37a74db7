"""Tests for the serial CPU timing model."""

import numpy as np
import pytest

from repro.bench.cpu_model import CpuConfig, serial_cost_from_trace
from repro.errors import ExperimentError

from tests.conftest import lockstep_oracle


def trace_for(dfa, text: bytes):
    _, windows, trace = lockstep_oracle(dfa, text, 4096)
    return trace, windows


class TestSerialCost:
    def test_base_cost_when_stt_fits(self, paper_dfa):
        # A 10-state STT always fits L2: cycles/byte == base.
        trace, windows = trace_for(paper_dfa, b"she sells seashells " * 200)
        cpu = CpuConfig()
        cost = serial_cost_from_trace(paper_dfa, trace, windows, 10**6, cpu)
        assert cost.line_miss_rate == pytest.approx(0.0)
        assert cost.cycles_per_byte == pytest.approx(cpu.base_cycles_per_byte)

    def test_seconds_formula(self, paper_dfa):
        trace, windows = trace_for(paper_dfa, b"x" * 4000)
        cpu = CpuConfig()
        cost = serial_cost_from_trace(paper_dfa, trace, windows, 2_000_000, cpu)
        expected = 2_000_000 * cpu.base_cycles_per_byte / cpu.clock_hz
        assert cost.seconds == pytest.approx(expected)

    def test_throughput_unit(self, paper_dfa):
        trace, windows = trace_for(paper_dfa, b"x" * 4000)
        cost = serial_cost_from_trace(paper_dfa, trace, windows, 10**6)
        assert cost.throughput_gbps == pytest.approx(
            10**6 * 8 / cost.seconds / 1e9
        )

    def test_tiny_l2_forces_misses(self, english_dfa):
        trace, windows = trace_for(
            english_dfa, b"they say that she will make all of this " * 100
        )
        tiny = CpuConfig(l2_bytes=256)  # 4 lines only
        cost = serial_cost_from_trace(english_dfa, trace, windows, 10**6, tiny)
        assert cost.line_miss_rate > 0.2
        assert cost.cycles_per_byte > tiny.base_cycles_per_byte

    def test_miss_rate_monotone_in_l2_size(self, english_dfa):
        trace, windows = trace_for(
            english_dfa, b"what would they say about all of that " * 100
        )
        rates = [
            serial_cost_from_trace(
                english_dfa, trace, windows, 10**6, CpuConfig(l2_bytes=size)
            ).line_miss_rate
            for size in (256, 4096, 4 * 1024 * 1024)
        ]
        assert rates[0] >= rates[1] >= rates[2]

    def test_invalid_paper_bytes(self, paper_dfa):
        trace, windows = trace_for(paper_dfa, b"abc")
        with pytest.raises(ExperimentError):
            serial_cost_from_trace(paper_dfa, trace, windows, 0)


class TestMulticore:
    def base(self, paper_dfa):
        trace, windows = trace_for(paper_dfa, b"hers " * 200)
        return serial_cost_from_trace(paper_dfa, trace, windows, 10**6)

    def test_four_cores_sublinear(self, paper_dfa):
        from repro.bench.cpu_model import multicore_cost

        serial = self.base(paper_dfa)
        mt = multicore_cost(serial)
        cpu = CpuConfig()
        assert mt.seconds == pytest.approx(
            serial.seconds / (cpu.n_cores * cpu.multicore_efficiency)
        )
        assert mt.seconds < serial.seconds
        assert mt.seconds > serial.seconds / cpu.n_cores  # sublinear

    def test_one_core_is_identity(self, paper_dfa):
        from repro.bench.cpu_model import multicore_cost

        serial = self.base(paper_dfa)
        assert multicore_cost(serial, n_cores=1).seconds == serial.seconds

    def test_invalid_cores(self, paper_dfa):
        from repro.bench.cpu_model import multicore_cost

        with pytest.raises(ExperimentError):
            multicore_cost(self.base(paper_dfa), n_cores=-1)

    def test_speedup_continuous_and_monotone(self):
        from repro.bench.cpu_model import multicore_speedup

        cpu = CpuConfig()
        curve = [multicore_speedup(c, cpu) for c in range(1, 17)]
        assert curve[0] == pytest.approx(1.0)
        # No discontinuous jump at 1 -> 2 (the old curve leapt from
        # 1.0 straight to 1.6): the first step stays below the ideal
        # +1.0 increment.
        assert curve[1] - curve[0] < 1.0
        # Strictly monotone increasing for a sane efficiency config...
        assert all(b > a for a, b in zip(curve, curve[1:]))
        # ...with monotonically decreasing per-core efficiency.
        eff = [s / c for c, s in enumerate(curve, start=1)]
        assert all(b < a for a, b in zip(eff, eff[1:]))
        # Never super-linear.
        assert all(s <= c for c, s in enumerate(curve, start=1))

    def test_speedup_calibrated_at_chip_size(self):
        from repro.bench.cpu_model import multicore_speedup

        for n, e in [(4, 0.8), (8, 0.7), (2, 0.95)]:
            cpu = CpuConfig(n_cores=n, multicore_efficiency=e)
            assert multicore_speedup(n, cpu) == pytest.approx(n * e)

    def test_no_silent_clamp_reports_subserial(self, paper_dfa):
        # Contention-dominated config (efficiency below 1/n_cores):
        # the old code clamped this to 1.0; the model now honestly
        # reports a slowdown.
        from repro.bench.cpu_model import multicore_cost, multicore_speedup

        cpu = CpuConfig(n_cores=4, multicore_efficiency=0.2)
        assert multicore_speedup(4, cpu) == pytest.approx(0.8)
        serial = self.base(paper_dfa)
        mt = multicore_cost(serial, cpu)
        assert mt.seconds > serial.seconds

    def test_cost_carries_core_count(self, paper_dfa):
        from repro.bench.cpu_model import multicore_cost

        serial = self.base(paper_dfa)
        assert serial.cores == 1
        assert multicore_cost(serial).cores == CpuConfig().n_cores
        assert multicore_cost(serial, n_cores=2).cores == 2

    def test_invalid_efficiency(self):
        from repro.bench.cpu_model import multicore_speedup

        with pytest.raises(ExperimentError):
            multicore_speedup(2, CpuConfig(multicore_efficiency=0.0))

    @pytest.mark.skipif(
        __import__("os").cpu_count() < 2,
        reason="model-vs-measured needs >= 2 cores",
    )
    def test_model_within_tolerance_of_measured(self, english_dfa, rng):
        # The contention curve must track real measured thread-pool
        # speedups on this host: calibrate the model to the host core
        # count and require agreement within +/-50% relative — wide
        # enough for scheduler noise, tight enough to catch the old
        # discontinuous curve (which claimed 1.6x on 2 cores where a
        # GIL-bound run measured ~1.0x would flunk it the other way).
        import os

        from tests.conftest import random_text
        from repro.bench.cpu_model import multicore_speedup
        from repro.core.multicore import measure_multicore

        host = os.cpu_count()
        workers = min(host, 4)
        cpu = CpuConfig(n_cores=host, multicore_efficiency=0.8)
        modeled = multicore_speedup(workers, cpu)
        meas = measure_multicore(
            english_dfa, random_text(rng, 8 * 2**20), workers=workers, repeats=3
        )
        ratio = meas.speedup / modeled
        assert 0.5 <= ratio <= 1.5, (
            f"modeled {modeled:.2f}x vs measured {meas.describe()}"
        )

    def test_runner_integration(self):
        from repro.bench.runner import ExperimentRunner

        r = ExperimentRunner(scale=0.001, seed=9)
        cell = r.run_cell("50KB", 100, kernels=("serial", "serial_mt", "shared"))
        assert cell.seconds("serial_mt") < cell.seconds("serial")
        # The GPU still beats the 4-core chip (the paper's larger point).
        assert cell.seconds("shared") < cell.seconds("serial_mt")
