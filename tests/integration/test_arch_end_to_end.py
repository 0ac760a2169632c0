"""The acceptance path of the architecture subsystem, end to end.

One shipped GQA+MoE ``ArchSpec`` JSON must build, evaluate under the
paper strategy plus baselines, serve through a fleet, and appear as a
DSE axis — all declaratively, without any layer special-casing it.
"""

from __future__ import annotations

from repro.api import Session
from repro.arch.zoo import SHIPPED_DIR
from repro.dse.space import ChoiceAxis, SearchSpace
from repro.graph.workload import InferenceMode, Workload
from repro.hw.presets import get_platform_preset
from repro.spec import loads

GQA_MOE_JSON = SHIPPED_DIR / "gqa_moe_tiny.json"


def _workload():
    config = loads(GQA_MOE_JSON.read_text()).build()
    return Workload(
        config=config, mode=InferenceMode.AUTOREGRESSIVE, seq_len=128
    )


class TestCommittedGqaMoeDecoder:
    def test_evaluates_under_paper_and_baseline_strategies(self):
        session = Session(memoize=False)
        platform = get_platform_preset("siracusa-mipi").build(num_chips=4)
        reports = {
            strategy: session.run(
                _workload(), platform=platform, strategy=strategy
            )
            for strategy in ("paper", "single_chip", "tensor_parallel")
        }
        for result in reports.values():
            assert result.block_cycles > 0
            assert result.block_energy_joules > 0
        # Distributing a streamed-weight MoE block must beat one chip.
        assert (
            reports["paper"].block_cycles
            < reports["single_chip"].block_cycles
        )

    def test_serves_through_a_fleet(self):
        from repro.serving import PoissonTrace

        session = Session(memoize=False)
        report = session.serve_fleet(
            _workload().config,
            PoissonTrace(rate_rps=2.0, duration_s=10.0),
            platforms=["siracusa-mipi:4x2"],
            seed=0,
        )
        assert report.result.completed > 0

    def test_appears_as_a_dse_axis(self):
        session = Session(memoize=False)
        space = SearchSpace(
            axes=(
                ChoiceAxis("chips", (2, 4)),
                ChoiceAxis("model", ("gqa-moe-tiny", "tinyllama-42m")),
                ChoiceAxis("strategy", ("paper",)),
            )
        )
        result = session.tune(
            _workload(),
            space=space,
            searcher="grid",
            budget=4,
            objectives=("latency", "energy"),
        )
        models = {
            dict(candidate.point).get("model")
            for candidate in result.candidates
        }
        assert models == {"gqa-moe-tiny", "tinyllama-42m"}
        assert any(candidate.feasible for candidate in result.candidates)
