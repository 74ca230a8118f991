"""Fleet-grid contracts of the converted figure experiments.

The power-cap sweep (fig. 5c), the dynamic studies (fig. 8), and the
ablation matrix all execute as sharded fleet work units.  These tests
pin the contract the conversion must keep: sharded execution is
byte-identical to serial, a checkpoint file resumes the whole grid,
unit ids are fully qualified, and the grid cells reproduce the
single-run entry points.
"""

import pytest

from repro.experiments.ablations import (
    ABLATIONS,
    ablation_row,
    ablation_units,
    rows_from_cells,
    run_ablation_matrix,
)
from repro.experiments.fig5c_powercaps import (
    fig5c_units,
    run_fig5c,
)
from repro.experiments.fig8_dynamic import (
    fig8_units,
    run_fig8a,
    run_fig8_grid,
)

pytestmark = pytest.mark.filterwarnings("ignore")

FIG5C = dict(mix_indices=(0,), caps=(0.9, 0.5), n_slices=3)


class TestFig5cFleet:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_fig5c(**FIG5C)

    def test_jobs_matches_serial(self, serial):
        assert run_fig5c(jobs=2, **FIG5C) == serial

    def test_checkpoint_resumes_whole_sweep(self, tmp_path, serial):
        path = str(tmp_path / "fig5c.ckpt")
        assert run_fig5c(checkpoint=path, **FIG5C) == serial
        # Resuming executes nothing new and reproduces the result.
        assert run_fig5c(checkpoint=path, resume=True, **FIG5C) == serial

    def test_unit_ids_qualified_by_cap_and_mix(self):
        units = fig5c_units((0, 12), (0.9, 0.5), 3, 0.8, 7)
        ids = [u.unit_id for u in units]
        assert len(ids) == len(set(ids)) == 4
        assert "fig5c/c90/m0" in ids
        assert "fig5c/c50/m12" in ids


class TestFig8Fleet:
    def test_grid_matches_standalone_runner(self):
        traces = run_fig8_grid(scenarios=("a",), n_slices=4)
        assert traces["a"] == run_fig8a(n_slices=4)

    def test_jobs_and_checkpoint(self, tmp_path):
        path = str(tmp_path / "fig8.ckpt")
        serial = run_fig8_grid(scenarios=("a",), n_slices=4)
        sharded = run_fig8_grid(
            scenarios=("a",), n_slices=4, jobs=2, checkpoint=path,
        )
        assert sharded == serial
        resumed = run_fig8_grid(
            scenarios=("a",), n_slices=4, checkpoint=path, resume=True,
        )
        assert resumed == serial

    def test_unit_ids_cover_all_scenarios(self):
        units = fig8_units(("a", "b", "c"), 0, None, 7)
        assert [u.unit_id for u in units] == [
            "fig8/a/m0", "fig8/b/m0", "fig8/c/m0",
        ]


class TestAblationFleet:
    def test_matrix_units_cover_every_variant(self):
        units = ablation_units(0, 3, 7)
        ids = [u.unit_id for u in units]
        expected = sum(len(a.variants) for a in ABLATIONS.values())
        assert len(ids) == len(set(ids)) == expected
        assert "ablate/guards/off" in ids
        assert "ablate/dds-budget/120" in ids

    def test_matrix_rows_equal_declared_variant_rows(self):
        matrix = run_ablation_matrix(mix_index=0, n_slices=2, seed=7)
        assert list(matrix) == list(ABLATIONS)
        for ablation, declared in ABLATIONS.items():
            assert matrix[ablation] == tuple(
                ablation_row(ablation, value, 0, 2, 7)
                for value in declared.variants.values()
            ), ablation

    def test_rows_regroup_in_matrix_order(self):
        cells = [
            {"ablation": a, "variant": v, "label": f"{a}/{v}",
             "batch_instructions_b": 1.0, "qos_violations": 0,
             "power_violations": 0}
            for a, declared in ABLATIONS.items() for v in declared.variants
        ]
        rows = rows_from_cells(list(reversed(cells)))
        assert list(rows) == list(ABLATIONS)
        for ablation, declared in ABLATIONS.items():
            assert tuple(r.label for r in rows[ablation]) == tuple(
                f"{ablation}/{v}" for v in declared.variants
            )
