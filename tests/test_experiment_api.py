"""The declarative experiment surface: configs, sweeps, reports, CLI."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    DEFAULT_SEEDS,
    ExperimentConfig,
    ExperimentReport,
    RunReport,
    Session,
    SweepReport,
    SweepSpec,
    TrainConfig,
    resolve_view,
)
from repro.cli import main as cli_main
from repro.datasets import load_dataset
from repro.training import Trainer
from repro.training.experiment import _repeated_impl

QUICK = ExperimentConfig(seeds=(0, 1), train=TrainConfig(epochs=4, patience=4))


def _stats_key(report):
    """Everything except wall-clock timings, for bit-identity comparisons."""
    return [
        (
            cell.model, cell.dataset, cell.variant,
            cell.test_mean, cell.test_std, cell.val_mean, cell.val_std,
            tuple((run.seed, run.test_accuracy, run.val_accuracy) for run in cell.runs),
        )
        for cell in report.cells
    ]


class TestExperimentConfig:
    def test_default_seed_protocol_is_ten_trials(self):
        assert ExperimentConfig().seeds == tuple(range(10)) == DEFAULT_SEEDS

    def test_validation(self):
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig(seeds=(0, 0))
        with pytest.raises(ValueError, match="max_workers"):
            ExperimentConfig(max_workers=0)
        with pytest.raises(TypeError, match="TrainConfig"):
            ExperimentConfig(train=Trainer())

    def test_quick_protocol(self):
        quick = ExperimentConfig(train=TrainConfig(epochs=300, patience=50)).quick()
        assert quick.seeds == (0,)
        assert quick.train.epochs == 40 and quick.train.patience == 10

    def test_dict_round_trip(self):
        config = ExperimentConfig(
            seeds=(3, 1), train=TrainConfig(epochs=7), model_kwargs={"hidden": 8},
            max_workers=2,
        )
        assert ExperimentConfig.from_dict(config.as_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="trainer"):
            ExperimentConfig.from_dict({"trainer": {}})


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="models"):
            SweepSpec(models=(), datasets=("texas",))
        with pytest.raises(KeyError, match="NotAModel"):
            SweepSpec(models=("NotAModel",), datasets=("texas",))
        with pytest.raises(KeyError, match="atlantis"):
            SweepSpec(models=("MLP",), datasets=("atlantis",))
        with pytest.raises(ValueError, match="view"):
            SweepSpec(models=("MLP",), datasets=("texas",), view="sideways")

    def test_unconstructible_kwargs_fail_at_spec_build(self):
        # SGC takes no `hidden`; a bad grid must die here, not mid-sweep.
        with pytest.raises(ValueError, match="SGC does not accept"):
            SweepSpec(
                models=("MLP", "SGC"), datasets=("texas",),
                variants={"wide": {"hidden": 32}},
            )
        with pytest.raises(ValueError, match="hiddenn"):
            SweepSpec(
                models=("MLP",), datasets=("texas",),
                model_kwargs={"MLP": {"hiddenn": 8}},
            )

    def test_cells_follow_canonical_order(self):
        spec = SweepSpec(
            models=("MLP", "SGC"), datasets=("texas", "cornell"),
            variants={"a": {}, "b": {}},
        )
        cells = spec.cells()
        assert cells[0] == ("texas", "MLP", "a")
        assert cells[-1] == ("cornell", "SGC", "b")
        assert len(cells) == 8

    def test_kwargs_precedence(self):
        spec = SweepSpec(
            models=("MLP",), datasets=("texas",),
            config=ExperimentConfig(model_kwargs={"hidden": 8, "dropout": 0.1}),
            model_kwargs={"MLP": {"hidden": 16}},
            variants={"deep": {"hidden": 32}},
        )
        assert spec.kwargs_for("MLP", "deep") == {"hidden": 32, "dropout": 0.1}

    def test_dict_round_trip(self):
        spec = SweepSpec(
            models=("MLP",), datasets=("texas",), view="undirected",
            config=QUICK, variants={"v": {"hidden": 8}}, dataset_seed=3,
        )
        assert SweepSpec.from_dict(spec.as_dict()) == spec

    def test_from_file_json_with_shortcuts(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "models": ["MLP"], "datasets": ["texas"],
            "seeds": [0, 1], "train": {"epochs": 5, "patience": 5},
        }))
        spec = SweepSpec.from_file(path)
        assert spec.config.seeds == (0, 1)
        assert spec.config.train.epochs == 5

    def test_from_file_toml(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            'models = ["MLP"]\ndatasets = ["texas"]\nseeds = [0]\n'
            '[train]\nepochs = 5\npatience = 5\n'
        )
        spec = SweepSpec.from_file(path)
        assert spec.models == ("MLP",) and spec.config.seeds == (0,)


class TestResolveView:
    def test_natural_and_undirected(self, heterophilous_graph):
        assert resolve_view("MLP", heterophilous_graph, "natural") is heterophilous_graph
        undirected = resolve_view("MLP", heterophilous_graph, "undirected")
        assert (undirected.adjacency != undirected.adjacency.T).nnz == 0

    def test_paper_protocol(self):
        graph = load_dataset("chameleon", seed=0)
        # Undirected GNNs always get U-, directed GNNs always get D-.
        assert resolve_view("GCN", graph, "paper-directed") is not graph
        assert resolve_view("DirGNN", graph, "paper-undirected") is graph
        # The proposed model follows the table's AMUD outcome.
        assert resolve_view("ADPA", graph, "paper-directed") is graph
        assert resolve_view("ADPA", graph, "paper-undirected") is not graph

    def test_amud_view_uses_dataset_regime(self):
        directed = load_dataset("chameleon", seed=0)
        undirected = load_dataset("citeseer", seed=0)
        assert resolve_view("ADPA", directed, "amud") is directed
        resolved = resolve_view("ADPA", undirected, "amud")
        assert (resolved.adjacency != resolved.adjacency.T).nnz == 0

    def test_amud_view_falls_back_to_decision(self, heterophilous_graph):
        assert "amud_regime" not in heterophilous_graph.meta
        resolved = resolve_view("ADPA", heterophilous_graph, "amud")
        # The DSBM heterophilous fixture is strongly directional.
        assert resolved is heterophilous_graph


class TestFitRepeated:
    def test_aggregates_match_manual_runs(self):
        session = Session(train=TrainConfig(epochs=4, patience=4))
        report = session.load("texas").fit_repeated("MLP", seeds=(0, 1), hidden=8)
        manual = [
            session.load("texas").fit("MLP", seed=seed, hidden=8).test_accuracy
            for seed in (0, 1)
        ]
        assert report.test_mean == pytest.approx(float(np.mean(manual)))
        assert report.seeds == (0, 1)
        assert [run.test_accuracy for run in report.runs] == manual

    def test_defaults_to_paper_protocol_seeds(self):
        config = ExperimentConfig(train=TrainConfig(epochs=1, patience=1))
        report = Session().load("texas").fit_repeated("MLP", config=config, hidden=4)
        assert report.seeds == DEFAULT_SEEDS

    def test_follows_amud_guidance_without_model(self):
        report = Session(train=TrainConfig(epochs=2, patience=2)).load(
            "texas"
        ).fit_repeated(seeds=(0,), hidden=4, num_steps=1)
        assert report.model == "ADPA"

    def test_pinned_seed_kwarg_is_rejected(self):
        # A constructor 'seed' would collapse every trial to one run while
        # the report still lists distinct seeds; fail loudly instead.
        handle = Session(train=TrainConfig(epochs=2, patience=2)).load("texas")
        with pytest.raises(ValueError, match="seed"):
            handle.fit_repeated("MLP", seeds=(0, 1), seed=7, hidden=4)
        with pytest.raises(ValueError, match="seed"):
            SweepSpec(
                models=("MLP",), datasets=("texas",),
                model_kwargs={"MLP": {"seed": 7}},
            )

    def test_as_row_carries_val_stats_and_seeds(self):
        report = Session(train=TrainConfig(epochs=2, patience=2)).load(
            "texas"
        ).fit_repeated("MLP", seeds=(0, 1), hidden=4)
        row = report.as_row()
        assert row["seeds"] == [0, 1]
        assert 0.0 <= row["val_mean"] <= 1.0
        assert "val_std" in row and len(row["test_accuracies"]) == 2


class TestSessionExperiment:
    def test_parallel_is_bit_identical_to_serial(self):
        base = dict(models=("MLP", "SGC"), datasets=("texas", "cornell"))
        serial = Session().experiment(
            SweepSpec(config=QUICK.replace(max_workers=1), **base)
        )
        parallel = Session().experiment(
            SweepSpec(config=QUICK.replace(max_workers=4), **base)
        )
        assert _stats_key(serial) == _stats_key(parallel)

    def test_accepts_plain_mapping(self):
        report = Session().experiment({
            "models": ["MLP"], "datasets": ["texas"],
            "seeds": [0], "train": {"epochs": 2, "patience": 2},
        })
        assert report.cell("MLP", "texas").seeds == (0,)

    def test_mapping_without_train_inherits_session_config(self):
        session = Session(train=TrainConfig(epochs=3, patience=3))
        report = session.experiment({
            "models": ["MLP"], "datasets": ["texas"], "seeds": [0],
        })
        assert report.spec["config"]["train"]["epochs"] == 3
        assert all(run.epochs_run <= 3 for c in report.cells for run in c.runs)

    def test_dataset_names_are_case_insensitive(self):
        spec = SweepSpec(models=("MLP",), datasets=("Texas",), config=QUICK)
        assert spec.datasets == ("texas",)
        report = Session().experiment(spec)
        assert report.cell("MLP", "texas").dataset == "texas"

    def test_variants_sweep(self):
        spec = SweepSpec(
            models=("SGC",), datasets=("texas",), config=QUICK,
            variants={"k1": {"num_steps": 1}, "k2": {"num_steps": 2}},
        )
        report = Session().experiment(spec)
        assert len(report.cells) == 2
        assert report.cell("SGC", "texas", "k1") is not report.cell("SGC", "texas", "k2")
        with pytest.raises(KeyError):
            report.cell("SGC", "texas", "k3")

    def test_report_table_and_grouping(self):
        report = Session().experiment(
            SweepSpec(models=("MLP", "SGC"), datasets=("texas",), config=QUICK)
        )
        table = report.as_table()
        assert "MLP" in table and "texas" in table and "Rank" in table
        assert set(report.by_dataset()) == {"texas"}
        assert len(report.run_rows()) == 4  # 2 models x 2 seeds

    def test_report_json_round_trip_and_save(self, tmp_path):
        report = Session().experiment(
            SweepSpec(models=("MLP",), datasets=("texas",), config=QUICK)
        )
        assert SweepReport.from_json(report.to_json()).as_dict() == report.as_dict()
        path = report.save(tmp_path / "nested" / "report.json")
        reloaded = SweepReport.load(path)
        assert reloaded.spec["models"] == ["MLP"]
        assert reloaded.cell("MLP", "texas").runs == report.cell("MLP", "texas").runs

    def test_report_version_gate(self):
        with pytest.raises(ValueError, match="unsupported report version"):
            SweepReport.from_dict({"format_version": 99, "cells": []})


_finite = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def run_reports(draw, model=None, dataset=None, variant=None):
    return RunReport(
        model=model if model is not None else draw(st.text(min_size=1, max_size=8)),
        dataset=dataset if dataset is not None else draw(st.text(min_size=1, max_size=8)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        train_accuracy=draw(_finite),
        val_accuracy=draw(_finite),
        test_accuracy=draw(_finite),
        best_epoch=draw(st.integers(min_value=-1, max_value=10_000)),
        epochs_run=draw(st.integers(min_value=0, max_value=10_000)),
        variant=variant if variant is not None else draw(st.text(max_size=8)),
        fit_seconds=draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        preprocess_seconds=draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
    )


@st.composite
def experiment_reports(draw):
    model = draw(st.text(min_size=1, max_size=8))
    dataset = draw(st.text(min_size=1, max_size=8))
    variant = draw(st.text(max_size=8))
    runs = draw(
        st.lists(
            run_reports(model=model, dataset=dataset, variant=variant),
            min_size=1,
            max_size=5,
        )
    )
    return ExperimentReport.from_runs(runs)


class TestReportProperties:
    @settings(max_examples=50, deadline=None)
    @given(run_reports())
    def test_run_report_round_trips(self, run):
        assert RunReport.from_dict(json.loads(json.dumps(run.to_dict()))) == run

    @settings(max_examples=50, deadline=None)
    @given(experiment_reports())
    def test_experiment_report_round_trips(self, cell):
        assert ExperimentReport.from_dict(json.loads(json.dumps(cell.to_dict()))) == cell

    @settings(max_examples=25, deadline=None)
    @given(st.lists(experiment_reports(), max_size=4))
    def test_sweep_report_round_trips(self, cells):
        report = SweepReport(cells=tuple(cells), spec={"models": ["x"]})
        assert SweepReport.from_json(report.to_json()) == report

    @settings(max_examples=25, deadline=None)
    @given(experiment_reports())
    def test_aggregates_match_numpy(self, cell):
        values = np.asarray([run.test_accuracy for run in cell.runs])
        assert cell.test_mean == pytest.approx(float(values.mean()))
        assert cell.test_std == pytest.approx(float(values.std()))


class TestDeprecationShims:
    """The legacy ``ExperimentResult`` cell the old ``run_*`` helpers returned."""

    def test_legacy_as_row_carries_val_and_run_detail(
        self, homophilous_graph, fast_trainer
    ):
        result = _repeated_impl("MLP", homophilous_graph, (0,), fast_trainer, None)
        row = result.as_row()
        assert 0.0 <= row["val_mean"] <= 1.0
        assert row["test_accuracies"] == [round(result.runs[0].test_accuracy, 4)]


class TestExperimentCli:
    def _write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "models": ["MLP"], "datasets": ["texas"],
            "seeds": [0, 1], "train": {"epochs": 3, "patience": 3},
        }))
        return path

    def test_experiment_emits_table_and_report(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "report.json"
        assert cli_main(["experiment", str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "MLP" in captured and "texas" in captured
        report = SweepReport.load(out)
        assert report.cell("MLP", "texas").seeds == (0, 1)

    def test_experiment_quick_overrides_seeds(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "report.json"
        assert cli_main(["experiment", str(spec), "--quick", "--json", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out.split("report:")[0])
        assert SweepReport.from_dict(payload).cell("MLP", "texas").seeds == (0,)
        assert SweepReport.load(out).cells[0].seeds == (0,)

    def test_experiment_missing_spec_exits_2(self, tmp_path, capsys):
        assert cli_main(["experiment", str(tmp_path / "nope.json")]) == 2
        assert "cannot load experiment spec" in capsys.readouterr().err

    def test_experiment_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"models": ["MLP"], "datasets": ["texas"], "vieww": 1}))
        assert cli_main(["experiment", str(path)]) == 2
        assert "vieww" in capsys.readouterr().err

    def test_experiment_bad_train_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "models": ["MLP"], "datasets": ["texas"], "train": {"epoch": 60},
        }))
        assert cli_main(["experiment", str(path)]) == 2
        assert "epoch" in capsys.readouterr().err

    def test_experiment_bad_overrides_exit_2(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        assert cli_main(["experiment", str(spec), "--seeds", "0", "0"]) == 2
        assert "duplicate seeds" in capsys.readouterr().err
        assert cli_main(["experiment", str(spec), "--workers", "0"]) == 2
        assert "max_workers" in capsys.readouterr().err
