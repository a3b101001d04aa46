import csv
import json

import numpy as np
import pytest

from amplab import cli
from amplab import tensor_net as tn
from amplab.cli import main
from amplab.harness import CSV_HEADER

TINY_LOCAL = {"experiment": "fig1_local", "seeds": [1], "M": 4, "N": 4, "n": 16, "m": 12,
              "iterations": 2, "ensembles": ["gaussian", "rademacher"], "se_draws": 2}


def _config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_run_amp_writes_records_and_summary(tmp_path):
    out = tmp_path / "out"
    code = main(["run-amp", "--config", _config(tmp_path, TINY_LOCAL), "--out", str(out),
                 "--seed", "5"])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "results_summary.json"]
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + 2 * 1 * 2  # ensembles x seeds x iterations
    assert {row[2] for row in rows[1:]} == {"5"}
    summary = _json(out / "results_summary.json")
    assert set(summary) == {"config", "se_predicted", "sigma_sq", "omega_sq", "ensembles"}
    assert summary["config"]["seeds"] == [5]
    assert set(summary["ensembles"]) == {"gaussian", "rademacher"}


def test_run_amp_json_format_writes_summary_only(tmp_path):
    code = main(["run-amp", "--config", _config(tmp_path, TINY_LOCAL), "--out", str(tmp_path / "o"),
                 "--format", "json"])
    assert code == 0
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["results_summary.json"]


def test_state_evolution_maps_the_experiment_to_its_pipeline(tmp_path):
    code = main(["state-evolution", "--config", _config(tmp_path, TINY_LOCAL),
                 "--out", str(tmp_path)])
    assert code == 0
    summary = _json(tmp_path / "state_evolution_summary.json")
    assert set(summary) == {"config", "se_predicted", "sigma_sq", "omega_sq"}
    assert summary["config"]["experiment"] == "fig1_local"
    assert "pipeline" not in summary["config"]
    assert len(summary["se_predicted"]) == TINY_LOCAL["iterations"]


@pytest.mark.parametrize("config_out, flag_out, written_to", [
    ("from_config", None, "from_config"),  # the config's out applies
    ("from_config", "from_flag", "from_flag"),  # --out overrides it
    (None, None, "."),  # neither: the working directory
])
def test_out_directory_precedence(tmp_path, monkeypatch, config_out, flag_out, written_to):
    monkeypatch.chdir(tmp_path)
    data = TINY_LOCAL if config_out is None else dict(TINY_LOCAL, out=config_out)
    argv = ["state-evolution", "--config", _config(tmp_path, data)]
    assert main(argv + ([] if flag_out is None else ["--out", flag_out])) == 0
    summary = _json(tmp_path / written_to / "state_evolution_summary.json")
    assert summary["config"]["out"] == written_to
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {"config.json", "state_evolution_summary.json" if written_to == "." else written_to})


def test_state_evolution_on_a_tensor_config_is_a_config_error(tmp_path, capsys):
    config = _config(tmp_path, {"experiment": "tensor_checks", "seeds": []})
    code = main(["state-evolution", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: experiment: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_universality_writes_the_comparison_table(tmp_path):
    code = main(["universality", "--config", _config(tmp_path, TINY_LOCAL),
                 "--out", str(tmp_path)])
    assert code == 0
    table = _json(tmp_path / "universality_summary.json")
    assert set(table) == {"mean_mse", "se_predicted", "pairwise_relative_gap",
                          "se_relative_gap", "summary"}
    assert set(table["pairwise_relative_gap"]) == {"gaussian|rademacher"}


@pytest.mark.parametrize("command", ["run-amp", "state-evolution", "universality"])
def test_missing_config_exits_2_with_an_error(tmp_path, capsys, command):
    assert main([command, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --config: is required for {command}\n"
    assert not (tmp_path / "o").exists()


def test_unknown_config_field_is_rejected(tmp_path, capsys):
    config = _config(tmp_path, dict(TINY_LOCAL, serial=True))
    assert main(["run-amp", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: serial: unknown configuration field\n"


@pytest.mark.parametrize("text", ["5", "null", '[{"a": 1}]', '"abc"'])
def test_a_config_that_is_no_json_object_exits_2_naming_the_root(tmp_path, capsys, text):
    # 5 and null died on "not iterable", the list on "unhashable type", and
    # "abc" was reported as the unknown field "a"
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run-amp", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: <root>: must be a JSON object") and "Traceback" not in err


def _no_run(*args, **kwargs):
    raise AssertionError("the experiment ran")


@pytest.mark.parametrize("out", ["a_file", "a_file/sub"], ids=["file", "under_a_file"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_the_run(tmp_path, capsys,
                                                                  monkeypatch, out):
    # both raised a bare OSError, and only after the whole experiment had run
    (tmp_path / "a_file").write_text("")
    monkeypatch.setattr(cli, "run_experiment", _no_run)
    argv = ["run-amp", "--config", _config(tmp_path, TINY_LOCAL), "--out", str(tmp_path / out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and "Traceback" not in err


# Summaries written by the bcp-check and graph-lemma commands at their default
# sizes, when every battery still ran and the other three were discarded.
BATTERY_SUMMARIES = {
    "bcp-check": ("bcp_check_summary.json",
                  '{\n  "all_pass": true,\n  "batteries": [\n    {\n      "checked": 100,\n'
                  '      "name": "bcp_diagonal_bound",\n      "passed": true\n    }\n  ],\n'
                  '  "battery_seed": 7\n}\n'),
    "graph-lemma": ("graph_lemma_summary.json",
                    '{\n  "all_pass": true,\n  "batteries": [\n    {\n'
                    '      "base_case_equality": true,\n      "checked": 1000,\n'
                    '      "name": "graph_lemma",\n      "passed": true\n    }\n  ],\n'
                    '  "battery_seed": 7\n}\n'),
}
# the core routine of each battery
BATTERY_CORE = {
    "oracle_equivalence": "eval_value_bruteforce",
    "moments": "wick_expectation",
    "bcp_diagonal_bound": "bcp_ratio",
    "graph_lemma": "alt_cycle_component_bound_check",
}


def _forbidden(*args, **kwargs):
    raise AssertionError("a battery the command does not report was run")


@pytest.mark.parametrize("command, battery", [("bcp-check", "bcp_diagonal_bound"),
                                              ("graph-lemma", "graph_lemma")])
def test_battery_command_runs_only_its_battery(tmp_path, monkeypatch, command, battery):
    for name, core in BATTERY_CORE.items():
        if name != battery:
            monkeypatch.setattr(tn, core, _forbidden)
    assert main([command, "--out", str(tmp_path)]) == 0
    filename, expected = BATTERY_SUMMARIES[command]
    assert [p.name for p in tmp_path.iterdir()] == [filename]
    assert (tmp_path / filename).read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("command, data, flags, named", [
    # universality once ran every battery, then died on a KeyError
    ("universality", {"experiment": "tensor_checks", "seeds": []}, [], "experiment"),
    # state-evolution reads signal_seed, so a --seed was recorded and ignored
    ("state-evolution", TINY_LOCAL, ["--seed", "2"], "--seed"),
    # a repeated seed or ensemble once ran its cells twice, as replicates
    ("run-amp", {**TINY_LOCAL, "seeds": [3, 3]}, [], "seeds[1]"),
    ("universality", {**TINY_LOCAL, "ensembles": ["gaussian", "rademacher", "gaussian"]}, [],
     "ensembles[2]"),
], ids=["universality-on-tensor-config", "state-evolution-seed", "run-amp-repeated-seed",
        "universality-repeated-ensemble"])
def test_refused_before_anything_runs(tmp_path, capsys, monkeypatch, command, data, flags,
                                      named):
    for core in BATTERY_CORE.values():
        monkeypatch.setattr(tn, core, _forbidden)
    argv = [command, "--config", _config(tmp_path, data), "--out", str(tmp_path / "o"), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_seed_sets_the_battery_seed_of_a_tensor_run(tmp_path):
    config = _config(tmp_path, {"experiment": "tensor_checks", "seeds": []})
    worst = []
    for seed in ("1", "2"):
        assert main(["run-amp", "--config", config, "--out", str(tmp_path / seed),
                     "--seed", seed]) == 0
        report = _json(tmp_path / seed / "results_summary.json")
        assert report["battery_seed"] == int(seed)
        battery = report["batteries"][0]
        assert battery["name"] == "oracle_equivalence"
        worst.append(battery["worst_relative"])
    assert worst[0] != worst[1]


def test_run_amp_takes_a_tensor_config_without_seeds(tmp_path):
    # a tensor_checks config once had to list the seeds that nothing reads
    config = _config(tmp_path, {"experiment": "tensor_checks"})
    assert main(["run-amp", "--config", config, "--out", str(tmp_path / "o")]) == 0
    report = _json(tmp_path / "o" / "results_summary.json")
    assert report["all_pass"] and report["battery_seed"] == 7
    assert [b["name"] for b in report["batteries"]] == ["oracle_equivalence", "moments",
                                                        "bcp_diagonal_bound", "graph_lemma"]


def test_tensor_eval_prints_both_values(tmp_path, capsys):
    g = tn.OrderedMultigraph(3, [(0, 1), (1, 2), (0, 2)])
    gen = np.random.default_rng(4)
    lab = {v: tn.DenseTensor.from_array(gen.standard_normal((3, 3))) for v in range(3)}
    path = tmp_path / "net.json"
    tn.save_network(str(path), g, lab)
    assert main(["tensor-eval", "--network", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"bruteforce", "contraction", "relative_gap"}
    assert report["relative_gap"] < 1e-12
    with pytest.raises(SystemExit) as info:
        main(["tensor-eval", "--network", str(path), "--config", "unused.json"])
    assert info.value.code == 2


def test_tensor_eval_past_the_enumeration_budget_reports_the_contraction(tmp_path, capsys):
    # a ring of 60 matrices (n = 2): 60 edges, past numpy's 52 einsum labels
    # and 60 bits of enumeration; vertex v reads (edge v-1, edge v)
    size = 60
    g = tn.OrderedMultigraph(
        size, [(v, (v + 1) % size) for v in range(size)],
        incidence=[[(v - 1) % size, v] for v in range(size)])
    mats = np.random.default_rng(5).standard_normal((size, 2, 2))
    path = tmp_path / "ring.json"
    tn.save_network(str(path), g, {v: tn.DenseTensor.from_array(m) for v, m in enumerate(mats)})
    assert main(["tensor-eval", "--network", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"contraction", "bruteforce", "bruteforce_skipped"}
    assert report["bruteforce"] is None and "budget" in report["bruteforce_skipped"]
    product = np.linalg.multi_dot(mats)
    assert report["contraction"] == pytest.approx(np.trace(product), rel=1e-12)


# the old text format: a header, edge and order lines, per-vertex payload files
OLD_TEXT_NETWORK = ("vertices 2 edges 1 n 3\nedge 0 1\norder 0: 0\norder 1: 0\n"
                    "label 0: dense 1 net.v0.txt\nlabel 1: dense 1 net.v1.txt\n")
# vertex 1's tensor in each damaged copy of the two-vertex network
BAD_TENSORS = {
    "ragged_network": {"kind": "dense", "order": 1, "values": [[0.0, 1.0], [2.0]]},
    "diagonal_2d_network": {"kind": "diagonal", "order": 1, "values": [[0.0], [1.0], [2.0]]},
    # a saved dense order was once ignored on load
    "dense_order_network": {"kind": "dense", "order": 2, "values": [0.0, 1.0, 2.0]},
}


def _network_file(tmp_path, case):
    """A saved two-vertex network, damaged as the case says. Both tensors
    have n = 3, except in unequal_n_network: there vertex 1 carries a
    length-2 diagonal."""
    g = tn.OrderedMultigraph(2, [(0, 1)])
    lab = {0: tn.DenseTensor.from_array(np.arange(3.0)),
           1: tn.DenseTensor.diagonal(np.arange(3.0 if case != "unequal_n_network" else 2.0), 1)}
    path = tmp_path / "net.json"
    tn.save_network(str(path), g, lab)
    text = path.read_text(encoding="utf-8")
    if case == "truncated_network":
        path.write_text(text[: len(text) // 2], encoding="utf-8")
    elif case == "old_text_network":
        path.write_text(OLD_TEXT_NETWORK, encoding="utf-8")
    elif case in BAD_TENSORS:
        doc = json.loads(text)
        doc["tensors"][1] = BAD_TENSORS[case]
        path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("case", ["missing_config", "binary_config", "missing_network",
                                  "truncated_network", "old_text_network", *BAD_TENSORS,
                                  "unequal_n_network"])
def test_unreadable_input_file_is_an_error_not_a_traceback(tmp_path, capsys, case):
    if case.endswith("config"):
        path = tmp_path / "absent.json"
        if case == "binary_config":
            path = tmp_path / "binary.json"
            path.write_bytes(b"\xff\xfe")
        argv = ["run-amp", "--config", str(path), "--out", str(tmp_path)]
        named = "<file>" if case == "binary_config" else path.name
    else:
        path = tmp_path / "absent.json"
        if case != "missing_network":
            path = _network_file(tmp_path, case)
        argv = ["tensor-eval", "--network", str(path)]
        named = path.name
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err
