import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simine
from simine import ScoreConstants, cli, load_graph, parse_description, rescore
from simine.background import BackgroundModel
from simine.cli import build_parser, main

from conftest import dense_probabilities


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


README_DEMO = Path(__file__).parent / "data" / "readme_demo_reports.json"


def readme_demo_reports(workdir):
    """The README quick start's ``bi``, ``single`` and ``iterate:2`` reports,
    run in ``workdir``: per mode, one ``[round, rank, w1, w2, si]`` per
    pattern in report order (round 1 outside iterate mode)."""
    prefix = str(Path(workdir) / "demo")
    data = ["--edges", prefix + ".edges", "--attrs", prefix + ".attrs.csv"]
    runs = {"bi": ["--model", prefix + ".model.json", "--mode", "bi",
                   "--x1", "4", "--x2", "3", "--depth", "2"],
            "single": ["--model", prefix + ".model.json", "--mode", "single"],
            "iterate:2": ["--prior", "degree", "--mode", "iterate:2"]}

    def cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        return records(out.getvalue())

    cli("synth", "--n", "400", "--bg-density", "0.02", "--block", "grp=g1:50,grp=g2:50,0.3",
        "--noise-attrs", "2", "--seed", "0", "--out-prefix", prefix)
    cli("fit", *data, "--prior", "degree", "--output", prefix + ".model.json")
    return {mode: [[r.get("round", 1), r["rank"], r["w1"], r["w2"], r["si"]]
                   for r in cli("mine", *data, *args) if r["type"] == "pattern"]
            for mode, args in runs.items()}


@pytest.fixture
def synth_files(tmp_path, capsys):
    prefix = str(tmp_path / "fx")
    code, out, _ = run_cli(capsys, "synth", "--n", "120", "--bg-density", "0.03",
                           "--block", "grp=g1:25,grp=g2:25,0.4",
                           "--noise-attrs", "1", "--seed", "5",
                           "--out-prefix", prefix)
    assert code == 0
    return prefix


class TestSynth:
    def test_files_written_and_deterministic(self, tmp_path, capsys):
        args = ["synth", "--n", "80", "--bg-density", "0.05",
                "--block", "grp=g1:15,grp=g2:15,0.5", "--seed", "9"]
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(capsys, *args, "--out-prefix", p1)[0] == 0
        assert run_cli(capsys, *args, "--out-prefix", p2)[0] == 0
        for suffix in (".edges", ".attrs.csv", ".manifest.json"):
            assert open(p1 + suffix).read() == open(p2 + suffix).read()
        manifest = json.load(open(p1 + ".manifest.json"))
        assert manifest["blocks"][0]["side1_ids"] == list(range(15))

    def test_block_spec_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "synth", "--block", "nonsense",
                               "--out-prefix", str(tmp_path / "x"))
        assert code == 1 and "block spec" in err

    def test_infeasible_sizes(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "synth", "--n", "10",
                               "--block", "grp=g1:9,grp=g2:9,0.5",
                               "--out-prefix", str(tmp_path / "x"))
        assert code == 1


class TestFit:
    def test_degree_fit_writes_model(self, synth_files, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code, out, _ = run_cli(capsys, "fit", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--prior", "degree", "--output", model_path)
        assert code == 0
        rec = records(out)[0]
        assert rec["type"] == "fit" and rec["max_residual"] <= 1e-4
        # one vertex class per distinct degree
        g = load_graph(synth_files + ".edges", synth_files + ".attrs.csv")
        assert rec["classes"] == len(set(g.degrees().tolist()))
        model = BackgroundModel.load(model_path)
        assert model.prior == "degree" and model.n_classes == rec["classes"]

    def test_v1_model_file_rejected(self, synth_files, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run_cli(capsys, "fit", "--edges", synth_files + ".edges",
                "--attrs", synth_files + ".attrs.csv",
                "--prior", "degree", "--output", str(model_path))
        blob = json.loads(model_path.read_text())
        blob["version"] = 1
        model_path.write_text(json.dumps(blob))
        code, _, err = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--model", str(model_path), "--mode", "single")
        assert code == 1 and "version 1" in err and "re-run `simine fit`" in err

    def test_density_prior(self, synth_files, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code, out, _ = run_cli(capsys, "fit", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--prior", "density:0.01", "--output", model_path)
        assert code == 0
        m = BackgroundModel.load(model_path)
        assert dense_probabilities(m, [0], [1])[0, 0] == pytest.approx(0.01)

    def test_blocks_plus_degree_spec(self, synth_files, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code, out, _ = run_cli(capsys, "fit", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--prior", "blocks:grp+degree", "--output", model_path)
        assert code == 0
        m = BackgroundModel.load(model_path)
        assert m.prior == "blocks:grp+degree" and len(m.partitions) == 1

    def test_fit_failure_exit_code(self, synth_files, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fit", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--prior", "degree", "--tol", "1e-13",
                               "--max-iter", "1",
                               "--output", str(tmp_path / "m.json"))
        assert code == 2 and "fit failed" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "nan", "tol must be a finite number > 0"),
        ("--tol", "inf", "tol must be a finite number > 0"),
        ("--tol", "0", "tol must be a finite number > 0"),
        ("--max-iter", "-3", "max_iter must be >= 0")])
    def test_bad_fit_budget_is_input_error(self, synth_files, tmp_path, capsys, flag, value,
                                           message):
        # tol=nan used to exit 0 with an unfitted model holding a bare NaN
        model_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv",
                                 "--prior", "blocks:grp+degree", flag, value,
                                 "--output", str(model_path))
        assert code == 1 and out == "" and message in err
        assert not model_path.exists()
        code, out, err = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv",
                                 "--prior", "degree", flag, value, "--mode", "single")
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--beta", "inf"),
                                             ("--alpha", "-1"), ("--beta", "0")])
    def test_bad_score_constants_are_input_errors(self, synth_files, capsys, flag, value):
        # --alpha nan used to exit 3 with a bare NaN in the run header, and
        # --beta inf exited 0 with every SI 0.0
        code, out, err = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv",
                                 "--prior", "degree", flag, value, "--mode", "bi")
        assert code == 1 and out == "" and "finite and positive" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--edges", str(tmp_path / "no.edges"),
                               "--attrs", str(tmp_path / "no.csv"),
                               "--prior", "degree",
                               "--output", str(tmp_path / "m.json"))
        assert code == 1


class TestMine:
    def test_bi_mode_report(self, synth_files, capsys):
        code, out, _ = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--prior", "degree", "--mode", "bi",
                               "--x1", "4", "--x2", "3", "--depth", "2")
        assert code == 0
        recs = records(out)
        assert recs[0]["type"] == "run" and recs[0]["mode"] == "bi"
        pats = [r for r in recs if r["type"] == "pattern"]
        assert pats and pats[0]["rank"] == 1
        assert {"w1", "w2", "size1", "size2", "i", "k_w", "n_w", "pw_nw",
                "ic", "dl", "si", "convention"} <= set(pats[0])
        # parsing the report back through the grammar reproduces the SI
        from simine import fit_degree_prior

        g = load_graph(synth_files + ".edges", synth_files + ".attrs.csv")
        model = fit_degree_prior(g)
        rec = pats[0]
        again = rescore(g, model, parse_description(rec["w1"]),
                        parse_description(rec["w2"]), ScoreConstants())
        assert again.si == pytest.approx(rec["si"], abs=1e-9)

    def test_single_mode_round_trip(self, synth_files, capsys):
        code, out, _ = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--prior", "degree", "--mode", "single",
                               "--width", "10", "--depth", "2")
        assert code == 0
        g = load_graph(synth_files + ".edges", synth_files + ".attrs.csv")
        from simine import fit_degree_prior

        model = fit_degree_prior(g)
        for rec in records(out):
            if rec["type"] != "pattern":
                continue
            w1 = parse_description(rec["w1"])
            again = rescore(g, model, w1, None, ScoreConstants())
            assert again.si == pytest.approx(rec["si"], abs=1e-9)
            assert again.edges == rec["k_w"]

    def test_readme_demo_reports_unchanged(self, tmp_path):
        # the expected file holds the reports of the Newton fit; a deliberate
        # change to rankings or SIs rewrites it from readme_demo_reports
        got = readme_demo_reports(tmp_path)
        want = json.loads(README_DEMO.read_text(encoding="utf-8"))
        assert list(got) == list(want)
        for mode in want:
            assert [row[:4] for row in got[mode]] == [row[:4] for row in want[mode]], mode
            assert [row[4] for row in got[mode]] == pytest.approx(
                [row[4] for row in want[mode]], rel=1e-9, abs=0), mode

    def test_readme_demo_patterns_equal_rescore(self, tmp_path, monkeypatch):
        # every pattern the demo's bi, single and iterate:2 runs report was
        # scored in a batch; rescoring it alone from its descriptions gives
        # the same SI, p_w and expected edges, bit for bit
        runs = []

        def capture(name):
            fn = getattr(cli, name)

            def wrapper(g, model, sels, cfg, *args, **kwargs):
                out = fn(g, model, sels, cfg, *args, **kwargs)
                rounds = (zip(out.models, out.rounds) if name == "iterate"
                          else [(model, out)])
                runs.append((name, g, cfg, list(rounds)))
                return out
            return wrapper

        for name in ("nested_beam_search", "beam_search_single", "iterate"):
            monkeypatch.setattr(cli, name, capture(name))
        readme_demo_reports(tmp_path)
        assert [name for name, *_ in runs] == ["nested_beam_search", "beam_search_single",
                                               "iterate"]
        for name, g, cfg, rounds in runs:
            assert len(rounds) == (2 if name == "iterate" else 1)
            for model, pats in rounds:
                assert pats, name
                for p in pats:
                    again = rescore(g, model, p.w1, p.w2, cfg.constants)
                    assert ([x.hex() for x in (again.si, again.p_w, again.expected_edges)]
                            == [x.hex() for x in (p.si, p.p_w, p.expected_edges)]), p.render()

    def test_byte_identical_reruns(self, synth_files, capsys):
        args = ["mine", "--edges", synth_files + ".edges",
                "--attrs", synth_files + ".attrs.csv", "--prior", "degree",
                "--mode", "bi", "--x1", "3", "--x2", "2"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_iterate_mode_rounds(self, synth_files, capsys):
        code, out, _ = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--prior", "degree", "--mode", "iterate:2",
                               "--x1", "3", "--x2", "2", "--top", "3")
        assert code == 0
        rounds = {r["round"] for r in records(out) if r["type"] == "pattern"}
        assert rounds == {1, 2}

    def test_iterate_mode_table(self, synth_files, capsys):
        code, out, err = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv",
                                 "--prior", "degree", "--mode", "iterate:2",
                                 "--x1", "3", "--x2", "2", "--top", "2", "--table")
        assert code == 0
        pats = [r for r in records(out) if r["type"] == "pattern"]
        lines = err.strip().splitlines()
        assert lines[0].split() == ["round", "rank", "w1", "w2", "size1", "size2",
                                    "I", "k_w", "pw_nw", "si"]
        rows = [line.split() for line in lines[1:]]
        assert len(rows) == len(pats) == 4
        # the table's round, rank, W1 and SI columns follow the report
        assert [(r[0], r[1], r[2], r[-1]) for r in rows] == [
            (str(p["round"]), str(p["rank"]), p["w1"], f"{p['si']:.3f}") for p in pats]

    @pytest.mark.parametrize("absorb", ["0", "-1"])
    def test_absorb_below_one_rejected(self, synth_files, capsys, absorb):
        # --absorb 0 would repeat round 1; -1 would absorb all but the last pattern
        code, out, err = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv",
                                 "--prior", "degree", "--mode", "iterate:3",
                                 "--x1", "2", "--x2", "2", "--depth", "1",
                                 "--absorb", absorb)
        assert code == 1 and out == "" and "absorb must be >= 1" in err

    def test_empty_exit_code(self, synth_files, capsys):
        code, out, _ = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--prior", "degree", "--mode", "single",
                               "--min-size", "9999")
        assert code == 3

    def test_model_file_reuse(self, synth_files, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        run_cli(capsys, "fit", "--edges", synth_files + ".edges",
                "--attrs", synth_files + ".attrs.csv", "--prior", "degree",
                "--output", model_path)
        code, out, _ = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--model", model_path, "--mode", "bi",
                               "--x1", "2", "--x2", "2")
        assert code == 0 and records(out)[0]["prior"] == "degree"

    def _fit_then_mine(self, capsys, fit_prefix, mine_prefix, model_path,
                       prior="degree", edit=None):
        run_cli(capsys, "fit", "--edges", fit_prefix + ".edges",
                "--attrs", fit_prefix + ".attrs.csv", "--prior", prior,
                "--output", str(model_path))
        if edit is not None:
            blob = json.loads(model_path.read_text())
            edit(blob)
            model_path.write_text(json.dumps(blob))
        return run_cli(capsys, "mine", "--edges", mine_prefix + ".edges",
                       "--attrs", mine_prefix + ".attrs.csv",
                       "--model", str(model_path), "--mode", "single")

    def test_model_from_another_graph_rejected(self, synth_files, tmp_path, capsys):
        # same n and direction, other edges: loading it used to pass silently
        other = str(tmp_path / "other")
        assert run_cli(capsys, "synth", "--n", "120", "--bg-density", "0.03",
                       "--block", "grp=g1:25,grp=g2:25,0.4", "--noise-attrs", "1",
                       "--seed", "6", "--out-prefix", other)[0] == 0
        code, out, err = self._fit_then_mine(capsys, other, synth_files,
                                             tmp_path / "m.json")
        assert code == 1 and out == ""
        assert "another graph" in err and "re-run `simine fit`" in err

    def test_model_partition_column_checked(self, synth_files, tmp_path, capsys):
        # the same edges and labels with one vertex moved to another group
        lines = open(synth_files + ".attrs.csv").read().splitlines()
        col = lines[0].split(",").index("grp")
        row = lines[1].split(",")
        row[col] = "g2" if row[col] == "g1" else "g1"
        lines[1] = ",".join(row)
        moved = str(tmp_path / "moved")
        open(moved + ".attrs.csv", "w").write("\n".join(lines) + "\n")
        open(moved + ".edges", "w").write(open(synth_files + ".edges").read())
        model_path = tmp_path / "m.json"
        code, _, err = self._fit_then_mine(capsys, synth_files, moved, model_path,
                                           prior="blocks:grp+degree")
        assert code == 1 and "another graph" in err
        # the degree prior reads no attribute column, so the same file fits
        code, _, _ = self._fit_then_mine(capsys, synth_files, moved, model_path)
        assert code == 0

    def test_model_edge_order_ignored(self, synth_files, tmp_path, capsys):
        shuffled = str(tmp_path / "shuffled")
        lines = open(synth_files + ".edges").read().splitlines()
        open(shuffled + ".edges", "w").write("\n".join(reversed(lines)) + "\n")
        open(shuffled + ".attrs.csv", "w").write(open(synth_files + ".attrs.csv").read())
        code, _, _ = self._fit_then_mine(capsys, synth_files, shuffled, tmp_path / "m.json")
        assert code == 0

    def test_model_without_fingerprint_rejected(self, synth_files, tmp_path, capsys):
        code, out, err = self._fit_then_mine(
            capsys, synth_files, synth_files, tmp_path / "m.json",
            edit=lambda blob: blob.pop("graph_fingerprint"))
        assert code == 1 and out == ""
        assert "does not name the graph" in err and "re-run `simine fit`" in err

    @pytest.mark.parametrize("directed, message", [("false", "'directed' must be true or false"),
                                                   (True, "another graph")])
    def test_model_direction_checked(self, synth_files, tmp_path, capsys, directed, message):
        code, out, err = self._fit_then_mine(
            capsys, synth_files, synth_files, tmp_path / "m.json",
            edit=lambda blob: blob.update(directed=directed))
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize("delimiter", ["", ",,"])
    def test_bad_delimiter_is_input_error(self, synth_files, tmp_path, capsys, delimiter):
        data = ["--edges", synth_files + ".edges", "--attrs", synth_files + ".attrs.csv"]
        code, out, err = run_cli(capsys, "mine", *data, "--prior", "degree",
                                 "--delimiter", delimiter)
        assert code == 1 and out == "" and "delimiter must be one character" in err
        cfg = tmp_path / "delim.cfg"
        cfg.write_text(f"delimiter={delimiter}\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "mine", *data,
                                 "--prior", "degree")
        assert code == 1 and out == "" and "delimiter must be one character" in err

    def test_table_goes_to_stderr(self, synth_files, capsys):
        code, out, err = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv",
                                 "--prior", "degree", "--mode", "single",
                                 "--table")
        assert code == 0
        for line in out.strip().splitlines():
            json.loads(line)  # stdout stays pure JSONL
        assert "rank" in err

    def test_negative_top_rejected(self, synth_files, capsys):
        args = ["mine", "--edges", synth_files + ".edges",
                "--attrs", synth_files + ".attrs.csv", "--prior", "degree",
                "--mode", "single"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and len(records(out)) > 2
        code, out, err = run_cli(capsys, *args, "--top", "-1")
        assert code == 1 and out == "" and "--top" in err

    def test_config_file_with_flag_override(self, synth_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=bi\nx1=2\nx2=2\ndepth=1\nprior=degree\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "mine",
                               "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--x1", "3")
        assert code == 0
        head = records(out)[0]
        assert head["x1"] == 3 and head["x2"] == 2  # flag wins, config fills
        assert "seed" not in head

    def test_config_values_typed_by_flag(self, synth_files, tmp_path, capsys):
        # 1 and 0 are integers for integer flags and switch values for switches
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=bi\nx1=1\nx2=1\ndepth=1\nprior=degree\n"
                       "shared-attr=0\ndisjoint=1\nalpha=1\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "mine",
                               "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv")
        assert code == 0
        head = records(out)[0]
        assert type(head["x2"]) is int and head["x2"] == 1
        assert type(head["depth"]) is int and head["depth"] == 1
        assert type(head["alpha"]) is float and head["alpha"] == 1.0
        assert head["shared_attr"] is False and head["disjoint"] is True

    def test_config_value_rejected_by_flag_type(self, synth_files, tmp_path, capsys):
        for line in ("x2=two", "pair_counting=both", "disjoint=maybe"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            code, _, err = run_cli(capsys, "--config", str(cfg), "mine",
                                   "--edges", synth_files + ".edges",
                                   "--attrs", synth_files + ".attrs.csv",
                                   "--prior", "degree")
            assert code == 1 and "bad.cfg:1" in err

    def test_config_unknown_key_rejected(self, synth_files, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("prior=degree\nwidht=5\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "mine",
                                 "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv", "--mode", "single")
        assert code == 1 and out == ""
        assert "typo.cfg:2" in err and "'widht'" in err

    def test_config_key_of_other_subcommand_allowed(self, synth_files, tmp_path, capsys):
        # one config file may serve several subcommands
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("prior=degree\nmeasures=pool\nbg-density=0.1\nwidth=5\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "mine",
                               "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv", "--mode", "single")
        assert code == 0 and records(out)[0]["width"] == 5

    def test_output_file(self, synth_files, tmp_path, capsys):
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run_cli(capsys, "mine", "--edges", synth_files + ".edges",
                             "--attrs", synth_files + ".attrs.csv",
                             "--prior", "degree", "--mode", "bi",
                             "--x1", "2", "--x2", "2",
                             "--output", str(out_path))
        assert code == 0
        assert records(out_path.read_text())[0]["type"] == "run"


class TestBaselinesCmd:
    def test_measure_records(self, synth_files, capsys):
        code, out, _ = run_cli(capsys, "baselines", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--measures", "edge_density,pool", "--top", "3",
                               "--width", "8", "--depth", "1")
        assert code == 0
        recs = [r for r in records(out) if r["type"] == "baseline"]
        assert {r["measure"] for r in recs} == {"edge_density", "pool"}

    def test_negative_top_rejected(self, synth_files, capsys):
        code, out, err = run_cli(capsys, "baselines", "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv",
                                 "--measures", "pool", "--top", "-1")
        assert code == 1 and out == "" and "--top" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_edge_surplus_alpha_rejected(self, synth_files, capsys, value):
        # nan used to exit 0 with every edge_surplus value printed as "inf"
        code, out, err = run_cli(capsys, "baselines", "--edges", synth_files + ".edges",
                                 "--attrs", synth_files + ".attrs.csv",
                                 "--measures", "edge_surplus",
                                 "--edge-surplus-alpha", value)
        assert code == 1 and out == "" and "edge_surplus_alpha must be finite" in err

    def test_unknown_measure(self, synth_files, capsys):
        code, _, err = run_cli(capsys, "baselines", "--edges", synth_files + ".edges",
                               "--attrs", synth_files + ".attrs.csv",
                               "--measures", "bogus")
        assert code == 1 and "unknown measure" in err


def _with_data(prefix, argv):
    """``argv`` with the data flags of ``prefix``'s files after a ``mine`` or
    ``baselines`` subcommand."""
    if argv[:1] in (["mine"], ["baselines"]):
        return argv[:1] + ["--edges", prefix + ".edges", "--attrs", prefix + ".attrs.csv",
                           *argv[1:]]
    return argv


class TestInputErrors:
    """Usage errors and bad values print ``simine: error: ...``, write no
    report and exit 1."""

    @pytest.mark.parametrize("argv, message", [
        (["baselines", "--alpha", "1"], "unrecognized arguments: --alpha 1"),
        (["mine", "--prior", "degree", "--x1", "abc"], "argument --x1: invalid int value: 'abc'"),
        (["mine", "--prior", "degree", "--pair-counting", "both"],
         "argument --pair-counting: invalid choice: 'both'"),
        (["--config"], "argument --config: expected one argument"),
        ([], "the following arguments are required: command"),
        (["mine"], "need --prior or --model"),
        (["mine", "--prior", "density:high"], "bad density prior 'density:high'"),
        (["mine", "--prior", "blocks:"], "blocks prior needs at least one attribute"),
        (["mine", "--prior", "blocks:+degree"], "blocks prior needs at least one attribute"),
        (["mine", "--prior", "uniform"], "unknown prior spec 'uniform'"),
        (["mine", "--prior", "degree", "--mode", "pairs"], "unknown mode 'pairs'"),
        (["mine", "--prior", "degree", "--mode", "iterate:two"], "bad mode 'iterate:two'"),
        (["mine", "--prior", "degree", "--id-col", "node"], "id column 'node' not in header"),
        (["mine", "--prior", "degree", "--id-col", "9"], "id column index 9 out of range"),
        # a digit int() rejects is a header name, not an index
        (["mine", "--prior", "degree", "--id-col", "²"], "id column '²' not in header"),
        (["synth", "--block", "grp=g1,grp=g2:5,0.5"], "bad block side 'grp=g1'"),
        (["synth", "--block", "grp:5,grp=g2:5,0.5"], "bad block side 'grp:5'"),
        (["synth", "--block", "grp=g1:5,grp=g2:5,dense"], "bad block density 'dense'"),
    ])
    def test_exit_1_without_report(self, synth_files, tmp_path, capsys, argv, message):
        if argv[:1] == ["synth"]:
            argv = [*argv, "--out-prefix", str(tmp_path / "bad")]
        code, out, err = run_cli(capsys, *_with_data(synth_files, argv))
        assert code == 1 and out == ""
        assert err.startswith("simine: error: ") and message in err
        assert not list(tmp_path.glob("bad*"))

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["mine", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out

    def test_id_column_by_index(self, synth_files, capsys):
        argv = _with_data(synth_files, ["mine", "--prior", "degree", "--mode", "single"])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--id-col", "0") == (code, out, "")


class TestBaselinesFlags:
    def test_only_the_flags_it_reads(self):
        _, commands = build_parser()
        assert set(commands["baselines"].flags) - {"help"} == {
            "edges", "attrs", "delimiter", "tab", "id_col", "directed", "numeric_bins",
            "width", "depth", "min_size", "measures", "edge_surplus_alpha", "top", "output",
            "table"}

    def test_search_flags_reach_the_search(self, synth_files, capsys):
        code, out, _ = run_cli(capsys, *_with_data(synth_files, [
            "baselines", "--measures", "pool,edge_density", "--width", "3", "--depth", "1",
            "--min-size", "30", "--top", "9"]))
        recs = [r for r in records(out) if r["type"] == "baseline"]
        assert code == 0 and len(recs) == 6
        assert all(" ∧ " not in r["w"] and r["size"] >= 30 for r in recs)


class TestEntryPoint:
    @pytest.mark.parametrize("argv, code", [(["--version"], 0), (["mine", "--x1", "1"], 1)])
    def test_module_runs(self, argv, code):
        src = str(Path(simine.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "simine.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        if code == 0:
            assert proc.stdout.strip() == f"simine {simine.__version__}"
        else:
            assert proc.stderr.startswith("simine: error: ")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_console_script_resolves(self):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, name = target["simine"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.entrypoint
