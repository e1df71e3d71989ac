import ast
import json
import os
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from noisymarkov import cli
from noisymarkov.denoise import gibbs_params
from noisymarkov.errors import DivisionNearZeroError, InsufficientContextError
from noisymarkov.model import validate_params
from noisymarkov.simulate import generate_dataset, load_path_csv, load_spins


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def data_section(path) -> str:
    return "\n".join(l for l in path.read_text().splitlines() if not l.startswith("#"))


class TestProbs:
    def test_reference_enumeration(self, tmp_path):
        out = tmp_path / "probs.csv"
        code = cli.main(["probs", "--p", "0.2", "--eps", "0.1", "--n", "2", "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["word", "q_transfer", "q_bruteforce", "rel_err"]
        assert meta["schema"] == cli.SCHEMA_VERSION
        by_word = {r[0]: r for r in rows}
        assert float(by_word["++"][1]) == pytest.approx(0.346, rel=1e-12)
        assert abs(float(meta["sum"]) - 1.0) < 1e-10
        assert float(meta["max_rel_err"]) < 1e-12

    def test_missing_parameter_is_config_error(self, tmp_path):
        assert cli.main(["probs", "--n", "2", "--out", str(tmp_path / "x.csv")]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            args = ["probs", "--p", "0.3", "--eps", "0.25", "--n", "3", "--out", str(out)]
            assert cli.main(args) == 0
        assert data_section(a) == data_section(b)

    def test_out_of_range_is_config_error(self, tmp_path):
        code = cli.main(
            ["probs", "--p", "1.5", "--eps", "0.1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "cylinder_prob", lambda y, m: 0.25)
        code = cli.main(
            ["probs", "--p", "0.2", "--eps", "0.1", "--n", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3


    def test_underflowed_oracle_fails_the_check(self, tmp_path, capsys):
        # at p = eps = 1e-200 the oracle rounds some words' probability to 0.0;
        # their relative error is recorded as infinite and the check fails
        out = tmp_path / "probs.csv"
        code = cli.main(["probs", "--p", "1e-200", "--eps", "1e-200", "--n", "4", "--out", str(out)])
        assert code == 3
        assert "numerical check FAILED" in capsys.readouterr().err
        meta, header, rows = read_csv(out)
        assert meta["max_rel_err"] == "inf"
        assert [r[header.index("rel_err")] for r in rows if r[header.index("q_bruteforce")] == "0"] == ["inf"] * 4

    def test_enumeration_past_the_cap_is_config_error(self, tmp_path, capsys):
        code = cli.main(["probs", "--p", "0.2", "--eps", "0.1", "--n", "13", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "1..12" in capsys.readouterr().err

    def test_package_error_of_a_command_exits_3(self, tmp_path, capsys, monkeypatch):
        def refuse(y, m):
            raise DivisionNearZeroError("refused")

        monkeypatch.setattr(cli, "cylinder_prob", refuse)
        code = cli.main(["probs", "--p", "0.2", "--eps", "0.1", "--n", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numerical failure: refused" in capsys.readouterr().err


class TestDecay:
    def test_small_grid(self, tmp_path):
        grid_file = tmp_path / "cfg.txt"
        grid_file.write_text("grid=0.2:0.05 0.3:0.35\nsamples=24\n")
        out = tmp_path / "decay.csv"
        code = cli.main(["decay", "--grid-file", str(grid_file), "--out", str(out), "--seed", "1"])
        assert code == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 2
        cols = dict(zip(header, rows[0]))
        assert cols["regime"] == "eps_lt_p"
        assert float(cols["rho"]) == pytest.approx(57.0 / 140.0, abs=1e-12)
        assert cols["ok"] == "true"
        assert all(r[header.index("ok")] == "true" for r in rows)

    def test_degenerate_row(self, tmp_path):
        grid_file = tmp_path / "cfg.txt"
        grid_file.write_text("grid=0.5:0.2\n")
        out = tmp_path / "decay.csv"
        assert cli.main(["decay", "--grid-file", str(grid_file), "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert float(rows[0][header.index("rho")]) == 0.0
        assert float(rows[0][header.index("empirical_rate")]) == 0.0

    def test_rate_over_the_bound_fails_the_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_empirical_variation_rate", lambda params, samples, seed: (1.0, 2))
        out = tmp_path / "decay.csv"
        assert cli.main(["decay", "--p", "0.2", "--eps", "0.05", "--out", str(out)]) == 3
        assert "exceeded the certified bound" in capsys.readouterr().err
        _, header, rows = read_csv(out)
        assert rows[0][header.index("ok")] == "false"

    def test_fit_without_two_positive_variations(self, tmp_path, capsys, monkeypatch):
        # at rho > 0 a rate without a fit is no evidence: it is recorded as nan, and the check fails
        monkeypatch.setattr(cli, "variation_estimate", lambda n, samples, params, seed: 0.0)
        out = tmp_path / "decay.csv"
        assert cli.main(["decay", "--p", "0.2", "--eps", "0.05", "--out", str(out)]) == 3
        assert "fewer than two positive variations" in capsys.readouterr().err
        _, header, rows = read_csv(out)
        assert rows[0][header.index("empirical_rate")] == "nan"
        assert rows[0][header.index("ok")] == "false"
        assert int(rows[0][header.index("fit_n_hi")]) >= 2

    def test_cell_without_memory_needs_no_fit(self, tmp_path, monkeypatch):
        # at p = 1/2, rho = 0: the rate is 0.0 by the certificate, and no variation is estimated
        monkeypatch.setattr(cli, "variation_estimate", lambda n, samples, params, seed: 0.0)
        out = tmp_path / "decay.csv"
        assert cli.main(["decay", "--p", "0.5", "--eps", "0.2", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert float(rows[0][header.index("empirical_rate")]) == 0.0
        assert rows[0][header.index("ok")] == "true"

    def test_default_grid_every_row_ok(self, tmp_path):
        # the full 16-cell grid: empirical rate below the certified bound everywhere
        out = tmp_path / "decay.csv"
        assert cli.main(["decay", "--out", str(out), "--seed", "0"]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 16
        assert all(r[header.index("ok")] == "true" for r in rows)


class TestGfun:
    def test_cross_validation(self, tmp_path):
        out = tmp_path / "gfun.csv"
        code = cli.main(
            ["gfun", "--p", "0.2", "--eps", "0.1", "--n", "8", "--depth", "200",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert float(meta["max_diff"]) < 1e-10
        # first row is the all-ones window
        assert float(rows[0][1]) == pytest.approx(0.7255764119219943, rel=1e-10)
        assert float(rows[0][2]) == pytest.approx(0.7255764119219943, rel=1e-10)
        assert all(r[-1] == "ok" for r in rows)

    @pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--depth", "0")])
    def test_nonpositive_tol_or_depth_is_config_error(self, tmp_path, flag, value):
        assert cli.main(["gfun", "--p", "0.2", "--eps", "0.1", "--n", "2", flag, value,
                         "--out", str(tmp_path / "gfun.csv")]) == 2

    def test_near_zero_denominator_is_a_flagged_row(self, tmp_path, capsys, monkeypatch):
        # with every window flagged nothing was compared, so the cross-validation fails
        def refuse(win, depth, params):
            raise DivisionNearZeroError("denominator near zero")

        monkeypatch.setattr(cli, "g_continued_fraction_detail", refuse)
        out = tmp_path / "gfun.csv"
        assert cli.main(["gfun", "--p", "0.2", "--eps", "0.1", "--n", "2", "--out", str(out)]) == 3
        assert "none was compared" in capsys.readouterr().err
        meta, _, rows = read_csv(out)
        assert meta["flagged"] == "3"
        assert meta["max_diff"] == "nan"
        assert [r[-1] for r in rows] == ["division_near_zero"] * 3
        assert all(r[2:5] == ["nan"] * 3 for r in rows)

    def test_disagreement_fails_the_check(self, tmp_path, capsys, monkeypatch):
        detail = cli.g_continued_fraction_detail
        monkeypatch.setattr(cli, "g_continued_fraction_detail",
                            lambda win, depth, params: SimpleNamespace(value=detail(win, depth, params).value + 1e-6,
                                                                       min_denominator=1.0))
        out = tmp_path / "gfun.csv"
        assert cli.main(["gfun", "--p", "0.2", "--eps", "0.1", "--n", "2", "--out", str(out)]) == 3
        assert "cross-validation FAILED" in capsys.readouterr().err

    def test_flat_channel_columns(self, tmp_path):
        out = tmp_path / "gfun.csv"
        code = cli.main(
            ["gfun", "--p", "0.2", "--eps", "0.5", "--n", "4", "--depth", "50",
             "--out", str(out)]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        for row in rows:
            assert float(row[1]) == pytest.approx(0.5, abs=1e-14)
            assert float(row[2]) == pytest.approx(0.5, abs=1e-14)


class TestBench:
    def test_small_run_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        args = ["bench", "--n", "4000", "--seed", "0,1", "--k", "1,2", "--out"]
        grid = tmp_path / "cfg.txt"
        grid.write_text("grid=0.1:0.2\nalgorithms=bf,gibbs,dude,bfp\n")
        assert cli.main(args + [str(out1), "--grid-file", str(grid)]) == 0
        assert cli.main(args + [str(out2), "--grid-file", str(grid)]) == 0

        records = [json.loads(l) for l in (out1 / "ber.jsonl").read_text().splitlines()]
        assert {r["algorithm"] for r in records} == {"bf", "gibbs", "dude_k1", "dude_k2", "bfp"}
        for rec in records:
            assert rec["schema"] == "noisymarkov-ber-v1"
            assert 0.0 <= rec["ber"] <= 1.0
            assert rec["n"] == 4000
            assert rec["generator"] == "philox4x64"

        # identical config -> identical data sections (runtimes live only in jsonl)
        assert data_section(out1 / "ber_table.csv") == data_section(out2 / "ber_table.csv")
        assert (out1 / "ber_table.md").read_text() == (out2 / "ber_table.md").read_text()
        b1 = [(r["algorithm"], r["seed"], r["ber"]) for r in records]
        records2 = [json.loads(l) for l in (out2 / "ber.jsonl").read_text().splitlines()]
        b2 = [(r["algorithm"], r["seed"], r["ber"]) for r in records2]
        assert b1 == b2

    def test_exact_bf_beats_noisy_input(self, tmp_path):
        out = tmp_path / "b"
        grid = tmp_path / "cfg.txt"
        grid.write_text("grid=0.1:0.2\nalgorithms=bf\n")
        assert cli.main(["bench", "--n", "20000", "--seed", "5", "--grid-file", str(grid),
                         "--out", str(out)]) == 0
        rec = json.loads((out / "ber.jsonl").read_text().splitlines()[0])
        assert rec["ber"] < 0.2  # better than leaving the 20% channel noise in place

    def test_records_carry_the_fitted_p(self, tmp_path):
        grid = tmp_path / "cfg.txt"
        grid.write_text("grid=0.1:0.2\nalgorithms=bf,gibbs,dude,bfp\n")
        n = 4000
        out = tmp_path / "b"
        assert cli.main(["bench", "--n", str(n), "--seed", "5", "--k", "1",
                         "--grid-file", str(grid), "--out", str(out)]) == 0
        records = {r["algorithm"]: r for r in
                   (json.loads(l) for l in (out / "ber.jsonl").read_text().splitlines())}
        fitted = gibbs_params(generate_dataset(validate_params(0.1, 0.2), n, 5).y, 0.2)
        assert records["gibbs"]["extra"] == {"p_hat": fitted.p}
        assert records["bf"]["extra"] == {}
        assert records["bfp"]["extra"] == {"mode": "exact"}
        assert records["dude_k1"]["extra"].keys() == {"k", "n_clamped"}

    def test_nonpositive_k_is_config_error(self, tmp_path, capsys):
        assert cli.main(["bench", "--n", "100", "--k", "0", "--out", str(tmp_path / "b")]) == 2
        assert "k=0" in capsys.readouterr().err

    def test_k_past_the_window_coder_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert cli.main(["bench", "--n", "100", "--k", "1,29", "--out", str(out)]) == 2
        assert "k=29" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_algorithm_is_config_error(self, tmp_path):
        grid = tmp_path / "cfg.txt"
        grid.write_text("algorithms=quantum\n")
        assert cli.main(["bench", "--n", "4000", "--grid-file", str(grid),
                         "--out", str(tmp_path / "b")]) == 2


    @pytest.mark.parametrize("args, message", [
        (["--n", "3"], "n >= 4"),
        (["--n", "11", "--k", "5"], "needs n >= 12"),
    ], ids=["n", "n-for-k"])
    def test_too_short_is_config_error(self, tmp_path, capsys, args, message):
        assert cli.main(["bench", *args, "--out", str(tmp_path / "b")]) == 2
        assert message in capsys.readouterr().err

    def test_cell_that_raises_is_an_error_record(self, tmp_path, capsys, monkeypatch):
        def refuse(y, epsilon, k):
            raise InsufficientContextError("no context")

        monkeypatch.setattr(cli, "dude_detail", refuse)
        grid = tmp_path / "cfg.txt"
        grid.write_text("grid=0.1:0.2\n")
        out = tmp_path / "b"
        assert cli.main(["bench", "--n", "2000", "--seed", "0,1", "--k", "1", "--grid-file", str(grid),
                         "--out", str(out)]) == 3
        assert "2 cell(s) failed" in capsys.readouterr().err
        records = [json.loads(line) for line in (out / "ber.jsonl").read_text().splitlines()]
        assert [(r["seed"], r["error"]) for r in records] == [(0, "no context"), (1, "no context")]
        assert all(r.keys() == {"schema", "p", "epsilon", "n", "seed", "error"} for r in records)

    def test_record_schema_and_generator_are_named_once(self):
        # every ber.jsonl record is built in cmd_bench, and the generator is named where it is made
        sources = {path.name: path.read_text(encoding="utf-8") for path in Path(cli.__file__).parent.glob("*.py")}
        assert sum(text.count(cli.BER_SCHEMA_VERSION) for text in sources.values()) == 1
        assert [name for name, text in sources.items() if '"philox4x64"' in text] == ["simulate.py"]

    def test_algorithms_separated_by_spaces(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=0.1:0.2\nalgorithms=bf gibbs\n")
        out = tmp_path / "b"
        assert cli.main(["bench", "--n", "2000", "--seed", "0", "--grid-file", str(cfg), "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "ber.jsonl").read_text().splitlines()]
        assert [r["algorithm"] for r in records] == ["bf", "gibbs"]


class TestSimulate:
    def test_packed_output(self, tmp_path):
        out = tmp_path / "path.bin"
        code = cli.main(["simulate", "--p", "0.2", "--eps", "0.1", "--n", "100",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        seq = load_spins(out)
        assert len(seq) == 100

    def test_csv_output_roundtrip(self, tmp_path):
        out = tmp_path / "path.csv"
        code = cli.main(["simulate", "--p", "0.2", "--eps", "0.1", "--n", "64",
                         "--seed", "9", "--out", str(out)])
        assert code == 0
        sim = load_path_csv(out)
        assert sim.seed == 9
        assert np.array_equal(sim.y.symbols, sim.x.symbols * sim.z.symbols)

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            cli.main(["simulate", "--p", "0.3", "--eps", "0.2", "--n", "512",
                      "--seed", "21", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p=0.3\neps=0.25\nn=1\n")
        out = tmp_path / "probs.csv"
        # flag --p wins over the file; eps and n come from the file
        code = cli.main(["probs", "--p", "0.2", "--grid-file", str(cfg), "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        by_word = {r[0]: float(r[1]) for r in rows}
        assert len(rows) == 2  # n=1 from the file
        assert by_word["+"] == pytest.approx(0.5, rel=1e-12)

    def test_malformed_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("this is not a key value line\n")
        assert cli.main(["probs", "--grid-file", str(cfg)]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["probs", "--grid-file", str(tmp_path / "nope.txt")]) == 2

    def test_blank_and_comment_lines(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# a run of probs\n\np=0.2  # source\n   \neps=0.1\n")
        assert cli.load_config(cfg) == {"p": "0.2", "eps": "0.1"}
        assert cli.main(["probs", "--n", "1", "--grid-file", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("command, line, message", [
        ("probs", "p=abc", "is not a number"),
        ("probs", "n=2.5", "is not an integer"),
        ("bench", "seed=a,b", "is not a list of integers"),
        ("bench", "seed=,", "must be a nonempty list"),
        ("decay", "grid=0.1-0.2", "bad grid cell"),
        ("decay", "grid=", "must be nonempty"),
        ("bench", "algorithms=", "parameter algorithms='' must be a nonempty list"),
        ("bench", "seed=1,1", "parameter seed='1,1' must name each value once"),
        ("bench", "k=1,1", "parameter k='1,1' must name each value once"),
        ("bench", "k=1,01", "parameter k='1,01' must name each value once"),
        ("bench", "algorithms=bf,dude,bf", "parameter algorithms='bf,dude,bf' must name each value once"),
    ], ids=["number", "integer", "list", "empty-list", "grid-cell", "empty-grid", "empty-algorithms",
            "seed-twice", "k-twice", "k-twice-as-integers", "algorithms-twice"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"p=0.2\neps=0.1\n{line}\n")
        assert cli.main([command, "--grid-file", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_required_values_without_default(self):
        cfg = cli.Settings(cli.build_parser().parse_args(["bench"]))
        for parse in (str, float, int, cli._int_list):
            with pytest.raises(cli.ConfigError, match="missing required parameter: depth"):
                cfg.get("depth", parse=parse)

    @pytest.mark.parametrize("command, flags, config, read", [
        ("probs", ["--p", "0.2", "--eps", "0.1", "--n", "2", "--k", "3", "--depth", "9"], None,
         {"p": "0.2", "eps": "0.1", "n": "2"}),
        ("probs", [], "grid=0.1:0.2 0.2:0.2\np=0.3\neps=0.1\nsamples=8\nalgorithms=bf\n",
         {"p": "0.3", "eps": "0.1"}),
        ("bench", ["--n", "4000", "--seed", "3", "--k", "29"], "grid=0.1:0.2\nalgorithms=bf\n",
         {"n": "4000", "seed": "3", "grid": "0.1:0.2", "algorithms": "bf"}),
    ], ids=["unread-flags", "unread-keys", "k-without-dude"])
    def test_header_records_what_the_command_read(self, tmp_path, command, flags, config, read):
        # a key is in the header if and only if the command read it from a flag or the file;
        # bench reads k only where DUDE runs, so a k no DUDE call would take is neither checked nor recorded
        out = tmp_path / "out"
        args = [command, *flags, "--out", str(out)]
        if config is not None:
            (tmp_path / "cfg.txt").write_text(config)
            args += ["--grid-file", str(tmp_path / "cfg.txt")]
        assert cli.main(args) == 0
        meta, _, _ = read_csv(out / "ber_table.csv" if command == "bench" else out)
        written = {"schema", "version", "generator", "sum", "max_rel_err", "seeds"}
        assert {key: value for key, value in meta.items() if key not in written} == {**read, "out": str(out)}

    def test_only_settings_reads_the_flags_and_the_file(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        settings = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Settings")
        inside = {id(node) for node in ast.walk(settings)}
        outside = [node for node in ast.walk(tree) if id(node) not in inside]
        calls = [node.func.id for node in outside if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        assert "getattr" not in calls and "vars" not in calls
        attributes = [(node.value, node.attr) for node in outside if isinstance(node, ast.Attribute)]
        assert "file_values" not in [attr for _, attr in attributes]
        assert {attr for value, attr in attributes if isinstance(value, ast.Name) and value.id == "args"} == {"command"}

    @pytest.mark.parametrize("command", ["simulate", "bench", "gfun"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        code = cli.main([command, "--p", "0.2", "--eps", "0.1", "--n", "100", "--k", "1",
                         "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_flags_narrow_the_file_grid(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=0.1:0.2 0.2:0.2\nsamples=8\n")
        out = tmp_path / "decay.csv"
        assert cli.main(["decay", "--grid-file", str(cfg), "--p", "0.3", "--eps", "0.1",
                         "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert [(float(r[header.index("p")]), float(r[header.index("eps")])) for r in rows] == [(0.3, 0.1)]
        assert (meta["p"], meta["eps"]) == ("0.3", "0.1")
        assert "grid" not in meta  # the header records the cell that ran, not the file's grid

    def test_a_flag_takes_the_other_coordinate_from_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=0.1:0.2 0.2:0.2\neps=0.25\nalgorithms=bf\n")
        out = tmp_path / "b"
        assert cli.main(["bench", "--grid-file", str(cfg), "--p", "0.3", "--n", "2000", "--seed", "0",
                         "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "ber.jsonl").read_text().splitlines()]
        assert [(r["p"], r["epsilon"]) for r in records] == [(0.3, 0.25)]

    @pytest.mark.parametrize("command", ["bench", "decay"])
    @pytest.mark.parametrize("flag", ["--p", "--eps"])
    def test_lone_flag_is_config_error(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        assert cli.main([command, flag, "0.2", "--n", "2000", "--out", str(out)]) == 2
        assert "narrows the grid" in capsys.readouterr().err
        assert not out.exists()

    def test_file_grid_wins_over_file_cell(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=0.1:0.2\np=0.3\neps=0.1\nsamples=8\n")
        out = tmp_path / "decay.csv"
        assert cli.main(["decay", "--grid-file", str(cfg), "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert [(float(r[header.index("p")]), float(r[header.index("eps")])) for r in rows] == [(0.1, 0.2)]
        assert meta["grid"] == "0.1:0.2"
        assert "p" not in meta and "eps" not in meta  # the file's p and eps did not run

    @pytest.mark.parametrize("command", ["bench", "decay"])
    @pytest.mark.parametrize("grid", ["0.1:0.2 0.1:0.2", "0.1:0.2 0.3:0.1 0.10:0.2"], ids=["same", "same-value"])
    def test_grid_cell_named_twice_is_config_error(self, tmp_path, capsys, command, grid):
        # a cell named twice would run twice, and bench would average its seeds twice
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"grid={grid}\nalgorithms=bf\nsamples=8\n")
        out = tmp_path / "out"
        assert cli.main([command, "--grid-file", str(cfg), "--n", "2000", "--out", str(out)]) == 2
        assert f"parameter grid={grid!r} must name each value once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "decay"])
    def test_out_of_range_grid_cell_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid=1.5:0.2 0.1:0.2\n")
        code = cli.main([command, "--grid-file", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


#: A bench run small enough to repeat: one cell, one seed, exact MAP only.
SMALL_BENCH = ["bench", "--n", "2000", "--seed", "0", "--k", "1"]


def small_bench(tmp_path, out) -> int:
    grid = tmp_path / "cfg.txt"
    grid.write_text("grid=0.1:0.2\nalgorithms=bf\n")
    return cli.main(SMALL_BENCH + ["--grid-file", str(grid), "--out", str(out)])


def fill_longer(path, than: int) -> None:
    path.write_bytes(b"\xff" * (than + 5000))


class TestRewrite:
    """Every file the command line writes holds exactly its new bytes, whatever it held before."""

    def test_csv_over_a_longer_file(self, tmp_path):
        out = tmp_path / "probs.csv"
        args = ["probs", "--p", "0.3", "--eps", "0.25", "--n", "3", "--out", str(out)]
        assert cli.main(args) == 0
        want = out.read_bytes()
        fill_longer(out, len(want))
        assert cli.main(args) == 0
        assert out.read_bytes() == want

    def test_bench_files_over_longer_files(self, tmp_path):
        out = tmp_path / "b"
        assert small_bench(tmp_path, out) == 0
        names = ("ber.jsonl", "ber_table.csv", "ber_table.md")
        first = {name: (out / name).read_bytes() for name in names}
        for name in names:
            fill_longer(out / name, len(first[name]))
        assert small_bench(tmp_path, out) == 0
        for name in ("ber_table.csv", "ber_table.md"):
            assert (out / name).read_bytes() == first[name]

        def records(raw: bytes) -> list[dict]:
            # runtimes differ between runs; everything else is the same
            return [{k: v for k, v in json.loads(line).items() if k != "runtime_s"} for line in raw.splitlines()]

        assert records((out / "ber.jsonl").read_bytes()) == records(first["ber.jsonl"])

    def test_a_row_that_raises_leaves_no_tail(self, tmp_path):
        out = tmp_path / "t.csv"
        fill_longer(out, 0)

        def rows():
            yield (1, 2)
            raise ValueError("row 2")

        with pytest.raises(ValueError, match="row 2"):
            cli._write_csv(out, {"k": "v"}, ["a", "b"], rows())
        assert out.read_text() == f"# schema={cli.SCHEMA_VERSION}\n# k=v\na,b\n1,2\n"

    def test_writers_open_without_truncation(self, tmp_path, monkeypatch):
        opened, real_open = {}, os.open

        def recording_open(path, flags, *args, **kwargs):
            opened[os.fspath(path)] = flags
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        out = tmp_path / "b"
        assert small_bench(tmp_path, out) == 0
        assert cli.main(["probs", "--p", "0.3", "--eps", "0.25", "--n", "2", "--out", str(tmp_path / "p.csv")]) == 0
        written = {out / name for name in ("ber.jsonl", "ber_table.csv", "ber_table.md")} | {tmp_path / "p.csv"}
        assert set(map(str, written)) <= set(opened)
        assert not [path for path, flags in opened.items() if flags & os.O_TRUNC]

    def test_simulate_to_dev_null(self):
        assert cli.main(["simulate", "--p", "0.2", "--eps", "0.1", "--n", "100", "--out", os.devnull]) == 0

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_simulate_into_a_fifo(self, tmp_path, suffix):
        args = ["simulate", "--p", "0.2", "--eps", "0.1", "--n", "100", "--seed", "4", "--out"]
        regular = tmp_path / f"regular{suffix}"
        assert cli.main(args + [str(regular)]) == 0
        fifo = tmp_path / f"fifo{suffix}"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert cli.main(args + [str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [regular.read_bytes()]
