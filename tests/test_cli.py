import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arithreg.bohr import fine_width, part_iv_width, part_ix_width
from arithreg import cli
from arithreg.cli import _build_parser, main
from arithreg.groups import make_group, parse_group
from arithreg.harmonic import save_set


@pytest.fixture
def workdir(tmp_path):
    g5 = make_group([5])
    save_set(g5, range(5), tmp_path / "full5.txt")
    g6 = make_group([2] * 6)
    hyper = [x for x in range(64) if bin(x & 0b101000).count("1") % 2 == 0]
    save_set(g6, hyper, tmp_path / "hyper6.txt")
    g101 = make_group([101])
    save_set(g101, range(0, 101, 2), tmp_path / "evens101.txt")
    (tmp_path / "odds.txt").write_text("".join(f"{i}\n" for i in range(1, 33, 2)))
    return tmp_path


NINE_PARTS = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"]


def run(args):
    return main([str(a) for a in args])


def load(path):
    return json.loads(path.read_text())


class TestCommands:
    def test_count_full_sets_on_z5(self, workdir):
        out = workdir / "count.json"
        rc = run(["count", "--group", "5", "--sets"] + [workdir / "full5.txt"] * 3 + ["--out", out])
        assert rc == 0
        rep = load(out)["report"]
        assert rep["value"] == pytest.approx(25.0)
        assert rep["brute_force"] == pytest.approx(25.0)

    @pytest.mark.parametrize("spec", ["5x5x5", "3^5"])
    def test_count_of_four_sets_is_the_literal_sum(self, spec, tmp_path):
        # 125^3 and 243^3 tuples are both inside the brute-force budget
        g = parse_group(spec)
        rng = np.random.default_rng(7)
        sets = [sorted(rng.choice(g.order, 30, replace=False).tolist()) for _ in range(4)]
        paths = [tmp_path / f"s{i}.txt" for i in range(4)]
        for members, path in zip(sets, paths):
            save_set(g, members, path)
        out = tmp_path / "count.json"
        assert run(["count", "--group", spec, "--sets", *paths, "--out", out]) == 0
        rep = load(out)["report"]
        coords = np.stack(np.unravel_index(np.arange(g.order), g.factors), axis=1).tolist()
        last = {tuple(coords[x]) for x in sets[3]}
        literal = sum(
            tuple(-(p + q + r) % m for p, q, r, m in zip(coords[a], coords[b], coords[c], g.factors))
            in last
            for a in sets[0] for b in sets[1] for c in sets[2]
        )
        assert round(rep["value"]) == rep["brute_force"] == literal > 0

    def test_regularize_f2_hyperplane_traces_an_iteration(self, workdir):
        out = workdir / "rf2.json"
        trace = workdir / "trace.json"
        rc = run([
            "regularize-f2", "--group", "2^6", "--set", workdir / "hyper6.txt",
            "--eps", "0.1", "--trace", trace, "--out", out,
        ])
        assert rc == 0
        rep = load(out)["report"]
        assert rep["trace"]["iterations"] >= 1
        assert rep["trace"]["dims"][0] == 6
        assert load(trace)["eps"] == 0.1

    def test_regularize_general_with_interval_seeding(self, workdir):
        out = workdir / "reg.json"
        rc = run([
            "regularize", "--group", "101", "--sets", workdir / "evens101.txt",
            "--eps", "0.3", "--budget", "4", "--seed-characters", "interval",
            "--out", out,
        ])
        assert rc == 0
        rep = load(out)["report"]
        assert [1] in rep["pair"]["chars"]
        assert [51] in rep["pair"]["chars"]  # inverse of 2 mod 101

    def test_tower_reports_chain_dims(self, workdir):
        out = workdir / "tower.json"
        rc = run(["tower", "--n", "11", "--depth", "3", "--seed", "7", "--out", out])
        assert rc == 0
        rep = load(out)["report"]
        assert rep["dims"] == [0, 1, 2, 8]
        assert rep["level_sizes"] == [1024, 1024, 1024]
        assert all(c["coefficient_bound_ok"] for c in rep["level_checks"])

    def test_bhk_group_and_interval(self, workdir):
        out = workdir / "bhk.json"
        rc = run([
            "bhk", "--group", "101", "--set", workdir / "evens101.txt",
            "--eps", "0.05", "--out", out,
        ])
        assert rc == 0
        rep = load(out)["report"]
        assert rep["bound_ok"] and rep["d_index"] != 0
        rc = run([
            "bhk", "--interval", "32", "--set", workdir / "odds.txt",
            "--eps", "0.1", "--out", out,
        ])
        assert rc == 0
        rep = load(out)["report"]
        assert rep["d"] == 2

    def test_remove_triangles_on_f2(self, workdir):
        out = workdir / "rm.json"
        rc = run(["remove", "--group", "2^6", "--sets", workdir / "hyper6.txt", "--out", out])
        assert rc == 0
        rep = load(out)["report"]
        assert rep["residual_triangles"] == 0

    def test_remove_triangles_past_the_global_count_bound(self, tmp_path):
        # at (Z/2)^21 one rounded spectral sum had no certified integer (exit 3)
        g = make_group([2] * 21)
        draw = np.random.default_rng(21).uniform(size=g.order) < 0.3
        save_set(g, np.flatnonzero(draw), tmp_path / "a.txt")
        out = tmp_path / "rm21.json"
        rc = run(["remove", "--group", "2^21", "--sets", tmp_path / "a.txt", "--out", out])
        assert rc == 0
        assert load(out)["report"]["residual_triangles"] == 0

    def test_remove_zero_sum_route_on_general_group(self, workdir):
        g101 = make_group([101])
        save_set(g101, range(1, 15), workdir / "a.txt")
        save_set(g101, range(1, 15), workdir / "b.txt")
        save_set(g101, list(range(40, 61)) + [99], workdir / "c.txt")
        out = workdir / "rmz.json"
        rc = run([
            "remove", "--group", "101",
            "--sets", workdir / "a.txt", workdir / "b.txt", workdir / "c.txt",
            "--eps", "0.1", "--out", out,
        ])
        assert rc == 0
        rep = load(out)["report"]
        assert rep["mode"] == "zero-sum"
        assert rep["certificate"]["attempts"][-1]["residual_tuples"] == 0

    def test_remove_zero_sum_on_f2_with_tiny_cover_radius(self, workdir):
        # kappa is tiny here, so the covering bound (2/kappa)^d is past the float range
        g7 = make_group([2] * 7)
        paths = []
        for seed in range(3):
            draw = np.random.default_rng(seed).uniform(size=128) < 0.4
            paths.append(workdir / f"s{seed}.txt")
            save_set(g7, np.flatnonzero(draw).tolist(), paths[-1])
        out = workdir / "rm7.json"
        rc = run(["remove", "--group", "2^7", "--sets", *paths, "--eps", "0.1", "--out", out])
        assert rc == 0
        rep = load(out)["report"]
        assert rep["mode"] == "zero-sum"
        assert rep["certificate"]["attempts"][-1]["residual_tuples"] == 0

    def test_regularize_trace_schema(self, workdir, tmp_path):
        g101 = make_group([101])
        qr = sorted({(x * x) % 101 for x in range(1, 101)})
        save_set(g101, qr, workdir / "qr.txt")
        trace_path = workdir / "gtrace.json"
        rc = run([
            "regularize", "--group", "101", "--sets", workdir / "qr.txt",
            "--eps", "0.05", "--budget", "8", "--trace", trace_path,
        ])
        assert rc == 0
        trace = load(trace_path)
        assert trace["converged"]
        step = trace["iterations"][0]
        for key in ("d", "eta", "eta2", "per_set_irregular", "branch",
                    "witnesses", "index_before", "index_after"):
            assert key in step

    def test_sumfree_on_odds(self, workdir):
        out = workdir / "sf.json"
        rc = run([
            "sumfree", "--n", "32", "--set", workdir / "odds.txt",
            "--eps", "0.01", "--out", out,
        ])
        assert rc == 0
        rep = load(out)["report"]
        assert len(rep["b"]) == 16 and not rep["c"]

    def test_bohr_check_reports_parts(self, workdir):
        out = workdir / "bohr.json"
        rc = run([
            "bohr-check", "--group", "101", "--d", "2", "--delta", "0.1",
            "--seed", "3", "--parts", "i", "ii", "iii", "v", "vii", "--out", out,
        ])
        assert rc == 0
        rep = load(out)["report"]
        assert {c["part"] for c in rep["checks"]} >= {"i", "ii", "iii", "v", "vii"}
        assert all(c["holds"] for c in rep["checks"])

    @pytest.mark.parametrize("group", ["101", "5x5x3"])
    def test_bohr_check_builds_the_hypotheses_of_parts_iv_viii_ix(self, workdir, group):
        out = workdir / "bohr.json"
        rc = run(["bohr-check", "--group", group, "--parts", *NINE_PARTS, "--out", out])
        assert rc == 0
        payload = load(out)
        config, checks = payload["config"], payload["report"]["checks"]
        assert [c["part"] for c in checks] == ["bohr-growth", "tail", *NINE_PARTS]
        parts = {c["part"]: c for c in checks[2:]}
        assert all(c["hypothesis_ok"] is True for c in parts.values())
        # parts vi-viii run at the widest delta' their hypothesis allows
        for part in ("vi", "vii", "viii"):
            fine = parts[part]
            assert fine["deltaPrime"] == fine_width(config["delta"], config["tau"], fine["d_prime"])
        # part iv runs at 0.9 of its narrow width when --delta is wider
        tau, d, delta = config["tau"], config["d"], config["delta"]
        assert delta > part_iv_width(tau, d)
        assert parts["iv"]["delta"] == 0.9 * part_iv_width(tau, d)
        ix = parts["ix"]
        assert ix["delta"] == delta
        assert ix["deltaPrime"] == part_ix_width(delta, ix["kappa"], ix["omega"], ix["d_prime"])
        assert {parts[p]["d_prime"] for p in ("vi", "vii", "viii", "ix")} == {d + 1}

    @pytest.mark.parametrize("given, canonical", [
        (["IV"], ["iv"]), (["VII"], ["vii"]), ([" vii"], ["vii"]),
        ([p.upper() for p in NINE_PARTS], NINE_PARTS),
    ], ids=["IV", "VII", "space-vii", "upper-nine"])
    def test_bohr_check_part_names_in_any_case(self, workdir, given, canonical):
        a, b = workdir / "a.json", workdir / "b.json"
        assert run(["bohr-check", "--group", "101", "--parts", *given, "--out", a]) == 0
        assert run(["bohr-check", "--group", "101", "--parts", *canonical, "--out", b]) == 0
        assert load(a)["report"] == load(b)["report"]

    def test_selfcheck_passes(self, capsys):
        assert run(["selfcheck", "--out", "/dev/null"]) == 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert all(line.endswith("pass") for line in lines)

    def test_selfcheck_catches_corrupted_zero_sum(self, capsys, monkeypatch):
        # mutation probe: a sign error in the spectral count must trip a suite
        import arithreg.cli as cli_mod

        real = cli_mod.zero_sum_count
        monkeypatch.setattr(cli_mod, "zero_sum_count", lambda fs: -real(fs))
        assert run(["selfcheck", "--out", "/dev/null"]) == 1
        err = capsys.readouterr().err
        assert "zero-sum: fail" in err

    def test_selfcheck_catches_corrupted_width_constant(self, capsys, monkeypatch):
        # mutation probe: nudging the power-of-two constants flags the
        # pair-constants suite
        from arithreg.reg_general import RegPair

        real_const = RegPair.const
        monkeypatch.setattr(RegPair, "const", lambda self, log2: real_const(self, log2) * 2.0)
        assert run(["selfcheck", "--out", "/dev/null"]) == 1
        err = capsys.readouterr().err
        assert "pair-constants: fail" in err


class TestCsvFormat:
    def test_csv_flattening(self, workdir):
        out = workdir / "count.csv"
        rc = run([
            "count", "--group", "5", "--sets", workdir / "full5.txt",
            workdir / "full5.txt", "--format", "csv", "--out", out,
        ])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0] == "key,value"
        assert "report.value" in text


class TestExitCodes:
    def test_parse_error_is_exit_two(self, workdir, capsys):
        assert run(["count", "--group", "notagroup", "--sets", workdir / "full5.txt"]) == 2

    def test_missing_file_is_exit_two(self, capsys):
        assert run(["count", "--group", "5", "--sets", "/nonexistent/file.txt"]) == 2

    def test_budget_error_is_exit_three(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("ARITHREG_MAX_N", "3")
        assert run([
            "count", "--group", "5",
            "--sets", workdir / "full5.txt", workdir / "full5.txt",
        ]) == 3

    def test_unknown_command_is_exit_two(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "args, text",
        [
            (["count", "--group", "5", "--sets", "{path}"], "1\nx\n"),
            (["sumfree", "--n", "32", "--set", "{path}", "--eps", "0.01"], "1\n3.5\n"),
            (["count", "--group", "5x3", "--sets", "{path}"], "1,2\n1,x\n"),
            (["tower", "--n", "3", "--depth", "2", "--verify", "{path}"], "1,0,0\n1,0,2.0\n"),
        ],
    )
    def test_malformed_set_file_line_is_exit_two(self, args, text, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run([str(path) if a == "{path}" else a for a in args]) == 2
        assert capsys.readouterr().err.startswith("error: bad ")

    @pytest.mark.parametrize(
        "args",
        [
            ["regularize-f2", "--group", "2^3", "--set", "{path}", "--eps", "0.1"],
            ["sumfree", "--n", "32", "--set", "{path}", "--eps", "0.01"],
            ["bhk", "--interval", "32", "--set", "{path}", "--eps", "0.05"],
            ["tower", "--n", "3", "--depth", "2", "--verify", "{path}"],
        ],
        ids=["set", "integer-set", "interval", "tower-basis"],
    )
    def test_undecodable_set_file_is_exit_two(self, args, tmp_path, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes("1\n".encode("utf-16"))  # starts with the bytes ff fe
        assert run([str(path) if a == "{path}" else a for a in args]) == 2
        assert capsys.readouterr().err == f"error: {path} is not UTF-8 text: invalid start byte\n"

    @pytest.mark.parametrize(
        "text, err",
        [
            ("1,2\n1,2,0\n", "element '1,2,0' has 3 coordinates, group 5x3 needs 2"),
            ("1,2\n,\n", "element ',' has 0 coordinates, group 5x3 needs 2"),
            ("1,2\n 1, x \n", "bad coordinate in element '1, x'"),
        ],
        ids=["field-count", "no-fields", "non-integer"],
    )
    def test_malformed_set_file_error_text(self, text, err, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run(["count", "--group", "5x3", "--sets", path]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "n, depth, max_n, code",
        [("11", "3", "1024", 3), ("5", "-1", None, 2), ("0", "0", None, 2)],
        ids=["enumeration-guard", "negative-depth", "no-coordinates"],
    )
    def test_tower_rejections(self, n, depth, max_n, code, monkeypatch, capsys):
        if max_n is not None:
            monkeypatch.setenv("ARITHREG_MAX_N", max_n)
        assert run(["tower", "--n", n, "--depth", depth]) == code
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--group", "5", "--sets", "{z5}", "{z5}", "{z5}", "--out", "{path}"],
            ["regularize-f2", "--group", "2^6", "--set", "{f2}", "--eps", "0.1",
             "--trace", "{path}"],
            ["selfcheck", "--out", "{path}"],
        ],
        ids=["report", "trace", "selfcheck-report"],
    )
    @pytest.mark.parametrize("target", ["missing/r.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_output_is_exit_two(self, args, target, workdir, capsys):
        paths = {"{z5}": workdir / "full5.txt", "{f2}": workdir / "hyper6.txt",
                 "{path}": workdir / target}
        assert run([paths.get(a, a) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # selfcheck lists its suites on stderr before the report is written
        assert captured.err.splitlines()[-1].startswith("error: ")
        assert args[0] == "selfcheck" or captured.err.startswith("error: ")

    @pytest.mark.parametrize("depth", ["6", "60"])
    def test_tower_past_the_fifth_level_is_exit_two(self, depth):
        # d_5 = 2^521 and d_6 = growth_step(2^(2^521 + 523)): the dimensions are
        # built only while they fit, so the rejection comes at once; a child
        # process with a timeout keeps a regression from hanging the suite
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = os.environ | {"PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "arithreg.cli", "tower", "--n", "11", "--depth", depth],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: chain dimensions (0, 1, 2, 8, 512) need 523 coordinates, only 11 available\n"
        )

    def test_bhk_on_group_of_order_one_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "z1.txt"
        path.write_text("0\n")
        assert run(["bhk", "--group", "1", "--set", path, "--eps", "0.1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bhk_with_group_and_interval_is_exit_two(self, workdir, capsys):
        # neither flag is dropped silently; naming neither keeps its own message
        odds = ["--set", workdir / "odds.txt", "--eps", "0.1"]
        assert run(["bhk", "--group", "101", "--interval", "50", *odds]) == 2
        assert capsys.readouterr().err == "error: bhk takes either --group or --interval, not both\n"
        assert run(["bhk", *odds]) == 2
        assert capsys.readouterr().err == "error: bhk needs either --group or --interval\n"

    def test_bohr_part_iv_without_characters_is_exit_two(self, capsys):
        # a negative --d or --seed describes no frequency set either
        for extra in (["--d", "0", "--parts", "iv"], ["--d", "-1", "--parts", "i"],
                      ["--seed", "-1", "--parts", "i"]):
            assert run(["bohr-check", "--group", "101"] + extra) == 2, extra
            assert capsys.readouterr().err.startswith("error: "), extra

    @pytest.mark.parametrize("part", ["iv", "IV"])
    def test_bohr_part_iv_without_characters_names_the_flag(self, part, capsys):
        assert run(["bohr-check", "--group", "101", "--d", "0", "--parts", part]) == 2
        assert capsys.readouterr().err == "error: part iv needs --d >= 1\n"

    @pytest.mark.parametrize(
        "extra, err",
        [
            (["--tau", "0", "--parts", "iv"],
             "part iv needs a positive width, but --tau 0.0 gives 0.0"),
            (["--tau", "1e-200", "--parts", "IV"],
             "part iv needs a positive width, but --tau 1e-200 gives 0.0"),
            (["--tau", "0", "--parts", "vi"],
             "part vi needs a positive width, but --tau 0.0 gives 0.0"),
            (["--delta2", "-1", "--parts", "vii"],
             "part vii needs a positive width, but --delta2 -1.0 gives -1.0"),
            (["--delta2", "0", "--parts", "viii"],
             "part viii needs a positive width, but --delta2 0.0 gives 0.0"),
            (["--tau", "0", "--parts", "ix"],
             "part ix needs a positive width, but --tau 0.0 gives 0.0"),
        ],
        ids=["iv-tau", "iv-tau-underflow", "vi-tau", "vii-delta2", "viii-delta2", "ix-tau"],
    )
    def test_bohr_nonpositive_width_names_the_flag_and_part(self, extra, err, capsys):
        assert run(["bohr-check", "--group", "101"] + extra) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_bohr_part_ix_ignores_delta2(self, workdir):
        # part ix always runs at part_ix_width, so a negative --delta2 is not its width
        a, b = workdir / "a.json", workdir / "b.json"
        cmd = ["bohr-check", "--group", "101", "--parts", "ix"]
        assert run(cmd + ["--out", a]) == 0
        assert run(cmd + ["--delta2", "-1", "--out", b]) == 0
        assert load(a)["report"] == load(b)["report"]

    @pytest.mark.parametrize("cmd", [["regularize-f2", "--set"], ["remove", "--sets"]],
                             ids=["regularize-f2", "remove"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_set_file_messages(self, cmd, kind, tmp_path, capsys):
        path = tmp_path / "set.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":
            path.write_bytes(b"1,0,0\n\xff,0,1\n")
        want = {
            "missing": f"[Errno 2] No such file or directory: {str(path)!r}",
            "directory": f"[Errno 21] Is a directory: {str(path)!r}",
            "undecodable": f"{path} is not UTF-8 text: invalid start byte",
        }[kind]
        assert run([cmd[0], "--group", "2^3", "--eps", "0.1", cmd[1], path]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_scale_in_faithful_mode_is_exit_two(self, workdir, capsys):
        assert run([
            "regularize", "--group", "5", "--sets", workdir / "full5.txt", "--eps", "0.1",
            "--mode", "faithful", "--scale", "1e12",
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("scale", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["regularize", "--group", "101", "--sets", "evens101.txt", "--eps", "0.1",
         "--mode", "scaled"],
        ["remove", "--group", "101", "--sets"] + ["evens101.txt"] * 3 + ["--eps", "0.1"],
        ["sumfree", "--n", "32", "--set", "odds.txt", "--eps", "0.01"],
    ], ids=lambda argv: argv[0])
    def test_nonpositive_scale_is_exit_two(self, workdir, capsys, argv, scale):
        # rejected where the pair is built, with the value, not as a cutoff width
        argv = [workdir / a if a.endswith(".txt") else a for a in argv]
        assert run(argv + ["--scale", scale]) == 2
        assert capsys.readouterr().err == (
            f"error: scaled mode needs scale > 0, got scale {float(scale)}\n"
        )

    @pytest.mark.parametrize("argv", [
        ["regularize", "--group", "101", "--sets", "evens101.txt"],
        ["remove", "--group", "101", "--sets"] + ["evens101.txt"] * 3,
    ], ids=lambda argv: argv[0])
    def test_underflowing_scale_is_exit_two(self, workdir, capsys, argv):
        # a positive scale whose narrow width eta2 rounds to 0 is named with that width
        argv = [workdir / a if a.endswith(".txt") else a for a in argv]
        assert run(argv + ["--mode", "scaled", "--scale", "1e-300", "--eps", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "error: scale 1e-300 underflows the narrow cutoff width eta2 to 0.0"
            " (eps 0.1, eta 1e-300)\n"
        )

    @pytest.mark.parametrize("argv", [
        ["regularize", "--group", "101", "--sets", "evens101.txt"],
        ["bhk", "--group", "101", "--set", "evens101.txt"],
    ], ids=lambda argv: argv[0])
    def test_underflowing_eps_in_faithful_mode_is_exit_two(self, workdir, capsys, argv):
        # faithful mode has no scale, so the narrow width eta2 is blamed on eps
        argv = [workdir / a if a.endswith(".txt") else a for a in argv]
        assert run(argv + ["--eps", "1e-300"]) == 2
        assert capsys.readouterr().err == (
            "error: eps 1e-300 underflows the narrow cutoff width eta2 to 0.0 (eta 1.0)\n"
        )

    def test_non_finite_number_is_exit_two(self, workdir, capsys):
        assert run(["bhk", "--interval", "32", "--set", workdir / "odds.txt", "--eps", "nan"]) == 2

    @pytest.mark.parametrize("eps", ["0", "-0.5"])
    @pytest.mark.parametrize("argv", [
        ["bhk", "--interval", "32", "--set", "odds.txt"],
        ["bhk", "--group", "101", "--set", "evens101.txt"],
        ["sumfree", "--n", "32", "--set", "odds.txt"],
    ], ids=["bhk-interval", "bhk-group", "sumfree"])
    def test_nonpositive_eps_is_exit_two(self, workdir, capsys, argv, eps):
        argv = [workdir / a if a.endswith(".txt") else a for a in argv]
        assert run(argv + ["--eps", eps]) == 2
        assert capsys.readouterr().err == f"error: need eps > 0, got eps {float(eps)}\n"

    @pytest.mark.parametrize("text, bad", [("5\n21\n0\n", 21), ("5\n0\n21\n", 0)])
    @pytest.mark.parametrize("cmd", [["bhk", "--interval", "20"], ["sumfree", "--n", "20"]],
                             ids=["bhk-interval", "sumfree"])
    def test_integer_member_out_of_range_is_named(self, cmd, text, bad, tmp_path, capsys):
        path = tmp_path / "ints.txt"
        path.write_text(text)
        assert run(cmd + ["--set", path, "--eps", "0.1"]) == 2
        assert capsys.readouterr().err == f"error: members must lie in [1, 20], got {bad}\n"

    @pytest.mark.parametrize("argv", [
        ["regularize", "--group", "101", "--sets", "evens101.txt", "--eps", "1e100"],
        ["remove", "--group", "101", "--sets"] + ["evens101.txt"] * 3 + ["--eps", "1e100"],
        ["sumfree", "--n", "32", "--set", "odds.txt", "--eps", "1e100"],
        ["bhk", "--group", "101", "--set", "evens101.txt", "--eps", "1e200"],
        ["regularize-f2", "--group", "2^6", "--set", "hyper6.txt", "--eps", "1e-200"],
        ["bhk", "--interval", "32", "--set", "odds.txt", "--eps", "1e308"],
        ["bohr-check", "--group", "101", "--delta", "1e308"],
        ["bohr-check", "--group", "101", "--delta", "1e200", "--eta", "1e308"],
        ["bohr-check", "--group", "101", "--tau", "1e308", "--parts", "iv"],
        ["bohr-check", "--group", "101", "--tau", "1e200", "--parts", "vii"],
        ["bohr-check", "--group", "1009", "--d", "450"],  # 5^450 in the doubling bound
        ["bohr-check", "--group", "1009", "--d", "441", "--parts", "v"],  # 4 * 5^441, tail
        ["bohr-check", "--group", "101", "--d", "1", "--delta", "1e307"],  # delta N, growth
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv if not a.endswith(".txt")))
    def test_finite_number_out_of_range_is_exit_two(self, workdir, capsys, argv):
        # a float power or product overflows on these finite flags
        assert run([workdir / a if a.endswith(".txt") else a for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, name", [
        (["bhk", "--group", "101", "--set", "evens101.txt", "--eps", "0.05"], "ap3_table"),
        (["bhk", "--interval", "32", "--set", "odds.txt", "--eps", "0.1"], "_interval_ap3_counts"),
    ], ids=["group", "interval"])
    def test_witness_failing_its_recount_is_exit_four(
        self, workdir, monkeypatch, capsys, argv, name
    ):
        import arithreg.applications as app

        real = getattr(app, name)
        monkeypatch.setattr(app, name, lambda *args: real(*args) + 1)
        assert run([workdir / a if a.endswith(".txt") else a for a in argv]) == 4
        assert "recount" in capsys.readouterr().err

    def test_library_value_error_is_not_exit_two(self, workdir, monkeypatch):
        def broken(fs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("arithreg.cli.zero_sum_count", broken)
        with pytest.raises(ValueError, match="broadcast"):
            run(["count", "--group", "5", "--sets"] + [workdir / "full5.txt"] * 3)


class TestTowerVerify:
    def test_verify_lists_the_levels_that_contain_the_subgroup(self, workdir):
        # (Z/2)^11 at depth 3: H_1 is spanned by the low 10 bits, H_2 by the low 8
        g11 = make_group([2] * 11)
        basis = workdir / "basis.txt"
        save_set(g11, [(1 << 9) | 1, 0b110, (1 << 8) | 0b101], basis)
        cmd = ["tower", "--n", "11", "--depth", "3", "--seed", "5", "--verify", basis]
        a, b = workdir / "a.json", workdir / "b.json"
        assert run(cmd + ["--out", a]) == 0
        assert run(cmd + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        verify = load(a)["report"]["verify"]
        assert [chk["i"] for chk in verify] == [0, 1]
        assert all(chk["coefficient_bound_ok"] for chk in verify)

    def test_basis_file_with_blank_lines(self, workdir):
        g11 = make_group([2] * 11)
        basis, spaced = workdir / "basis.txt", workdir / "spaced.txt"
        save_set(g11, [(1 << 9) | 1, 0b110], basis)
        spaced.write_text("\n" + basis.read_text().replace("\n", "\n  \n\t\n"))
        cmd = ["tower", "--n", "11", "--depth", "3", "--seed", "5", "--verify"]
        a, b = workdir / "a.json", workdir / "b.json"
        assert run(cmd + [basis, "--out", a]) == 0
        assert run(cmd + [spaced, "--out", b]) == 0
        assert load(b)["report"] == load(a)["report"]
        assert [chk["i"] for chk in load(b)["report"]["verify"]] == [0, 1]


class TestDeterminism:
    @pytest.mark.parametrize(
        "cmd",
        [
            ["bohr-check", "--group", "101", "--d", "2", "--delta", "0.1", "--seed", "11"],
            ["tower", "--n", "11", "--depth", "3", "--seed", "5"],
            ["bohr-check", "--group", "5x5x3", "--seed", "3", "--parts", *NINE_PARTS],
        ],
    )
    def test_repeat_runs_are_byte_identical(self, cmd, workdir):
        a, b = workdir / "a.json", workdir / "b.json"
        assert run(cmd + ["--out", a]) == 0
        assert run(cmd + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "cmd",
        [["regularize-f2", "--group", "2^8", "--eps", "0.1", "--set"],
         ["remove", "--group", "2^8", "--eps", "0.1", "--sets"]],
        ids=["regularize-f2", "remove"],
    )
    def test_set_file_layouts_give_identical_reports(self, cmd, tmp_path, capsys):
        # the byte reader takes the canonical file, the text parser the other two
        g = make_group([2] * 8)
        members = np.random.default_rng(8).permutation(g.order)[:100]
        path = tmp_path / "set.txt"
        save_set(g, members, path)
        rows = path.read_text().splitlines()
        layouts = [
            path.read_bytes(),
            "".join(f"{row}\r\n" for row in rows).encode(),
            "".join(f" {row.replace(',', ' , ')} ,\n" for row in rows).encode(),
        ]
        reports = []
        for data in layouts:
            path.write_bytes(data)
            assert run(cmd + [path]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0])["report"]["group"] == "2x2x2x2x2x2x2x2"

    def test_count_reports_are_byte_identical(self, workdir):
        a, b = workdir / "a.json", workdir / "b.json"
        cmd = ["count", "--group", "5", "--sets", workdir / "full5.txt", workdir / "full5.txt"]
        assert run(cmd + ["--out", a]) == 0
        assert run(cmd + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    # rows, sizes, deletions, routes and best differences as the experiment
    # loops reported them before they moved into the CLI
    def test_removal_rows_name_a_known_pipeline(self, capsys):
        assert run(["sweep", "removal", "--group", "2^6", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["report"]["rows"]
        assert payload["report"]["group"] == "2x2x2x2x2x2" and len(rows) == 5
        assert [r["size"] for r in rows] == [5, 10, 19, 26, 42]
        assert [r["removed"] for r in rows] == [5, 10, 19, 26, 42]
        assert [r["pipeline"] for r in rows] == ["reduced-set"] * 5
        assert all(r["removed"] <= r["size"] for r in rows)

    def test_progression_rows_pin_the_best_difference(self, capsys):
        assert run(["sweep", "progression", "--group", "31", "--densities", "0.3"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert [r["best_d"] for r in report["rows"]] == [1]
        assert report["rows"][0]["best_count"] == 1.0
        assert report["nu_mass"] == pytest.approx(1.0) == report["nu_mass_spectral"]
        assert run(["sweep", "progression", "--group", "501", "--seed", "1"]) == 0
        rows = json.loads(capsys.readouterr().out)["report"]["rows"]
        assert [r["best_d"] for r in rows] == [12, 179, 179]

    def test_cutoff_slack_rows_follow_the_draws(self, capsys):
        assert run(["sweep", "cutoff-slack", "--group", "31", "--draws", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)["report"]["rows"]
        assert [r["d"] for r in rows] == [3, 3]
        assert [round(r["delta"], 6) for r in rows] == [0.136008, 0.412485]

    @pytest.mark.parametrize("argv, flags", [
        (["cutoff-slack", "--group", "5x5x3", "--draws", "3", "--seed", "3"],
         {"group", "draws", "seed"}),
        (["progression", "--group", "31", "--seed", "2"], {"group", "eps", "seed", "densities"}),
        (["removal", "--group", "2^5", "--seed", "4"], {"group", "seed", "densities"}),
    ], ids=lambda v: v[0] if isinstance(v, list) else "")
    def test_reports_are_byte_identical_on_stdout_and_out(self, argv, flags, tmp_path, capsys):
        outs = []
        for _ in range(2):
            assert run(["sweep", *argv]) == 0
            outs.append(capsys.readouterr().out)
        assert run(["sweep", *argv, "--out", tmp_path / "r.json"]) == 0
        assert outs[0] == outs[1] == (tmp_path / "r.json").read_text()
        # the config holds the kind's own flags and nothing from the other kinds
        config = json.loads(outs[0])["config"]
        assert set(config) == flags | {"command", "kind", "format"}
        assert config["kind"] == argv[0]

    @pytest.mark.parametrize("argv, err", [
        (["cutoff-slack", "--seed", "-1"], "--seed must be >= 0"),
        (["progression", "--seed", "-1"], "--seed must be >= 0"),
        (["removal", "--seed", "-1"], "--seed must be >= 0"),
        (["progression", "--group", "30"], "progression witness search needs odd group order"),
        (["removal", "--group", "3^3"], "operation requires (Z/2)^n, got 3x3x3"),
        (["removal", "--group", "6", "--densities"], "operation requires (Z/2)^n, got 6"),
        (["cutoff-slack", "--draws", "-3"], "--draws must be >= 0"),
    ])
    def test_usage_errors_are_exit_two(self, argv, err, capsys):
        assert run(["sweep", *argv]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_no_draws_is_an_empty_sweep(self, capsys):
        assert run(["sweep", "cutoff-slack", "--draws", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["rows"] == []


# each command with its required flags, which parse without opening a file
REQUIRED = {
    "regularize-f2": ["--group", "2^4", "--set", "s.txt", "--eps", "0.1"],
    "regularize": ["--group", "5", "--sets", "s.txt", "--eps", "0.1"],
    "count": ["--group", "5", "--sets", "s.txt"],
    "remove": ["--group", "5", "--sets", "s.txt"],
    "bhk": ["--set", "s.txt", "--eps", "0.1"],
    "sumfree": ["--n", "5", "--set", "s.txt", "--eps", "0.1"],
    "tower": ["--n", "5", "--depth", "1"],
    "bohr-check": ["--group", "5"],
    "sweep": ["removal"],
    "selfcheck": [],
}


def _error_and_help_matrix():
    cases = [[], ["-h"], ["frobnicate"], ["--out", "r.json", "count"], ["--bogus"]]
    for name, required in REQUIRED.items():
        cases += [
            [name, "-h"],
            [name, *required, "--format", "xml"],
            [name, *required, "--bogus", "1"],
        ]
        if required:
            cases.append([name, *required[:-2]])
    return cases + [["sweep", "frobnicate"], ["sweep", "removal", "-h"]]


class TestParserBuild:
    """main builds the top level and only the sub-parser its first token names.

    Help, errors and parsed namespaces are those of the whole parser.
    """

    def test_every_command_has_a_matrix_row(self):
        assert list(REQUIRED) == list(cli._COMMANDS)

    @pytest.mark.parametrize("argv", _error_and_help_matrix(), ids=" ".join)
    def test_output_and_exit_code_match_the_whole_parser(self, argv, capsys, monkeypatch):
        got = main(argv), *capsys.readouterr()
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: _build_parser())
        assert got == (main(argv), *capsys.readouterr())
        assert got[0] in (0, 2) and (got[1] or got[2])

    @pytest.mark.parametrize("argv, tail", [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
         + ", ".join(map(repr, cli._COMMANDS)) + ")"),
    ])
    def test_whole_parser_errors_name_the_command_argument(self, argv, tail, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"arithreg: error: {tail}\n")

    @pytest.fixture
    def built(self, monkeypatch):
        # count every parser made, sub-parsers included; no timing
        made = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return made

    @pytest.mark.parametrize("argv, parsers, code", [
        (["count", "--group", "5", "--sets", "{full5}", "{full5}"], 2, 0),
        # the sweep sub-parser and its three kinds
        (["sweep", "cutoff-slack", "--group", "31", "--draws", "0"], 5, 0),
        (["selfcheck", "-h"], 2, 0),
        (["-h"], 14, 0),
        (["frobnicate"], 14, 2),
        ([], 14, 2),
    ])
    def test_parsers_built_per_call(self, argv, parsers, code, built, workdir, capsys):
        assert main([a.format(full5=workdir / "full5.txt") for a in argv]) == code
        assert len(built) == parsers

    def test_entry_point_reads_sys_argv_and_builds_one_command(
        self, built, workdir, monkeypatch, capsys
    ):
        argv = ["count", "--group", "5", "--sets", *[str(workdir / "full5.txt")] * 2]
        monkeypatch.setattr(sys, "argv", ["arithreg", *argv])
        assert main() == 0 and len(built) == 2
        out = capsys.readouterr().out
        assert main(argv) == 0 and capsys.readouterr().out == out


def test_readme_cli_examples_parse():
    # parsing opens no file, so the examples need none of their inputs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("arithreg ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)
        assert callable(args.func), line
        assert _build_parser(argv[0]).parse_args(argv) == args, line
