import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from truthfuse import Claim, FusionConfig
from truthfuse.cli import build_parser, main
from truthfuse.ingest import write_claims, write_golden

from conftest import table1_claims


@pytest.fixture()
def table1_file(tmp_path):
    path = tmp_path / "table1.csv"
    write_claims(path, table1_claims())
    return path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


# a seeded world whose generated and fused outputs are pinned by sha256
SEEDED_WORLD = (
    "generate", "--objects", "40", "--independents", "6", "--copiers", "3",
    "--n", "10", "--coverage", "0.8", "--seed", "3", "--out-prefix", "w",
)


def sha256_of(*paths) -> dict[str, str]:
    return {str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths}


class TestFuse:
    def test_vote_writes_five_truth_rows(self, table1_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "fuse", table1_file, "--variant", "vote", "--n", "5",
            "--min-overlap", "1", "--no-normalize", "--out-prefix", "out",
        )
        assert code == 0
        lines = Path("out.truths.csv").read_text().strip().splitlines()
        assert lines[0] == "object,value,probability"
        assert len(lines) == 6

    def test_manifest_records_resolved_config(self, table1_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "fuse", table1_file, "--variant", "accucopy",
            "--alpha", ".2", "--c", ".8", "--eps", ".2", "--n", "100",
            "--no-normalize", "--out-prefix", "out",
        )
        assert code == 0
        manifest = json.loads(Path("out.manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.2
        assert manifest["config"]["c"] == 0.8
        assert manifest["config"]["eps"] == 0.2
        assert manifest["config"]["n"] == 100
        assert manifest["variant"] == "accucopy"
        assert str(table1_file) in manifest["inputs"]

    def test_missing_file_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run_cli("fuse", "no-such-file.csv", "--variant", "vote")
        assert code == 1
        assert "no-such-file.csv" in capsys.readouterr().err

    def test_report_lists_termination_and_accuracies(
        self, table1_file, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        run_cli(
            "fuse", table1_file, "--variant", "accucopy", "--n", "5",
            "--alpha", ".5", "--min-overlap", "1", "--no-normalize",
            "--out-prefix", "out",
        )
        report = json.loads(Path("out.report.json").read_text())
        assert report["termination"] in {"converged", "oscillation", "max_rounds"}
        assert set(report["accuracies"]) == {"S1", "S2", "S3", "S4", "S5"}
        assert report["rounds_run"] >= 1


class TestDetectCopies:
    def test_table1_yields_ten_rows(self, table1_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "detect-copies", table1_file, "--n", "5", "--alpha", ".5",
            "--min-overlap", "1", "--no-normalize", "--out-prefix", "pairs",
        )
        assert code == 0
        lines = Path("pairs.pairs.csv").read_text().strip().splitlines()
        assert lines[0] == "source_a,source_b,p_indep,p_a_copies_b,p_b_copies_a,direction"
        assert len(lines) == 11

    def test_rows_sorted_by_ascending_independence(
        self, table1_file, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        run_cli(
            "detect-copies", table1_file, "--n", "5", "--alpha", ".5",
            "--min-overlap", "1", "--no-normalize", "--out-prefix", "pairs",
        )
        lines = Path("pairs.pairs.csv").read_text().strip().splitlines()[1:]
        p_indep = [float(line.split(",")[2]) for line in lines]
        assert p_indep == sorted(p_indep)
        # the copier cluster pairs head the table
        top = {tuple(line.split(",")[:2]) for line in lines[:3]}
        assert top == {("S3", "S4"), ("S3", "S5"), ("S4", "S5")}

    def test_direction_column_present(self, table1_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(
            "detect-copies", table1_file, "--n", "5", "--alpha", ".5",
            "--min-overlap", "1", "--direction-threshold", "0.667",
            "--no-normalize", "--out-prefix", "pairs",
        )
        lines = Path("pairs.pairs.csv").read_text().strip().splitlines()[1:]
        labels = {line.split(",")[5] for line in lines}
        assert labels <= {"undirected"} | {
            f"{a}_copies_{b}" for a in "S1 S2 S3 S4 S5".split() for b in "S1 S2 S3 S4 S5".split()
        }

    def test_min_overlap_above_objects_gives_empty_table(
        self, table1_file, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "detect-copies", table1_file, "--n", "5", "--min-overlap", "10",
            "--no-normalize", "--out-prefix", "pairs",
        )
        assert code == 0
        lines = Path("pairs.pairs.csv").read_text().strip().splitlines()
        assert len(lines) == 1


class TestEval:
    def test_identical_files_score_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        golden = {"o1": "jane doe", "o2": "john smith"}
        write_golden("golden.csv", golden)
        write_golden("truths.csv", golden)
        code = run_cli("eval", "truths.csv", "golden.csv", "--out-prefix", "score")
        assert code == 0
        rows = dict(
            line.split(",", 1)
            for line in Path("score.eval.csv").read_text().strip().splitlines()[1:]
        )
        assert float(rows["precision"]) == 1.0

    def test_error_taxonomy_counts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_golden("golden.csv", {"o1": "jane doe; john smith", "o2": "ann brown"})
        write_golden("truths.csv", {"o1": "jane doe", "o2": "ann brown"})
        code = run_cli("eval", "truths.csv", "golden.csv", "--out-prefix", "score")
        assert code == 0
        rows = dict(
            line.split(",", 1)
            for line in Path("score.eval.csv").read_text().strip().splitlines()[1:]
        )
        assert float(rows["precision"]) == 0.5
        assert int(rows["missing_author"]) == 1
        assert int(rows["additional_author"]) == 0

    def test_missing_golden_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_golden("truths.csv", {"o1": "x y"})
        assert run_cli("eval", "truths.csv", "absent.csv") == 1

    def test_computed_vs_sampled_accuracy_table(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(
            "generate", "--objects", "50", "--independents", "6", "--copiers", "2",
            "--n", "10", "--coverage", "1.0", "--seed", "5", "--out-prefix", "w",
        )
        run_cli(
            "fuse", "w.claims.csv", "--variant", "accu", "--n", "10",
            "--no-normalize", "--out-prefix", "f",
        )
        code = run_cli(
            "eval", "f.truths.csv", "w.golden.csv", "--no-normalize",
            "--fuse-report", "f.report.json", "--claims", "w.claims.csv",
            "--out-prefix", "e",
        )
        assert code == 0
        lines = Path("e.accuracy.csv").read_text().strip().splitlines()
        assert lines[0] == "source,computed,sampled,abs_difference"
        assert len(lines) == 9  # every source asserts all 50 golden objects
        rows = dict(
            line.split(",", 1)
            for line in Path("e.eval.csv").read_text().strip().splitlines()[1:]
        )
        assert 0.0 <= float(rows["avg_accuracy_difference"]) <= 1.0

    def test_negative_min_golden_exits_one_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run_cli(
            "generate", "--objects", "30", "--independents", "5", "--copiers", "2",
            "--n", "10", "--seed", "1", "--out-prefix", "w",
        )
        run_cli("fuse", "w.claims.csv", "--n", "10", "--min-overlap", "5", "--out-prefix", "f")
        # ind001 does not list o0001, so it has no golden object at all
        assert "ind001,o0001," not in Path("w.claims.csv").read_text()
        write_golden("golden.csv", {"o0001": "o0001_v9"})
        capsys.readouterr()
        code = run_cli(
            "eval", "f.truths.csv", "golden.csv", "--fuse-report", "f.report.json",
            "--claims", "w.claims.csv", "--min-golden", "-1", "--out-prefix", "e",
        )
        assert code == 1
        assert "--min-golden must be >= 0, got -1" in capsys.readouterr().err
        assert not Path("e.manifest.json").exists()

    def test_negative_min_golden_without_report_exits_one(self, tmp_path, monkeypatch, capsys):
        # the flag is refused even where no accuracy table would read it
        monkeypatch.chdir(tmp_path)
        write_golden("golden.csv", {"o1": "a"})
        write_golden("truths.csv", {"o1": "a"})
        code = run_cli("eval", "truths.csv", "golden.csv", "--min-golden", "-3", "--out-prefix", "e")
        assert code == 1
        assert "--min-golden must be >= 0, got -3" in capsys.readouterr().err
        assert not Path("e.eval.csv").exists()
        assert not Path("e.manifest.json").exists()

    def test_no_source_over_min_golden_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run_cli(
            "generate", "--objects", "3", "--independents", "1", "--copiers", "5",
            "--out-prefix", "w",
        )
        run_cli("fuse", "w.claims.csv", "--min-overlap", "0", "--out-prefix", "f")
        capsys.readouterr()
        code = run_cli(
            "eval", "f.truths.csv", "w.golden.csv", "--fuse-report", "f.report.json",
            "--claims", "w.claims.csv", "--min-golden", "50", "--out-prefix", "e",
        )
        assert code == 1
        assert "no source has more than 50 golden objects" in capsys.readouterr().err
        for suffix in ("eval.csv", "accuracy.csv", "manifest.json"):
            assert not Path(f"e.{suffix}").exists()

    def test_tab_delimited_truths_round_trip(self, tmp_path, monkeypatch):
        # only truths.csv follows --delimiter, since eval reads it back
        monkeypatch.chdir(tmp_path)
        Path("claims.tsv").write_text(
            "source\tobject\tvalue\n"
            "s1\to1\tsmith, jane\n"
            "s2\to1\tsmith, jane\n"
            "s3\to1\tdoe\n"
            "s1\to2\tbrown\n"
            "s2\to2\tbrown\n",
            encoding="utf-8",
        )
        Path("golden.tsv").write_text(
            "object\tvalue\no1\tsmith, jane\no2\tbrown\n", encoding="utf-8"
        )
        assert run_cli(
            "fuse", "claims.tsv", "--delimiter", "tab", "--no-normalize", "--out-prefix", "f"
        ) == 0
        rows = Path("f.truths.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "object\tvalue\tprobability"
        assert [row.split("\t")[:2] for row in rows[1:]] == [
            ["o1", "smith, jane"], ["o2", "brown"]
        ]
        assert run_cli(
            "eval", "f.truths.csv", "golden.tsv", "--delimiter", "tab",
            "--no-normalize", "--out-prefix", "e",
        ) == 0
        metrics = dict(
            line.split(",", 1) for line in Path("e.eval.csv").read_text().splitlines()[1:]
        )
        assert float(metrics["precision"]) == 1.0

    def test_fuse_report_without_claims_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        golden = {"o1": "a b"}
        write_golden("golden.csv", golden)
        write_golden("truths.csv", golden)
        Path("report.json").write_text('{"accuracies": {}}')
        assert run_cli(
            "eval", "truths.csv", "golden.csv", "--fuse-report", "report.json"
        ) == 1

    def test_claims_without_fuse_report_exits_one(
        self, table1_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        golden = {"o1": "a b"}
        write_golden("golden.csv", golden)
        write_golden("truths.csv", golden)
        assert run_cli("eval", "truths.csv", "golden.csv", "--claims", table1_file) == 1
        assert "--claims requires --fuse-report" in capsys.readouterr().err
        assert not Path("evaluation.manifest.json").exists()

    @pytest.mark.parametrize(
        "report, message",
        [
            ("{not json", "line 1: report.json is not JSON"),
            (
                '{\n  "rounds_run": 3,\n  "accuracies": {"A": 0.5,}\n}',
                "line 3: report.json is not JSON",
            ),
            ("{}", "report.json is not a fuse report"),
            ("[1, 2]", "report.json is not a fuse report"),
            ('{"accuracies": [0.5]}', "report.json is not a fuse report"),
            ('{"accuracies": {"A": "high"}}', "report.json is not a fuse report"),
            ('{"accuracies": {"A": true}}', "report.json is not a fuse report"),
            ('{"accuracies": {"A": 0.5, "B": NaN}}', "source 'B' has accuracy nan"),
            ('{"accuracies": {"B": Infinity}}', "source 'B' has accuracy inf"),
            ('{"accuracies": {"B": 7.5}}', "source 'B' has accuracy 7.5"),
            ('{"accuracies": {"B": -0.1}}', "source 'B' has accuracy -0.1"),
        ],
        ids=["not-json", "json-error-line", "no-accuracies", "not-a-map", "list",
             "string-accuracy", "bool-accuracy", "nan-accuracy", "infinite-accuracy",
             "accuracy-above-one", "negative-accuracy"],
    )
    def test_bad_fuse_report_exits_one_naming_it(
        self, report, message, table1_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        golden = {"Carey": "uci"}
        write_golden("golden.csv", golden)
        write_golden("truths.csv", golden)
        Path("report.json").write_text(report)
        code = run_cli(
            "eval", "truths.csv", "golden.csv", "--fuse-report", "report.json",
            "--claims", table1_file,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


    @pytest.fixture()
    def self_contradiction(self, tmp_path, monkeypatch):
        """Eval inputs whose claim file has S1 asserting two values for o1."""
        monkeypatch.chdir(tmp_path)
        write_claims("claims.csv", [
            Claim("S1", "o1", "a"), Claim("S2", "o1", "a"), Claim("S1", "o1", "b"),
        ])
        write_golden("golden.csv", {"o1": "a"})
        write_golden("truths.csv", {"o1": "a"})
        Path("report.json").write_text('{"accuracies": {"S1": 0.9, "S2": 0.9}}')
        return (
            "eval", "truths.csv", "golden.csv", "--no-normalize", "--min-golden", "0",
            "--fuse-report", "report.json", "--claims", "claims.csv",
        )

    def test_self_contradicting_claims_exit_one_naming_the_conflict(
        self, self_contradiction, capsys
    ):
        assert run_cli(*self_contradiction) == 1
        err = capsys.readouterr().err
        assert "source 'S1' asserts both 'a' and 'b' for object 'o1'" in err
        assert "Traceback" not in err

    def test_keep_first_accepts_self_contradicting_claims(self, self_contradiction):
        assert run_cli(*self_contradiction, "--keep-first") == 0
        lines = Path("evaluation.accuracy.csv").read_text().strip().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["S1", "0.9", "1.0"], ["S2", "0.9", "1.0"]
        ]


class TestGenerate:
    def test_deterministic_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = (
            "generate", "--objects", "100", "--independents", "10",
            "--copiers", "5", "--seed", "7", "--n", "10",
        )
        assert run_cli(*args, "--out-prefix", "a") == 0
        assert run_cli(*args, "--out-prefix", "b") == 0
        for suffix in ("claims.csv", "golden.csv", "copies.csv"):
            assert Path(f"a.{suffix}").read_bytes() == Path(f"b.{suffix}").read_bytes()

    def test_seeded_outputs_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*SEEDED_WORLD) == 0
        assert sha256_of("w.claims.csv", "w.golden.csv", "w.copies.csv") == {
            "w.claims.csv": "2ae6cec90a45b315e81a6945f420c7d9925a78b655dee7a2db34df5f69d05b83",
            "w.golden.csv": "b833063cf4cb2573d6c4246a6b10f092835233e5aeb930bf7da3cd50b887484c",
            "w.copies.csv": "0f7fe2afb52ab440dac9a529758545c2d28a1647a33dbe2c7200d5ae8da56ab2",
        }

    def test_fused_outputs_of_the_seeded_world_are_pinned(self, tmp_path, monkeypatch):
        # relative paths, so each manifest's argv and inputs are the same in any directory
        monkeypatch.chdir(tmp_path)
        assert run_cli(*SEEDED_WORLD) == 0
        flags = ("--n", "10", "--min-overlap", "5")
        assert run_cli("fuse", "w.claims.csv", *flags, "--out-prefix", "f") == 0
        assert run_cli("detect-copies", "w.claims.csv", *flags, "--out-prefix", "d") == 0
        assert run_cli(
            "eval", "f.truths.csv", "w.golden.csv", "--fuse-report", "f.report.json",
            "--claims", "w.claims.csv", "--out-prefix", "e",
        ) == 0
        assert sha256_of(
            "d.pairs.csv", "e.eval.csv", "e.accuracy.csv",
            "f.manifest.json", "d.manifest.json", "e.manifest.json",
        ) == {
            "d.pairs.csv": "d93e7e9fbdbccc745c29d7976f8536d3c0437ae528ac70de50feb44c7dfafe82",
            "e.eval.csv": "1b0c68e2f24c72fbc7f044c570b80cc7f609d6e5f336e5ee3fe8677d39cb7866",
            "e.accuracy.csv": "427329c92c27369a24e80fd1e8a9ec8b32ac0489ece23eee5afb3719313c7879",
            "f.manifest.json": "cfe781bb8a812b6ea66e461e443a8ba3b35b268e8a4bd680f63316c387f427f4",
            "d.manifest.json": "4124c0fc7751821c186b7aee1884fc9b19e098a1706cd660081bd3a2685bfdd4",
            "e.manifest.json": "8adec431604637c942f4bcb00c402111a3a8b4e653904119c4d18b3f515bd649",
        }

    def test_zero_copiers_gives_empty_graph_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(
            "generate", "--objects", "10", "--independents", "3",
            "--copiers", "0", "--seed", "1", "--out-prefix", "w",
        )
        assert Path("w.copies.csv").read_text() == "copier,original\n"

    def test_invalid_spec_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(
            "generate", "--objects", "0", "--independents", "3", "--out-prefix", "w"
        ) == 1

    def test_generated_world_fused_beats_vote(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(
            "generate", "--objects", "60", "--independents", "10", "--copiers", "5",
            "--n", "10", "--coverage", "0.9", "--seed", "11", "--out-prefix", "w",
        )
        for variant, prefix in (("vote", "v"), ("accucopy", "a")):
            assert run_cli(
                "fuse", "w.claims.csv", "--variant", variant, "--n", "10",
                "--no-normalize", "--out-prefix", prefix,
            ) == 0
            assert run_cli(
                "eval", f"{prefix}.truths.csv", "w.golden.csv",
                "--no-normalize", "--out-prefix", f"{prefix}e",
            ) == 0

        def score(prefix):
            rows = dict(
                line.split(",", 1)
                for line in Path(f"{prefix}e.eval.csv").read_text().strip().splitlines()[1:]
            )
            return float(rows["precision"])

        assert score("a") >= score("v")


class TestThreadsDefault:
    @pytest.mark.parametrize("command", ["fuse", "detect-copies"])
    def test_threads_default_to_one(self, command):
        # still parsed because recorded manifest argv pass it; the engine ignores it
        assert build_parser().parse_args([command, "claims.csv"]).threads == 1


@pytest.mark.parametrize("command", ["fuse", "detect-copies"])
def test_config_flag_defaults_are_the_fusion_config_defaults(command):
    args = vars(build_parser().parse_args([command, "claims.csv"]))
    defaults = dataclasses.asdict(FusionConfig())
    assert {name: args[name] for name in defaults} == defaults


class TestDeterminismAcrossReruns:
    def test_fuse_outputs_byte_identical_at_any_thread_count(
        self, table1_file, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        base = (
            "fuse", table1_file, "--variant", "accucopy", "--n", "5",
            "--alpha", ".5", "--min-overlap", "1", "--no-normalize",
        )
        assert run_cli(*base, "--threads", "1", "--out-prefix", "t1") == 0
        assert run_cli(*base, "--threads", "4", "--out-prefix", "t4") == 0
        assert (
            Path("t1.truths.csv").read_bytes() == Path("t4.truths.csv").read_bytes()
        )
        assert (
            Path("t1.report.json").read_bytes() == Path("t4.report.json").read_bytes()
        )

    def test_rerun_from_manifest_argv_reproduces_outputs(
        self, table1_file, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        args = [
            "fuse", str(table1_file), "--variant", "accucopy", "--n", "5",
            "--alpha", ".5", "--min-overlap", "1", "--no-normalize",
            "--out-prefix", "runa",
        ]
        assert main(args) == 0
        manifest = json.loads(Path("runa.manifest.json").read_text())
        recorded = list(manifest["argv"])
        recorded[recorded.index("runa")] = "runb"
        assert main(recorded) == 0
        assert (
            Path("runa.truths.csv").read_bytes() == Path("runb.truths.csv").read_bytes()
        )
        assert (
            Path("runa.report.json").read_bytes() == Path("runb.report.json").read_bytes()
        )


class TestBadInput:
    @pytest.mark.parametrize(
        "command",
        [
            ["fuse", "bad.csv"],
            ["eval", "bad.csv", "golden.csv"],
            ["eval", "truths.csv", "bad.csv"],
        ],
    )
    def test_non_utf8_byte_exits_one_naming_its_line(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write_golden("golden.csv", {"o1": "jane doe"})
        write_golden("truths.csv", {"o1": "jane doe"})
        header = b"source,object,value\n" if command[0] == "fuse" else b"object,value\n"
        rows = b"s1,o1,jane doe\n" if command[0] == "fuse" else b"o1,jane doe\n"
        Path("bad.csv").write_bytes(header + rows + rows.replace(b"jane", b"j\xffne"))
        assert run_cli(*command) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["fuse", "claims.csv"], ["eval", "truths.csv", "golden.csv"]], ids=["fuse", "eval"]
    )
    @pytest.mark.parametrize("raw", ["---", "and"], ids=["dashes", "and"])
    def test_value_normalizing_to_nothing_exits_one_pointing_to_no_normalize(
        self, command, raw, tmp_path, monkeypatch, capsys
    ):
        # the field is not blank, yet normalization leaves nothing of it: it
        # trims edge characters that are not letters or digits and splits on
        # the word "and"
        monkeypatch.chdir(tmp_path)
        write_claims("claims.csv", [Claim("s1", "o1", "jane doe"), Claim("s2", "o1", raw)])
        write_golden("truths.csv", {"o1": "jane doe", "o2": "jane doe"})
        write_golden("golden.csv", {"o1": "jane doe", "o2": raw})
        assert run_cli(*command) == 1
        err = capsys.readouterr().err
        assert f"line 3: value '{raw}' normalizes to nothing" in err
        assert "--no-normalize" in err
        assert "blank field" not in err
        assert run_cli(*command, "--no-normalize") == 0

    def test_name_in_a_non_latin_script_is_kept(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_claims("claims.csv", [
            Claim("s1", "o1", "Ελένη Παππά"), Claim("s2", "o1", "ελένη   παππά"),
        ])
        write_golden("golden.csv", {"o1": "Ελένη Παππά"})
        assert run_cli("fuse", "claims.csv", "--min-overlap", "0", "--out-prefix", "f") == 0
        rows = Path("f.truths.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].startswith("o1,ελένη παππά,")
        assert run_cli("eval", "f.truths.csv", "golden.csv", "--out-prefix", "e") == 0
        assert "precision,1.0" in Path("e.eval.csv").read_text(encoding="utf-8")

    def test_decomposed_and_precomposed_accents_fuse_to_one_author(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        decomposed, precomposed = "Jose\u0301 Smith", "Jos\u00e9 Smith"
        write_claims("claims.csv", [
            # o1: both spellings of José against one Jose
            Claim("s1", "o1", decomposed), Claim("s2", "o1", precomposed),
            Claim("s3", "o1", "Jose Smith"),
            # o2: the decomposed José against two Joses
            Claim("s1", "o2", decomposed), Claim("s2", "o2", "jose smith"),
            Claim("s3", "o2", "JOSE SMITH"),
        ])
        assert run_cli("fuse", "claims.csv", "--variant", "vote", "--out-prefix", "f") == 0
        rows = Path("f.truths.csv").read_text(encoding="utf-8").splitlines()[1:]
        (o1, value1, p1), (o2, value2, p2) = (row.split(",") for row in rows)
        assert (o1, value1) == ("o1", "jos\u00e9 smith")
        assert (o2, value2) == ("o2", "jose smith")
        # each truth won two votes to one: José is one author, apart from Jose
        assert p1 == p2

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(
        self, delimiter, table1_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run_cli("fuse", table1_file, "--delimiter", delimiter) == 1
        assert "--delimiter" in capsys.readouterr().err

    def test_header_only_truths_file_exits_one_naming_it(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        Path("truths.csv").write_text("object,value\n")
        write_golden("golden.csv", {"o1": "jane doe"})
        assert run_cli("eval", "truths.csv", "golden.csv") == 1
        assert "truths.csv" in capsys.readouterr().err

    def test_more_values_than_the_domain_exits_one_naming_the_object(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write_claims("claims.csv", [Claim(f"s{i}", "o1", v) for i, v in enumerate("abc")])
        assert run_cli("fuse", "claims.csv", "--n", "1") == 1
        assert "for object 'o1'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
            (["--variant", "best"], "invalid choice: 'best'"),
            (["--n", "abc"], "invalid int value: 'abc'"),
        ],
    )
    def test_usage_error_exits_one_with_the_parser_message(
        self, args, message, table1_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run_cli("fuse", table1_file, *args) == 1
        assert message in capsys.readouterr().err
        assert not Path("fusion.report.json").exists()

    def test_missing_command_exits_one(self, capsys):
        assert run_cli() == 1
        assert "required: command" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--help"], ["fuse", "--help"], ["--version"]])
    def test_help_and_version_exit_zero(self, args, capsys):
        assert run_cli(*args) == 0
        assert "truthfuse" in capsys.readouterr().out
