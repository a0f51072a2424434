import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import numpy as np

from gdd import cli
from gdd.checkpoint import load_checkpoint, save_checkpoint
from gdd.cli import main
from gdd.data import Example, generate_synthetic, save_dataset
from gdd.numeric import Rng

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CHAIN_CONLLU = """\
1\tw_root\t_\t_\t_\t_\t0\troot\t_\t_
2\tw1\t_\t_\t_\t_\t1\tdep_a\t_\t_
3\taspect\t_\t_\t_\t_\t2\tdep_b\t_\t_
"""


# HEAD strings that int() reads as 1 but that are not plain decimals
HEADS_NOT_PLAIN = ("+1", "0_1", "\u0661", " 1", "1 ", "01")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "train.jsonl"
    save_dataset(path, generate_synthetic(seed=3, count=9))
    return path


def toy_flags(**extra):
    flags = dict(d_model="8", d_tag="4", d_head="4", d_hid="4", U="1", V="1",
                 L="1", epochs="2", lr="0.01")
    flags.update(extra)
    out = []
    for key, value in flags.items():
        out.extend([f"--{key}", value])
    return out


def assert_json_close(actual, expected, where="$"):
    assert type(actual) is type(expected), f"{where}: {type(actual)} vs {type(expected)}"
    if isinstance(actual, dict):
        assert actual.keys() == expected.keys(), where
        for key in actual:
            assert_json_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(actual, list):
        assert len(actual) == len(expected), where
        for i, (a, b) in enumerate(zip(actual, expected)):
            assert_json_close(a, b, f"{where}[{i}]")
    elif isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12), where
    else:
        assert actual == expected, where


def write_vectors(path, examples, width=8, skip=()):
    """One frozen-vector record per distinct sentence, except those in skip."""
    rng = Rng(0)
    seen = set(skip)
    with path.open("w") as fh:
        for ex in examples:
            key = tuple(ex.tokens)
            if key in seen:
                continue
            seen.add(key)
            vectors = rng.uniform((len(ex.tokens), width), -1, 1).tolist()
            fh.write(json.dumps({"tokens": ex.tokens, "vectors": vectors}) + "\n")


class TestTrain:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(["train", "--train", str(tmp_path / "nope.jsonl"),
                            "--out", str(tmp_path / "m.gdd")], capsys)
        assert code == 2
        assert "error" in err

    def test_train_writes_checkpoint_and_logs(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.gdd"
        code, stdout, _ = run(["train", "--train", str(dataset), "--out", str(out),
                               *toy_flags()], capsys)
        assert code == 0
        assert out.exists()
        lines = [json.loads(l) for l in stdout.strip().splitlines()]
        assert len(lines) == 2
        assert all(set(l) == {"epoch", "train_loss"} for l in lines)
        assert [l["epoch"] for l in lines] == [1, 2]

    def test_dev_metrics_logged(self, dataset, tmp_path, capsys):
        code, stdout, _ = run(["train", "--train", str(dataset), "--dev", str(dataset),
                               "--out", str(tmp_path / "m.gdd"), *toy_flags()], capsys)
        assert code == 0
        record = json.loads(stdout.strip().splitlines()[-1])
        assert set(record) == {"epoch", "train_loss", "dev_acc", "dev_macro_f1"}

    def test_empty_dev_file_exits_2_naming_it(self, dataset, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        out = tmp_path / "m.gdd"
        code, stdout, err = run(["train", "--train", str(dataset), "--dev", str(empty),
                                 "--out", str(out), *toy_flags()], capsys)
        assert code == 2
        assert err == f"error: {empty}: empty dataset\n"
        assert stdout == "" and not out.exists()

    def test_same_seed_byte_identical_logs(self, dataset, tmp_path, capsys):
        args = ["train", "--train", str(dataset), "--dev", str(dataset),
                "--out", str(tmp_path / "m.gdd"), *toy_flags(seed="11")]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second

    def test_eval_round_trip_matches_final_dev_accuracy(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.gdd"
        _, stdout, _ = run(["train", "--train", str(dataset), "--dev", str(dataset),
                            "--out", str(out), *toy_flags(epochs="3")], capsys)
        final = json.loads(stdout.strip().splitlines()[-1])
        code, eval_out, _ = run(["eval", "--checkpoint", str(out),
                                 "--data", str(dataset)], capsys)
        assert code == 0
        metrics = json.loads(eval_out)
        assert metrics["accuracy"] == final["dev_acc"]
        assert metrics["macro_f1"] == final["dev_macro_f1"]

    def test_config_file_and_flag_priority(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\nd_model=8\nd_tag=4\nd_head=4\nd_hid=4\nU=1\nV=1\nL=1\nlr=0.01\n")
        code, stdout, _ = run(["train", "--train", str(dataset),
                               "--out", str(tmp_path / "m.gdd"),
                               "--config", str(cfg), "--epochs", "1"], capsys)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 1  # the flag beat the file's epochs=5

    def test_bad_config_key_exit_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_option=1\n")
        code, _, err = run(["train", "--train", str(dataset),
                            "--out", str(tmp_path / "m.gdd"),
                            "--config", str(cfg)], capsys)
        assert code == 2
        assert "no_such_option" in err

    @pytest.mark.parametrize("key, value", [
        ("lr", "-0.01"), ("lr", "0"), ("lr", "nan"), ("lr", "inf"),
        ("l2", "-1"), ("l2", "nan"), ("l2", "inf"),
        ("sample_interval", "nan"), ("sample_interval", "inf"), ("sample_interval", "0"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_rate_or_interval_exits_2_naming_the_key(self, dataset, tmp_path, capsys,
                                                         key, value, source):
        out = tmp_path / "m.gdd"
        flags = toy_flags()
        if f"--{key}" in flags:  # a flag would win over the file's value
            at = flags.index(f"--{key}")
            del flags[at:at + 2]
        args = ["train", "--train", str(dataset), "--out", str(out), *flags]
        if source == "flag":
            args += [f"--{key}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
        code, stdout, err = run(args, capsys)
        assert code == 2
        assert err.startswith(f"error: config: {key} must be") and err.count("\n") == 1
        assert stdout == "" and not out.exists()

    def test_frozen_embeddings_file(self, dataset, tmp_path, capsys):
        vec_path = tmp_path / "vectors.jsonl"
        write_vectors(vec_path, generate_synthetic(seed=3, count=9))
        out = tmp_path / "m.gdd"
        code, stdout, _ = run(["train", "--train", str(dataset), "--out", str(out),
                               "--embeddings-file", str(vec_path), *toy_flags()], capsys)
        assert code == 0
        code, _, _ = run(["eval", "--checkpoint", str(out), "--data", str(dataset),
                          "--embeddings-file", str(vec_path)], capsys)
        assert code == 0

    def test_divergence_exits_2_by_name_without_a_checkpoint(self, tmp_path, capsys):
        data = tmp_path / "train.jsonl"
        save_dataset(data, generate_synthetic(seed=0, count=20))
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("lr=1e6\nepochs=2\n")
        out = tmp_path / "m.gdd"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
            code, stdout, err = run(["train", "--train", str(data), "--out", str(out),
                                     "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error: training diverged at epoch 1, step 2")
        assert "embed.token" in err
        assert "Traceback" not in err
        assert err.endswith("\n") and err.count("\n") == 1  # the one error line only
        assert stdout == ""  # no epoch finished
        assert not out.exists()

    def test_gdd_seed_env_fallback(self, dataset, tmp_path, capsys, monkeypatch):
        args = ["train", "--train", str(dataset), "--dev", str(dataset),
                "--out", str(tmp_path / "m.gdd"), *toy_flags()]
        monkeypatch.setenv("GDD_SEED", "21")
        _, via_env, _ = run(args, capsys)
        monkeypatch.delenv("GDD_SEED")
        _, via_flag, _ = run(args + ["--seed", "21"], capsys)
        assert via_env == via_flag


class TestBadEmbeddingsFile:
    """A malformed --embeddings-file is an input error: exit 2, no traceback."""

    FIRST = generate_synthetic(seed=3, count=9)[0].tokens  # the dataset fixture's first
    MESSAGES = {
        "invalid-json": r"vectors\.jsonl:1: invalid JSON",
        "wrong-types": r"vectors\.jsonl:1: tokens must be a list of strings",
        "missing-sentence": "no frozen embedding record for sentence: " + " ".join(FIRST),
        "wrong-width": r"frozen embedding shape \((\d+), 5\) != \(\1, 8\) for sentence: \w",
        "non-finite": r"vectors\.jsonl:2: vectors must be finite",
    }

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    @pytest.mark.parametrize("case", list(MESSAGES))
    def test_exit_2_naming_the_record(self, dataset, tmp_path, capsys, command, case):
        vectors = tmp_path / "vectors.jsonl"
        examples = generate_synthetic(seed=3, count=9)
        if case == "invalid-json":
            vectors.write_text("{broken\n")
        elif case == "wrong-types":
            vectors.write_text('{"tokens": 5, "vectors": 5}\n')
        elif case == "missing-sentence":
            write_vectors(vectors, examples, skip={tuple(self.FIRST)})
        elif case == "non-finite":
            write_vectors(vectors, examples)
            lines = vectors.read_text().splitlines(keepends=True)
            record = json.loads(lines[1])
            record["vectors"][0][0] = math.nan
            lines[1] = json.dumps(record) + "\n"  # json writes the NaN that json.loads reads
            vectors.write_text("".join(lines))
        else:
            write_vectors(vectors, examples, width=5)
        out = tmp_path / "m.gdd"
        if command == "train":
            argv = ["train", "--train", str(dataset), "--out", str(out), *toy_flags()]
        else:
            run(["train", "--train", str(dataset), "--out", str(out), *toy_flags()], capsys)
            argv = [command, "--checkpoint", str(out), "--data", str(dataset)]
        code, stdout, err = run(argv + ["--embeddings-file", str(vectors)], capsys)
        assert code == 2
        assert stdout == ""
        assert re.fullmatch(f"error: .*{self.MESSAGES[case]}.*\n", err), err


class TestFrozenRecordLocation:
    """A sentence with no frozen-vector record, or one of the wrong width, is
    an input error naming the data file and the line of the record whose
    forward pass needed it."""

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    @pytest.mark.parametrize("case", ["missing-sentence", "wrong-width"])
    def test_exit_2_naming_the_data_line(self, tmp_path, capsys, command, case):
        examples = generate_synthetic(seed=3, count=9)
        bad = examples[3].tokens
        data = tmp_path / "data.jsonl"
        save_dataset(data, examples)
        data.write_text("\n" + data.read_text())  # a blank line 1: record i is on line i + 2
        vectors = tmp_path / "vectors.jsonl"
        write_vectors(vectors, examples, skip={tuple(bad)})
        if case == "wrong-width":
            with vectors.open("a") as fh:
                fh.write(json.dumps({"tokens": bad, "vectors": [[0.5] * 5] * len(bad)}) + "\n")
        lines = {i + 2 for i, ex in enumerate(examples) if ex.tokens == bad}
        out = tmp_path / "m.gdd"
        if command == "train":
            argv = ["train", "--train", str(data), "--out", str(out), *toy_flags()]
        else:
            run(["train", "--train", str(data), "--out", str(out), *toy_flags()], capsys)
            argv = [command, "--checkpoint", str(out), "--data", str(data)]
            argv += ["--index", "3"] if command == "inspect" else []
        code, stdout, err = run(argv + ["--embeddings-file", str(vectors)], capsys)
        assert code == 2
        assert stdout == ""
        m = re.fullmatch(rf"error: {re.escape(str(data))}:(\d+): (.*)\n", err)
        assert m and int(m.group(1)) in lines, err
        assert m.group(2).startswith("no frozen embedding record" if case == "missing-sentence"
                                     else "frozen embedding shape (")

    def test_a_dev_record_names_the_dev_file(self, dataset, tmp_path, capsys):
        train_examples = generate_synthetic(seed=3, count=9)
        dev_examples = generate_synthetic(seed=11, count=3)
        missing = dev_examples[1].tokens
        assert all(ex.tokens != missing for ex in train_examples)
        dev = tmp_path / "dev.jsonl"
        save_dataset(dev, dev_examples)
        vectors = tmp_path / "vectors.jsonl"
        write_vectors(vectors, train_examples + dev_examples, skip={tuple(missing)})
        lines = {i + 1 for i, ex in enumerate(dev_examples) if ex.tokens == missing}
        code, stdout, err = run(["train", "--train", str(dataset), "--dev", str(dev),
                                 "--out", str(tmp_path / "m.gdd"), "--embeddings-file",
                                 str(vectors), *toy_flags()], capsys)
        assert code == 2
        assert stdout == ""  # the first epoch's dev pass fails before its line is printed
        m = re.fullmatch(rf"error: {re.escape(str(dev))}:(\d+): no frozen embedding record .*\n",
                         err)
        assert m and int(m.group(1)) in lines, err


class TestNonUtf8Input:
    """A file that is not UTF-8 text is an input error: exit 2 naming the file
    and line, no traceback."""

    @pytest.mark.parametrize("flag", ["--train", "--config", "--embeddings-file",
                                      "--conllu", "--spans"])
    def test_exit_2_naming_the_file_and_line(self, dataset, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\n\xff\n")  # a blank line 1, which every reader skips
        out = str(tmp_path / "m.gdd")
        if flag in ("--conllu", "--spans"):
            conllu, spans = tmp_path / "s.conllu", tmp_path / "spans.jsonl"
            conllu.write_text(CHAIN_CONLLU)
            spans.write_text(json.dumps({"spans": [[2, 3]]}) + "\n")
            files = {"--conllu": str(conllu), "--spans": str(spans), flag: str(bad)}
            argv = ["build-graph", *(x for pair in files.items() for x in pair)]
        else:
            files = {"--train": str(dataset), flag: str(bad)}
            argv = ["train", "--out", out, *(x for pair in files.items() for x in pair),
                    *toy_flags()]
        code, stdout, err = run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert re.fullmatch(r"error: .*bad\.txt:2: not UTF-8 text.*\n", err), err


JSONL_FLAGS = ["train --train", "train --dev", "eval --data", "inspect --data",
               "--embeddings-file", "build-graph --spans"]


def _line_2_is_invalid_json(flag, line, dataset, tmp_path, capsys):
    """The command of a JSON Lines flag, run on a file whose line 2 is
    `line`, prints one stderr line naming the file and the line as invalid
    JSON, and exits 2."""
    first = {"--embeddings-file": {"tokens": ["a"], "vectors": [[1.0]]},
             "build-graph --spans": {"spans": [[2, 3]]}}.get(
        flag, json.loads(dataset.read_text().splitlines()[0]))
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(first) + "\n" + line + "\n")
    conllu = tmp_path / "s.conllu"
    conllu.write_text(CHAIN_CONLLU)
    out, toy = str(tmp_path / "m.gdd"), str(GOLDEN_DIR / "toy.gdd")
    argv = {"train --train": ["train", "--train", str(bad), "--out", out, *toy_flags()],
            "train --dev": ["train", "--train", str(dataset), "--dev", str(bad), "--out", out,
                            *toy_flags()],
            "eval --data": ["eval", "--checkpoint", toy, "--data", str(bad)],
            "inspect --data": ["inspect", "--checkpoint", toy, "--data", str(bad)],
            "--embeddings-file": ["eval", "--checkpoint", toy, "--data", str(dataset),
                                  "--embeddings-file", str(bad)],
            "build-graph --spans": ["build-graph", "--conllu", str(conllu), "--spans", str(bad)],
            }[flag]
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert re.fullmatch(rf"error: {re.escape(str(bad))}:2: invalid JSON: [^\n]*\n", err), err


@pytest.mark.parametrize("flag", JSONL_FLAGS)
def test_invalid_json_on_line_2_of_any_jsonl_flag_exits_2_naming_it(dataset, tmp_path, capsys,
                                                                   flag):
    """Every JSON Lines input is read by one function: a line that is not
    JSON is one stderr line naming the file and the line, and exit 2."""
    _line_2_is_invalid_json(flag, "{broken", dataset, tmp_path, capsys)


@pytest.mark.parametrize("flag", JSONL_FLAGS)
def test_json_nested_too_deep_on_line_2_of_any_jsonl_flag_exits_2_naming_it(
        dataset, tmp_path, capsys, flag):
    """A line of 100,000 ['s is deeper than the JSON parser can recurse: it
    is reported as invalid JSON, like any other bad line, not as a
    traceback."""
    _line_2_is_invalid_json(flag, "[" * 100_000, dataset, tmp_path, capsys)


class TestBadSeed:
    """A seed that is not a non-negative integer, from --seed or from GDD_SEED,
    is a usage error naming seed on every command that takes one."""

    @pytest.mark.parametrize("command", ["train", "gradcheck", "verify-proposition"])
    @pytest.mark.parametrize("source, value", [("flag", "-1"), ("flag", "abc"),
                                               ("env", "-1"), ("env", "abc")])
    def test_exit_2_naming_seed(self, dataset, tmp_path, capsys, monkeypatch, command,
                                source, value):
        argv = {"train": ["train", "--train", str(dataset), "--out", str(tmp_path / "m.gdd"),
                          *toy_flags()],
                "gradcheck": ["gradcheck"],
                "verify-proposition": ["verify-proposition", "--trials", "1"]}[command]
        if source == "flag":
            argv = argv + ["--seed", value]
        else:
            monkeypatch.setenv("GDD_SEED", value)
        code, stdout, err = run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert re.fullmatch(r"error: .*\bseed\b.*\n", err), err
        assert not (tmp_path / "m.gdd").exists()

    @pytest.mark.parametrize("command", ["gradcheck", "verify-proposition"])
    def test_gdd_seed_env_fallback(self, capsys, monkeypatch, command):
        argv = [command] + (["--trials", "2"] if command == "verify-proposition" else [])
        monkeypatch.setenv("GDD_SEED", "7")
        _, via_env, _ = run(argv, capsys)
        monkeypatch.delenv("GDD_SEED")
        _, via_flag, _ = run(argv + ["--seed", "7"], capsys)
        _, default, _ = run(argv, capsys)
        assert via_env == via_flag != default


def test_closed_stdout_exits_1_without_a_traceback():
    """`gdd gradcheck | head -c 20`: the reader is gone before gdd prints."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "gdd.cli", "gradcheck"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    proc.stdout.close()
    try:
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        proc.wait(timeout=120)
    assert err == b""
    assert proc.returncode == 1


@pytest.fixture
def zero_sigma(tmp_path):
    """golden/toy.gdd with local.mask.b2 = -800, every entry finite: sigma =
    softplus(-800) is 0.0 and the mask 0/0. Five synthetic records follow
    two blank lines, so record i sits on line i + 3."""
    model = load_checkpoint(GOLDEN_DIR / "toy.gdd")
    model.params.set("local.mask.b2", np.array([-800.0]))
    checkpoint = tmp_path / "zero-sigma.gdd"
    save_checkpoint(checkpoint, model)
    data = tmp_path / "data.jsonl"
    save_dataset(data, generate_synthetic(seed=0, count=5))
    data.write_text("\n\n" + data.read_text())
    return checkpoint, data


@pytest.mark.parametrize("command, line", [(["eval"], 3), (["inspect", "--index", "2"], 5)],
                         ids=["eval", "inspect"])
def test_a_non_finite_forward_exits_2_naming_the_record_and_sigma(zero_sigma, capsys,
                                                                   command, line):
    checkpoint, data = zero_sigma
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        code, stdout, err = run([command[0], "--checkpoint", str(checkpoint), "--data", str(data),
                                 *command[1:]], capsys)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {data}:{line}: non-finite forward pass, first at sigma (0.0)\n"


def test_a_non_finite_forward_names_its_line_when_the_data_is_a_pipe(zero_sigma):
    """`gdd eval --data /dev/stdin < pipe`: the data can be read only once,
    so the line number must come from that one read."""
    checkpoint, data = zero_sigma
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gdd.cli", "eval", "--checkpoint",
                           str(checkpoint), "--data", "/dev/stdin"],
                          input=data.read_bytes(), capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.stderr.decode() == (
        "error: /dev/stdin:3: non-finite forward pass, first at sigma (0.0)\n")
    assert proc.returncode == 2
    assert proc.stdout == b""


class TestEval:
    def test_corrupt_checkpoint_exit_2(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.gdd"
        bad.write_bytes(b"NOPE....")
        code, _, err = run(["eval", "--checkpoint", str(bad),
                            "--data", str(dataset)], capsys)
        assert code == 2
        assert "magic" in err

    def test_empty_data_file_exits_2_naming_it(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, stdout, err = run(["eval", "--checkpoint", str(GOLDEN_DIR / "toy.gdd"),
                                 "--data", str(empty)], capsys)
        assert code == 2
        assert err == f"error: {empty}: empty dataset\n"
        assert stdout == ""

    def test_checkpoint_with_an_empty_vocab_exits_2(self, dataset, tmp_path, capsys):
        """The toy checkpoint with its vocab emptied and embed.token (the first
        tensor) cut to 0 rows: the manifest matches, the vocab does not."""
        raw = (GOLDEN_DIR / "toy.gdd").read_bytes()
        (n,) = struct.unpack("<Q", raw[4:12])
        header = json.loads(raw[12:12 + n])
        token = header["params"][0]
        assert token["name"] == "embed.token"
        body = raw[12 + n + 8 * math.prod(token["shape"]):]
        header["vocab"], token["shape"][0] = [], 0
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / "empty-vocab.gdd"
        bad.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob + body)
        code, stdout, err = run(["eval", "--checkpoint", str(bad), "--data", str(dataset)], capsys)
        assert code == 2
        assert err == (f"error: {bad}: header field 'vocab': must start with the reserved "
                       "tokens '<pad>', '<unk>'\n")
        assert stdout == ""

    def test_eval_deterministic(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.gdd"
        run(["train", "--train", str(dataset), "--out", str(out), *toy_flags()], capsys)
        _, first, _ = run(["eval", "--checkpoint", str(out), "--data", str(dataset)], capsys)
        _, second, _ = run(["eval", "--checkpoint", str(out), "--data", str(dataset)], capsys)
        assert first == second


class TestBuildGraph:
    def test_chain_fixture_tags(self, tmp_path, capsys):
        conllu = tmp_path / "s.conllu"
        conllu.write_text(CHAIN_CONLLU)
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps({"spans": [[2, 3]]}) + "\n")
        code, stdout, _ = run(["build-graph", "--conllu", str(conllu),
                               "--spans", str(spans)], capsys)
        assert code == 0
        graph = json.loads(stdout)
        tags = {e["tag"] for e in graph["edges"]}
        assert tags == {"dep_b:1", "dep_b:dep_a:2"}

    def test_empty_input(self, tmp_path, capsys):
        conllu = tmp_path / "s.conllu"
        conllu.write_text("")
        spans = tmp_path / "spans.jsonl"
        spans.write_text("")
        code, stdout, _ = run(["build-graph", "--conllu", str(conllu),
                               "--spans", str(spans)], capsys)
        assert code == 0
        assert stdout == ""

    def test_invalid_span_exit_2(self, tmp_path, capsys):
        conllu = tmp_path / "s.conllu"
        conllu.write_text(CHAIN_CONLLU)
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps({"spans": [[5, 6]]}) + "\n")
        code, _, err = run(["build-graph", "--conllu", str(conllu),
                            "--spans", str(spans)], capsys)
        assert code == 2
        assert "span" in err

    @pytest.mark.parametrize("record, message", [
        ({"spans": [1, 2]}, r'expected \{"spans": \[\[start, end\], \.\.\.\]\}'),
        ({"spans": [[0.6, 1.9]]}, "span start: 0.6 is not an integer"),
        ({"spans": [[2, True]]}, "span end: true is not an integer"),
        ({"spans": [[2, 3, 4]]}, r'expected \{"spans"'),
        ({"spans": [[None, 3]]}, "malformed span"),
    ])
    def test_a_span_that_is_not_two_integers_exits_2(self, tmp_path, capsys, record, message):
        conllu = tmp_path / "s.conllu"
        conllu.write_text(CHAIN_CONLLU)
        spans = tmp_path / "spans.jsonl"
        spans.write_text("\n" + json.dumps(record) + "\n")
        code, stdout, err = run(["build-graph", "--conllu", str(conllu),
                                 "--spans", str(spans)], capsys)
        assert code == 2
        assert stdout == ""
        assert re.fullmatch(rf"error: .*spans\.jsonl:2: {message}.*\n", err), err

    @pytest.mark.parametrize("kappa_max, conllu_text", [("0", CHAIN_CONLLU), ("-3", "")],
                             ids=["0-chain", "-3-empty"])
    def test_kappa_max_below_one_exits_2(self, tmp_path, capsys, kappa_max, conllu_text):
        conllu = tmp_path / "s.conllu"
        conllu.write_text(conllu_text)
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps({"spans": [[2, 3]]}) + "\n" if conllu_text else "")
        code, stdout, err = run(["build-graph", "--conllu", str(conllu), "--spans", str(spans),
                                 "--kappa-max", kappa_max], capsys)
        assert code == 2
        assert stdout == ""
        assert err == "error: --kappa-max must be at least 1\n"

    def test_parse_error_has_line(self, tmp_path, capsys):
        conllu = tmp_path / "s.conllu"
        conllu.write_text("1\tbroken\n")
        spans = tmp_path / "spans.jsonl"
        spans.write_text("")
        code, _, err = run(["build-graph", "--conllu", str(conllu),
                            "--spans", str(spans)], capsys)
        assert code == 2
        assert "line 1" in err

    def test_a_span_the_graph_rejects_names_its_spans_line(self, tmp_path, capsys):
        conllu = tmp_path / "s.conllu"
        conllu.write_text(CHAIN_CONLLU + "\n" + CHAIN_CONLLU)
        spans = tmp_path / "spans.jsonl"
        spans.write_text('{"spans": [[2, 3]]}\n\n{"spans": [[5, 6]]}\n')
        code, stdout, err = run(["build-graph", "--conllu", str(conllu),
                                 "--spans", str(spans)], capsys)
        assert code == 2
        assert re.fullmatch(rf"error: {re.escape(str(spans))}:3: sentence 2: .*span.*\n", err), err

    @pytest.mark.parametrize("conllu_text, message", [
        (CHAIN_CONLLU.replace("\t1\tdep_a", "\tx\tdep_a"),
         "line 2: HEAD column is not an integer: 'x'"),
        (CHAIN_CONLLU.replace("\t0\troot", "\t3\troot"),
         "sentence starting at line 1: cycle in heads through tokens"),
        (CHAIN_CONLLU.replace("\n2\t", "\n3\t", 1),
         "line 2: expected word ID 2, got '3'"),
    ] + [(CHAIN_CONLLU.replace("\t1\tdep_a", f"\t{head}\tdep_a"),
          f"line 2: HEAD column is not an integer: {head!r}")
         for head in HEADS_NOT_PLAIN],
        ids=["head-not-an-integer", "cycle", "word-id-out-of-turn",
             *(f"head-{head!r}" for head in HEADS_NOT_PLAIN)])
    def test_a_conllu_error_names_the_file(self, tmp_path, capsys, conllu_text, message):
        conllu = tmp_path / "s.conllu"
        conllu.write_text(conllu_text, encoding="utf-8")
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps({"spans": [[2, 3]]}) + "\n")
        code, stdout, err = run(["build-graph", "--conllu", str(conllu),
                                 "--spans", str(spans)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {conllu}: {message}"), err
        assert err.count("\n") == 1, err

    def test_golden_output(self, tmp_path, capsys):
        conllu = tmp_path / "s.conllu"
        conllu.write_text(CHAIN_CONLLU)
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps({"spans": [[2, 3], [0, 1]]}) + "\n")
        _, stdout, _ = run(["build-graph", "--conllu", str(conllu),
                            "--spans", str(spans)], capsys)
        actual = [json.loads(l) for l in stdout.strip().splitlines()]
        expected = [json.loads(l) for l in
                    (GOLDEN_DIR / "build_graph.jsonl").read_text().strip().splitlines()]
        assert_json_close(actual, expected)


class TestInspect:
    @pytest.fixture
    def checkpoint(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.gdd"
        run(["train", "--train", str(dataset), "--out", str(out), *toy_flags()], capsys)
        return out

    def test_trace_schema_and_invariants(self, dataset, checkpoint, capsys):
        code, stdout, _ = run(["inspect", "--checkpoint", str(checkpoint),
                               "--data", str(dataset), "--index", "0"], capsys)
        assert code == 0
        trace = json.loads(stdout)
        assert set(trace) == {"sigma", "mask", "local_attention", "dgat"}
        assert set(trace["dgat"]) == {"beta", "omega", "rho", "empty"}

        examples = generate_synthetic(seed=3, count=9)
        n = len(examples[0].tokens)
        assert len(trace["mask"]) == n
        s, e = examples[0].aspect_start, examples[0].aspect_end
        peak = max(trace["mask"])
        assert all(abs(trace["mask"][j] - peak) < 1e-12 for j in range(s, e))
        for row in trace["local_attention"]:
            assert abs(sum(row) - 1.0) < 1e-12

    def test_toy_checkpoint_output_is_pinned(self, tmp_path, capsys):
        """The JSON of golden/toy.gdd on synthetic example 3 (seed 0), byte for
        byte as recorded in inspect_toy.json, whatever the trace holds inside.

        A change that moves rounding regenerates the file, from the repo root:

            PYTHONPATH=src python3 -c "import gdd.data as d; \\
                d.save_dataset('toy15.jsonl', d.generate_synthetic(seed=0, count=15))"
            PYTHONPATH=src python3 -m gdd.cli inspect --checkpoint tests/golden/toy.gdd \\
                --data toy15.jsonl --index 3 > tests/inspect_toy.json
            rm toy15.jsonl
        """
        data = tmp_path / "data.jsonl"
        save_dataset(data, generate_synthetic(seed=0, count=15))
        code, stdout, _ = run(["inspect", "--checkpoint", str(GOLDEN_DIR / "toy.gdd"),
                               "--data", str(data), "--index", "3"], capsys)
        assert code == 0
        assert stdout.encode() == (Path(__file__).parent / "inspect_toy.json").read_bytes()

    @pytest.mark.parametrize("heads", [{}, {"U": "0"}, {"V": "0"}], ids=["default", "U0", "V0"])
    def test_trace_json_at_its_edges(self, tmp_path, capsys, heads):
        """At L = 2, a family with no heads prints [] for each layer, as does
        every family over an empty graph (an aspect that spans its sentence),
        which also prints "empty": true; a present family prints one row of
        m weights per head."""
        whole = Example(tokens=["food", "good"], aspect_start=0, aspect_end=2,
                        label="positive", dep_heads=[2, 0], dep_rels=["nsubj", "root"])
        data = tmp_path / "data.jsonl"
        save_dataset(data, generate_synthetic(seed=3, count=9) + [whole])
        out = tmp_path / "m.gdd"
        code, _, _ = run(["train", "--train", str(data), "--out", str(out),
                          *toy_flags(L="2", **heads)], capsys)
        assert code == 0
        counts = {"beta": int(heads.get("U", 1)), "omega": int(heads.get("U", 1)),
                  "rho": int(heads.get("V", 1))}
        for index, empty in [(0, False), (9, True)]:
            code, stdout, _ = run(["inspect", "--checkpoint", str(out), "--data", str(data),
                                   "--index", str(index)], capsys)
            assert code == 0
            dgat = json.loads(stdout)["dgat"]
            assert list(dgat) == ["beta", "omega", "rho", "empty"]
            assert dgat["empty"] is empty
            if empty:
                assert stdout.endswith('"dgat": {"beta": [[], []], "omega": [[], []], '
                                       '"rho": [[], []], "empty": true}}\n')
                continue
            m = len(dgat["rho"][0][0]) if counts["rho"] else len(dgat["beta"][0][0])
            assert m > 0
            for key, count in counts.items():
                assert len(dgat[key]) == 2, key
                for layer in dgat[key]:
                    assert len(layer) == count, key
                    assert all(len(row) == m and abs(sum(row) - 1.0) < 1e-12
                               for row in layer), key
                if not count:
                    assert f'"{key}": [[], []]' in stdout

    def test_index_out_of_range(self, dataset, checkpoint, capsys):
        code, _, err = run(["inspect", "--checkpoint", str(checkpoint),
                            "--data", str(dataset), "--index", "99"], capsys)
        assert code == 2
        assert "out of range" in err


class TestVerifyProposition:
    def test_default_small_run_passes(self, capsys):
        code, stdout, _ = run(["verify-proposition", "--trials", "3"], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["pass"] is True
        assert report["trials"] == 3

    def test_deterministic_per_seed(self, capsys):
        _, a, _ = run(["verify-proposition", "--trials", "2", "--seed", "9"], capsys)
        _, b, _ = run(["verify-proposition", "--trials", "2", "--seed", "9"], capsys)
        assert a == b

    @pytest.mark.parametrize("norms, median", [([3.0, 1.0], 2.0), ([3.0, 1.0, 2.5], 2.5),
                                               ([4.0, 1.0, 2.0, 8.0], 3.0)])
    def test_median_is_the_middle_value_or_the_mean_of_the_two(self, capsys, monkeypatch,
                                                                 norms, median):
        reports = iter(norms)
        monkeypatch.setattr(cli, "check_stationarity", lambda Q, K, rng: SimpleNamespace(
            is_stationary=True, grad_norm_at_mean=next(reports), median_random_grad_norm=1.0))
        code, stdout, _ = run(["verify-proposition", "--trials", str(len(norms))], capsys)
        assert code == 0
        assert json.loads(stdout)["grad_norm_at_mean"] == {"max": max(norms), "median": median}

    def test_n_below_two_rejected(self, capsys):
        code, _, err = run(["verify-proposition", "--n", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--trials", "--d"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_trials_and_d_below_one_rejected(self, capsys, flag, value):
        code, stdout, err = run(["verify-proposition", flag, value], capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"error: {flag} must be at least 1\n"


class TestGradcheckCommand:
    def test_default_passes_and_lists_all_tensors(self, capsys):
        code, stdout, _ = run(["gradcheck"], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["ok"] is True
        assert "out.W" in report["tensors"]
        assert "local.mask.W1" in report["tensors"]
        assert "dgat.l0.dual0.We" in report["tensors"]
        assert len(report["tensors"]) == 21

    @pytest.mark.parametrize("seed", ["3", "12"])
    def test_the_unread_output_bias_reads_exactly_zero(self, capsys, seed):
        """dgat.l0.rel0.b2 only shifts a softmax, so the heads do not read it:
        its analytic gradient and its finite difference are both exactly 0.
        These two seeds read rounding noise there when the heads added it."""
        code, stdout, _ = run(["gradcheck", "--seed", seed], capsys)
        assert code == 0
        assert json.loads(stdout)["tensors"]["dgat.l0.rel0.b2"] == 0.0

    def test_tolerance_flag_respected(self, capsys):
        code, stdout, _ = run(["gradcheck", "--tolerance", "1e-12"], capsys)
        assert code == 1
        assert json.loads(stdout)["ok"] is False

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
    def test_tolerance_not_finite_and_positive_exits_2(self, capsys, tolerance):
        code, stdout, err = run(["gradcheck", "--tolerance", tolerance], capsys)
        assert code == 2
        assert stdout == ""
        assert err == "error: --tolerance must be a finite positive number\n"


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
