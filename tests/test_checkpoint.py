import io
import json
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from gdd import checkpoint
from gdd.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from gdd.cli import main
from gdd.data import example_to_dict, generate_synthetic
from gdd.metrics import evaluate
from gdd.model import Model, ModelConfig, param_layout
from gdd.numeric import Rng
from gdd.training import batch_grads

TOY = dict(d_model=8, d_tag=4, d_head=4, d_hid=4, U=1, V=1, L=1)


@pytest.fixture
def trained_model(tmp_path):
    examples = generate_synthetic(seed=0, count=8)
    model = Model.build_for_examples(ModelConfig(**TOY), examples)
    path = tmp_path / "model.gdd"
    save_checkpoint(path, model)
    return model, examples, path


def test_round_trip_params_and_config(trained_model):
    model, _, path = trained_model
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.vocab.to_list() == model.vocab.to_list()
    assert loaded.tag_vocab.to_list() == model.tag_vocab.to_list()
    assert loaded.params.names() == model.params.names()
    for name in model.params.names():
        assert np.array_equal(loaded.params.get(name), model.params.get(name))


def test_round_trip_predictions_identical(trained_model):
    model, examples, path = trained_model
    loaded = load_checkpoint(path)
    before = evaluate(model, examples)
    after = evaluate(loaded, examples)
    assert before.accuracy == after.accuracy
    assert before.macro_f1 == after.macro_f1


def test_corrupted_magic(trained_model):
    _, _, path = trained_model
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file(trained_model):
    _, _, path = trained_model
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 50])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_a_header_that_implies_more_data_than_the_file_holds_allocates_nothing(
        trained_model, capsys):
    """The default config at d_model = 10**7 implies ~728 TiB of parameters;
    the file holds 64 data bytes. The size is compared before ModelParams
    allocates its buffers."""
    model, examples, path = trained_model
    config = {**ModelConfig().to_dict(), "d_model": 10 ** 7}
    layout = list(param_layout(ModelConfig.from_dict(config), len(model.vocab),
                               len(model.tag_vocab)))
    header = {"config": config, "vocab": model.vocab.to_list(),
              "tag_vocab": model.tag_vocab.to_list(),
              "params": [{"name": n, "shape": list(shape)} for n, shape in layout]}
    _write(path, header, bytes(64))
    message = f"truncated data for parameter {layout[0][0]}"
    with pytest.raises(CheckpointError, match=f"^{message}$"):
        load_checkpoint(path)
    data = path.with_name("data.jsonl")
    data.write_text(json.dumps(example_to_dict(examples[0])) + "\n")
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("cut", [8, 50])
def test_a_short_file_names_the_first_tensor_whose_data_is_missing(trained_model, cut):
    model, _, path = trained_model
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - cut])
    have = model.params.total_size() - cut / 8
    name = next(n for n in model.params.names() if model.params.span(n)[1] > have)
    with pytest.raises(CheckpointError, match=f"^truncated data for parameter {name}$"):
        load_checkpoint(path)


class _ShortReader(io.BufferedReader):
    """A reader whose readinto stops 8 bytes short, as when the file is cut
    after load_checkpoint has checked its size."""

    def readinto(self, buffer):
        view = memoryview(buffer)
        return super().readinto(view[:len(view) - 8])


def test_a_read_that_comes_back_short_loads_nothing(trained_model, monkeypatch, capsys):
    """params.flat starts uninitialized, so every byte must come from the
    file: a short readinto names the tensor it cut, also through gdd eval."""
    model, examples, path = trained_model
    monkeypatch.setattr(checkpoint, "open", lambda p, mode: _ShortReader(io.FileIO(p, mode)),
                        raising=False)
    message = f"truncated data for parameter {model.params.names()[-1]}"
    with pytest.raises(CheckpointError, match=f"^{message}$"):
        load_checkpoint(path)
    data = path.with_name("data.jsonl")
    data.write_text(json.dumps(example_to_dict(examples[0])) + "\n")
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"


def test_a_loaded_model_takes_the_in_memory_models_gradient(trained_model):
    """A loaded model's gradient starts on fresh zero pages; its first two
    batch_grads match the in-memory model's bit for bit."""
    model, examples, path = trained_model
    loaded = load_checkpoint(path)
    assert not loaded.params.grad.any()
    grads = []
    for m in (model, loaded):
        preps = [m.prepare(ex) for ex in examples]
        rng = Rng(4)
        grads.append([(batch_grads(m, preps[:4], dropout_rng=rng)[0], m.params.grad.tobytes()),
                      (batch_grads(m, preps[4:], dropout_rng=rng)[0], m.params.grad.tobytes())])
    assert grads[0] == grads[1]


def test_file_cut_inside_the_header_length(trained_model):
    _, _, path = trained_model
    path.write_bytes(path.read_bytes()[:7])
    with pytest.raises(CheckpointError, match="truncated header length"):
        load_checkpoint(path)


@pytest.mark.parametrize("header_len", [2**62, 3])
def test_header_length_beyond_the_end_of_the_file(tmp_path, header_len, capsys):
    path = tmp_path / "huge.gdd"
    path.write_bytes(MAGIC + struct.pack("<Q", header_len) + b"{}")
    message = f"header length {header_len} exceeds the 2 bytes left in the file"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(example_to_dict(generate_synthetic(seed=0, count=1)[0])) + "\n")
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_trailing_garbage(trained_model):
    _, _, path = trained_model
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_magic_constant():
    assert MAGIC == b"GDD1"


def test_header_param_mismatch(tmp_path):
    examples = generate_synthetic(seed=0, count=4)
    model = Model.build_for_examples(ModelConfig(**TOY), examples)
    # lie about a dimension in the config after saving
    path = tmp_path / "model.gdd"
    save_checkpoint(path, model)
    raw = bytearray(path.read_bytes())
    blob = raw[12:].split(b'"params"')[0]
    patched = blob.replace(b'"d_head": 4', b'"d_head": 6')
    raw = raw.replace(blob, patched)
    # header length unchanged: same byte count edit
    assert len(patched) == len(blob)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="mismatch"):
        load_checkpoint(path)


def _write(path, header: dict, body: bytes) -> None:
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + body)


def _rewrite(path, edit):
    """Re-encode a checkpoint after edit(tensors) changes its list of (name, array)."""
    model = load_checkpoint(path)
    tensors = edit([(name, t.copy()) for name, t in model.params.items()])
    header = {"config": model.config.to_dict(), "vocab": model.vocab.to_list(),
              "tag_vocab": model.tag_vocab.to_list(),
              "params": [{"name": n, "shape": list(t.shape)} for n, t in tensors]}
    _write(path, header, b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes()
                                  for _, t in tensors))


def _replace(name, value):
    return lambda ts: [(n, value if n == name else t) for n, t in ts]


@pytest.mark.parametrize("edit, culprit", [
    (lambda ts: [(n, t) for n, t in ts if n != "dgat.l0.rel0.b2"], "dgat.l0.rel0.b2"),
    (_replace("embed.hop", np.zeros((5, TOY["d_tag"]))), "embed.hop"),
    (lambda ts: ts + [("dgat.l0.rel0.W3", np.zeros((2, 2)))], "dgat.l0.rel0.W3"),
    (lambda ts: [ts[1], ts[0], *ts[2:]], "embed.token"),
    (lambda ts: ts + [ts[-1]], "out.b"),
], ids=["missing", "wrong-shape", "unknown", "out-of-order", "duplicate"])
def test_manifest_checked_against_the_full_layout(trained_model, edit, culprit, capsys):
    _, examples, path = trained_model
    _rewrite(path, edit)
    with pytest.raises(CheckpointError, match=re.escape(culprit)):
        load_checkpoint(path)
    data = path.parent / "data.jsonl"
    data.write_text("".join(json.dumps(example_to_dict(ex)) + "\n" for ex in examples))
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
    assert culprit in capsys.readouterr().err


def _edit_header(path, edit):
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12:12 + n])
    edit(header)
    _write(path, header, raw[12 + n:])


def test_malformed_manifest_entry(trained_model):
    _, _, path = trained_model
    _edit_header(path, lambda h: h["params"].__setitem__(3, ["local.mask.W1", [8, 4]]))
    with pytest.raises(CheckpointError, match="manifest entry 3"):
        load_checkpoint(path)


def test_invalid_config_in_header(trained_model):
    _, _, path = trained_model
    _edit_header(path, lambda h: h["config"].__setitem__("d_model", 0))
    with pytest.raises(CheckpointError, match="d_model must be positive"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("lr", -0.01), ("lr", float("nan")),
                                        ("l2", -1.0), ("l2", float("inf")),
                                        ("sample_interval", float("nan"))])
def test_bad_rate_or_interval_in_header(trained_model, key, value):
    _, _, path = trained_model
    _edit_header(path, lambda h: h["config"].__setitem__(key, value))
    with pytest.raises(CheckpointError, match=f"bad config in header: config: {key} must be"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value, expected", [("d_model", 8.0, 8), ("d_model", "8", 8),
                                                  ("lr", 1, 1.0), ("lr", "0.5", 0.5),
                                                  ("use_mask", "false", False)])
def test_header_whole_numbers_and_strings_still_load(trained_model, key, value, expected):
    _, _, path = trained_model
    _edit_header(path, lambda h: h["config"].__setitem__(key, value))
    loaded = getattr(load_checkpoint(path).config, key)
    assert loaded == expected and type(loaded) is type(expected)


def _set(key, value):
    return lambda h: h.__setitem__(key, value)


@pytest.mark.parametrize("edit, field", [
    (_set("config", []), "config"),
    (_set("config", None), "config"),
    (lambda h: h["config"].__setitem__("d_model", []), "d_model"),
    (lambda h: h["config"].__setitem__("lr", None), "lr"),
    (lambda h: h["config"].__setitem__("d_head", "x"), "d_head"),
    (lambda h: h["config"].__setitem__("d_hid", float("inf")), "d_hid"),
    # int() would read 8.9 as 8, float() true as 1.0 and the flag parser 1 as true
    (lambda h: h["config"].__setitem__("d_model", 8.9), "bad config in header: config: d_model"),
    (lambda h: h["config"].__setitem__("kappa_max", 3.2),
     "bad config in header: config: kappa_max"),
    (lambda h: h["config"].__setitem__("lr", True), "bad config in header: config: lr"),
    (lambda h: h["config"].__setitem__("use_mask", 1), "bad config in header: config: use_mask"),
    (_set("vocab", 5), "vocab"),
    (lambda h: h["vocab"].__setitem__(2, 7), "vocab"),
    (_set("tag_vocab", "x"), "tag_vocab"),
    (lambda h: h["tag_vocab"].append(None), "tag_vocab"),
    (_set("params", 7), "params"),
    (_set("params", {"embed.token": [1, 2]}), "params"),
    (lambda h: h["params"][0].__setitem__("name", ["embed.token"]), "manifest entry 0"),
    (lambda h: h["params"][0].__setitem__("name", 3), "unknown parameter 3"),
    (lambda h: h["params"][1].__setitem__("shape", [4.5, 2]), "embed.tag"),
    (lambda h: h["params"][1].__setitem__("shape", "ab"), "embed.tag"),
    (lambda h: h["params"][1].__setitem__("shape", 8), "manifest entry 1"),
], ids=["config-list", "config-null", "config-value-list", "config-value-null",
        "config-value-str", "config-value-inf", "config-int-fraction", "config-kappa-fraction",
        "config-float-bool", "config-bool-int", "vocab-int", "vocab-entry-int", "tag-vocab-str",
        "tag-vocab-entry-null", "params-int", "params-object", "entry-name-list",
        "entry-name-int", "entry-shape-float", "entry-shape-str", "entry-shape-int"])
def test_header_field_of_the_wrong_json_type(trained_model, edit, field, capsys):
    _, examples, path = trained_model
    _edit_header(path, edit)
    with pytest.raises(CheckpointError, match=re.escape(field)):
        load_checkpoint(path)
    data = path.parent / "data.jsonl"
    data.write_text("".join(json.dumps(example_to_dict(ex)) + "\n" for ex in examples))
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_header_that_is_not_an_object(trained_model):
    _, _, path = trained_model
    _write(path, [1, 2], b"")
    with pytest.raises(CheckpointError, match="JSON object"):
        load_checkpoint(path)


def _bad_magic(path):
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])
    return f"bad magic header: expected {MAGIC!r}, got {b'NOPE'!r}"


def _cut_last_entry(path):
    path.write_bytes(path.read_bytes()[:-8])
    return "truncated data for parameter out.b"


def _header_not_an_object(path):
    _write(path, [1, 2], b"")
    return "header is not a JSON object"


@pytest.mark.parametrize("command", ["eval", "inspect"])
@pytest.mark.parametrize("corrupt", [_bad_magic, _cut_last_entry, _header_not_an_object],
                         ids=["magic", "truncated", "header"])
def test_the_cli_names_the_checkpoint_in_a_checkpoint_error(trained_model, command, corrupt,
                                                             capsys):
    """gdd eval and gdd inspect put the checkpoint's path in front of
    load_checkpoint's own message, exit 2 and print nothing to stdout."""
    _, examples, path = trained_model
    message = corrupt(path)
    data = path.with_name("data.jsonl")
    data.write_text(json.dumps(example_to_dict(examples[0])) + "\n")
    extra = ["--index", "0"] if command == "inspect" else []
    assert main([command, "--checkpoint", str(path), "--data", str(data), *extra]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {path}: {message}\n"
    assert out == ""


def _eval_exit_code(path, examples) -> int:
    data = path.parent / "data.jsonl"
    data.write_text("".join(json.dumps(example_to_dict(ex)) + "\n" for ex in examples))
    return main(["eval", "--checkpoint", str(path), "--data", str(data)])


def test_a_header_nested_too_deep_is_a_corrupt_header(trained_model, capsys):
    """A header whose config is 5,000 arrays deep overflows the JSON
    parser's recursion: gdd eval names the checkpoint, calls the header
    corrupt and exits 2, without a traceback."""
    _, examples, path = trained_model
    blob = b'{"config": ' + b"[" * 5000 + b"]" * 5000 + b"}"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
    assert _eval_exit_code(path, examples[:1]) == 2
    out, err = capsys.readouterr()
    assert re.fullmatch(rf"error: {re.escape(str(path))}: corrupt header: [^\n]*\n", err), err
    assert out == ""


def test_a_header_with_many_heads_builds_no_layout_past_the_manifest(trained_model):
    """U = 10**5 in the header implies 300,000 dual-head tensors, but the
    file's manifest lists the toy's few: the load stops one tensor past
    them, so its work stays that of the file, a peak of a few MB of
    allocations rather than tens, before the manifest check raises."""
    _, _, path = trained_model
    _edit_header(path, lambda h: h["config"].__setitem__("U", 10 ** 5))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _write_vocabs(path, edit):
    """Rewrite a checkpoint after edit(header) changes its vocabularies; its
    manifest and data (zeros) are sized to the new vocabularies, so that
    they pass every check but the one on the lists themselves."""
    model = load_checkpoint(path)
    header = {"config": model.config.to_dict(), "vocab": model.vocab.to_list(),
              "tag_vocab": model.tag_vocab.to_list()}
    edit(header)
    layout = list(param_layout(model.config, len(header["vocab"]), len(header["tag_vocab"])))
    header["params"] = [{"name": n, "shape": list(shape)} for n, shape in layout]
    _write(path, header, bytes(8 * sum(math.prod(shape) for _, shape in layout)))


@pytest.mark.parametrize("edit, message", [
    (_set("vocab", []), "'vocab': must start with the reserved tokens '<pad>', '<unk>'"),
    (_set("tag_vocab", []),
     "'tag_vocab': must start with the reserved tokens '<pad-tag>', '<unk-tag>'"),
    (lambda h: h["vocab"].reverse(), "'vocab': must start with the reserved tokens"),
    (lambda h: h["tag_vocab"].pop(0), "'tag_vocab': must start with the reserved tokens"),
    (lambda h: h["vocab"].append("<unk>"), "'vocab': token '<unk>' listed twice"),
    (lambda h: h["tag_vocab"].insert(3, "<unk-tag>"), "'tag_vocab': token '<unk-tag>' listed twice"),
], ids=["vocab-empty", "tag-vocab-empty", "vocab-reversed", "tag-vocab-no-pad",
        "vocab-repeat", "tag-vocab-repeat"])
def test_vocabularies_must_be_well_formed(trained_model, edit, message, capsys):
    """An empty vocabulary would load and crash the first eval; a repeated
    token would be remapped to its last id."""
    _, examples, path = trained_model
    _write_vocabs(path, edit)
    with pytest.raises(CheckpointError, match=re.escape(f"header field {message}")):
        load_checkpoint(path)
    assert _eval_exit_code(path, examples) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("name, index, value", [
    ("out.b", 0, float("nan")),
    ("embed.tag", -1, float("inf")),
    ("dgat.l0.Wr", 5, -float("inf")),
])
def test_non_finite_data_is_named(trained_model, name, index, value, capsys):
    """A NaN output bias would load, and argmax over NaN logits would give
    one label for every example."""
    _, examples, path = trained_model

    def edit(tensors):
        for n, t in tensors:
            if n == name:
                t.flat[index] = value
        return tensors

    _rewrite(path, edit)
    message = f"non-finite value in parameter {name}"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(path)
    assert _eval_exit_code(path, examples) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_finite_data_whose_sum_overflows_loads(trained_model):
    _, _, path = trained_model

    def edit(tensors):
        for n, t in tensors:
            if n == "out.W":
                t.flat[:2] = 1e308
        return tensors

    _rewrite(path, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor does it warn of the overflow
        loaded = load_checkpoint(path)
    with np.errstate(over="ignore"):
        assert not np.isfinite(loaded.params.flat.sum())
    assert np.all(loaded.params.get("out.W").flat[:2] == 1e308)
