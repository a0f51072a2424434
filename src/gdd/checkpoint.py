"""Self-describing binary checkpoints.

Layout: 4-byte magic "GDD1", 8-byte little-endian header length, a JSON
header (config, both vocabularies, and an ordered parameter manifest of
name -> shape), then each tensor's raw little-endian float64 data in
manifest order: the model's flat parameter buffer, written and read in one
call. The manifest must match the layout that the config and the two
vocabulary sizes imply.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import sys

import numpy as np

from .embeddings import TagVocab, Vocab
from .model import Model, ModelConfig, ModelParams, param_layout

MAGIC = b"GDD1"


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(path, model: Model) -> None:
    manifest = [{"name": name, "shape": list(t.shape)} for name, t in model.params.items()]
    header = {
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_list(),
        "tag_vocab": model.tag_vocab.to_list(),
        "params": manifest,
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.asarray(model.params.flat, dtype="<f8"))


def load_checkpoint(path) -> Model:
    """The model saved at `path`; CheckpointError for a file that is not a
    consistent checkpoint.

    Every entry of the loaded parameters comes from the file: the data's
    size is checked against the file's before anything is allocated, and a
    read that then returns fewer bytes (a file cut short meanwhile) raises,
    naming the first tensor it cut. The gradient buffer is not written, so
    a model loaded only to predict never makes it resident (ModelParams).
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic header: expected {MAGIC!r}, got {magic!r}")
        size_field = fh.read(8)
        if len(size_field) < 8:
            raise CheckpointError("truncated header length")
        (header_len,) = struct.unpack("<Q", size_field)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if header_len > left:
            raise CheckpointError(
                f"header length {header_len} exceeds the {left} bytes left in the file")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointError(f"corrupt header: {e}") from None
        _check_header_types(header)
        try:
            config = ModelConfig.from_dict(header["config"])
        except ValueError as e:
            raise CheckpointError(f"bad config in header: {e}") from None
        vocab = _vocab(Vocab, header, "vocab")
        tag_vocab = _vocab(TagVocab, header, "tag_vocab")
        # A layout longer than the manifest cannot match it, so it is built
        # one entry past the manifest's length, its work bounded by the file.
        layout = list(itertools.islice(param_layout(config, len(vocab), len(tag_vocab)),
                                       len(header["params"]) + 1))
        _check_manifest(header["params"], layout)
        # The file's size is checked before anything is allocated, so a
        # header that implies more data than the file holds allocates nothing.
        left -= header_len
        if _data_bytes(layout, left) < left:
            raise CheckpointError("trailing bytes after parameter data")
        params = ModelParams(layout)
        # params.flat starts uninitialized, so a file that shrank after the
        # size check must not load: every byte has to come from the file. Only
        # a short read walks the layout, to name the first tensor it cut.
        if (got := fh.readinto(params.flat.view(np.uint8))) < params.flat.nbytes:
            _data_bytes(layout, got)
        if sys.byteorder == "big":  # the file holds little-endian float64
            params.flat.byteswap(inplace=True)
    # One sum tests every entry, as training.check_finite does; a sum that
    # overflows over finite entries finds no culprit and loads.
    with np.errstate(over="ignore"):
        total = params.flat.sum()
    if not math.isfinite(total):
        bad = params.first_non_finite(params.flat)
        if bad is not None:
            raise CheckpointError(f"non-finite value in parameter {bad}")
    return Model(config, vocab, tag_vocab, params)


def _data_bytes(layout, nbytes: int) -> int:
    """The bytes that the layout's tensors take. Raises CheckpointError,
    naming the first tensor whose data ends past `nbytes`, when that is more
    than nbytes."""
    stop = 0
    for name, shape in layout:
        stop += math.prod(shape)
        if 8 * stop > nbytes:
            raise CheckpointError(f"truncated data for parameter {name}")
    return 8 * stop


def _vocab(cls, header: dict, key: str) -> Vocab:
    try:
        return cls.from_list(header[key])
    except ValueError as e:
        raise CheckpointError(f"header field {key!r}: {e}") from None


def _check_header_types(header) -> None:
    """Each header field must have the JSON type that save_checkpoint writes."""
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    for key in ("config", "vocab", "tag_vocab", "params"):
        if key not in header:
            raise CheckpointError(f"header missing {key!r}")
    config = header["config"]
    if not isinstance(config, dict):
        raise CheckpointError(f"header field 'config' must be an object, got {config!r}")
    for key in ("vocab", "tag_vocab"):
        tokens = header[key]
        try:
            "".join(tokens)  # fails on any item that is not a string, at C speed
        except TypeError:
            tokens = None
        if not isinstance(tokens, list):
            raise CheckpointError(f"header field {key!r} must be a list of strings")
    if not isinstance(header["params"], list):
        raise CheckpointError("header field 'params' must be a list of manifest entries")


def _check_manifest(manifest, layout) -> None:
    """The manifest must list exactly the tensors that the config and both
    vocabulary sizes imply, in layout order, with their shapes. A manifest
    shorter than the layout is reported by a tensor it misses, whatever
    else it names, so the layout may be cut one entry past the manifest's
    length (as load_checkpoint cuts it)."""
    expected = dict(layout)
    complete = len(expected) <= len(manifest)
    names = []
    for i, entry in enumerate(manifest):
        try:
            name, shape = entry["name"], tuple(entry["shape"])
            known = name in expected  # a TypeError when the name is a list or an object
        except (KeyError, TypeError):
            raise CheckpointError(f"malformed parameter manifest entry {i}: {entry!r}") from None
        if not known:
            if complete:
                raise CheckpointError(f"checkpoint has unknown parameter {name}")
        elif shape != expected[name]:
            raise CheckpointError(
                f"checkpoint/config mismatch for {name}: {shape} vs expected {expected[name]}")
        names.append(name)
    if names == list(expected):
        return
    seen = set()
    for name in names:
        if name in seen:
            raise CheckpointError(f"checkpoint lists parameter {name} twice")
        seen.add(name)
    for name in expected:
        if name not in seen:
            raise CheckpointError(f"checkpoint missing parameter {name}")
    at = next(i for i, (a, b) in enumerate(zip(names, expected)) if a != b)
    raise CheckpointError(f"checkpoint parameter {names[at]} out of order: "
                          f"the layout has {list(expected)[at]} there")
