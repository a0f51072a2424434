"""Model assembly: configuration, named parameters, forward pass, loss.

The final representation concatenates the local (masked covariance
attention) feature with the global (graph attention) feature and maps it
through one fully connected layer to the three polarity probabilities.
Class order is fixed: positive=0, neutral=1, negative=2.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dgat as dg
from . import local_encoder as le
from .autodiff import Leaf, Var
from .data import LABELS, DataError, Example
from .dep_graph import Awig, DepTree, build_awig
from .embeddings import TagVocab, Vocab, composed_tag_ids, token_ids
from .numeric import Rng, Tensor, init_uniform


@dataclass
class ModelConfig:
    d_model: int = 64
    d_tag: int = 16
    d_head: int = 16
    d_hid: int = 32
    U: int = 3
    V: int = 3
    L: int = 2
    kappa_max: int = 3
    sample_interval: float = 0.2
    dropout: float = 0.0
    lr: float = 5e-5
    l2: float = 1e-5
    epochs: int = 30
    seed: int = 0
    batch_size: int = 1
    normalize_mask: bool = False
    attention: str = "covariance"
    scale_logits: bool = False
    use_mask: bool = True
    drop_punct: bool = False
    local_heads: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("d_model", "d_tag", "d_head", "d_hid", "L", "kappa_max",
                     "epochs", "batch_size", "local_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"config: {name} must be positive")
        if self.U < 0 or self.V < 0 or self.U + self.V < 1:
            raise ValueError("config: need at least one attention head (U + V >= 1)")
        if self.seed < 0:
            raise ValueError("config: seed must be a non-negative integer")
        for name in ("lr", "sample_interval"):
            if not 0.0 < getattr(self, name) < math.inf:  # false for NaN too
                raise ValueError(f"config: {name} must be finite and positive")
        if not 0.0 <= self.l2 < math.inf:
            raise ValueError("config: l2 must be finite and non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("config: dropout must lie in [0, 1)")
        if self.attention not in ("covariance", "original"):
            raise ValueError(f"config: unknown attention variant {self.attention!r}")
        if self.d_head % self.local_heads != 0:
            raise ValueError("config: local_heads must divide d_head")

    @property
    def d_edge0(self) -> int:
        return (self.kappa_max + 1) * self.d_tag

    def aspect_width(self, layer: int) -> int:
        return self.d_model if layer == 0 else (self.U + self.V) * self.d_head

    def edge_width(self, layer: int) -> int:
        return self.d_edge0 if layer == 0 else self.d_model

    @property
    def final_width(self) -> int:
        return (self.U + self.V + 1) * self.d_head

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in d.items():
            if key not in known:
                raise ValueError(f"config: unknown key {key!r}")
            kwargs[key] = _coerce(key, raw, known[key])
        return cls(**kwargs)


def _coerce(key: str, raw, typ):
    """raw as a value of type typ. A string, from a flag or a config file, is
    parsed. Any other value, from a checkpoint header, is never converted to
    another kind: a number is not a boolean, a boolean is not a number, and
    an int key takes whole numbers only, as data.as_index does."""
    if typ in ("bool", bool):
        if isinstance(raw, bool):
            return raw
        text = raw.strip().lower() if isinstance(raw, str) else None
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise ValueError(f"config: {key} expects a boolean, got {raw!r}")
    is_int = typ in ("int", int)
    if not is_int and typ not in ("float", float):
        return str(raw)
    try:
        if isinstance(raw, bool) or (is_int and isinstance(raw, float) and not raw.is_integer()):
            raise ValueError(raw)
        return int(raw) if is_int else float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"config: {key} expects a number ({typ}), got {raw!r}") from None


def _zero_pages(size: int) -> Tensor:
    """`size` float64 zeros on private anonymous pages, resident once written."""
    if not size:  # mmap refuses length 0
        return np.zeros(0)
    return np.frombuffer(mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE), np.float64)


class ModelParams:
    """Named trainable tensors, each a view into one contiguous float64 buffer.

    `flat` holds every tensor's values and `grad` every tensor's gradient,
    both in layout order. get(), items() and leaves() hand out views, so a
    write through them is a write into the buffer. The tape leaves are built
    on first use, not here, and every forward pass reads the same ones,
    predict's as well as training's.

    Only the memory a run writes is made resident:
    - `flat` starts uninitialized (np.empty). Whoever builds a ModelParams
      writes every entry before reading one: init_params assigns every
      tensor, and the tensors tile `flat`; load_checkpoint reads the whole
      buffer from the file.
    - `grad` starts as zeros on private anonymous-mmap pages, which read as
      zero and become resident only when written. A model that never runs
      backward() (one loaded to predict, one built to prepare) never makes
      its gradient resident and never fills it.
    """

    def __init__(self, layout=()):
        self._spans: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        size = 0
        for name, shape in layout:
            if name in self._spans:
                raise ValueError(f"duplicate parameter name: {name}")
            shape = tuple(shape)
            stop = size + math.prod(shape)
            self._spans[name] = (size, stop, shape)
            size = stop
        self.flat = np.empty(size)
        self.grad = _zero_pages(size)
        self._values = {name: self.flat[lo:hi].reshape(shape)
                        for name, (lo, hi, shape) in self._spans.items()}
        self._grads = {name: self.grad[lo:hi].reshape(shape)
                       for name, (lo, hi, shape) in self._spans.items()}
        self._leaves: dict[str, Leaf] | None = None
        self._flat_leaf: Leaf | None = None

    def get(self, name: str) -> Tensor:
        return self._values[name]

    def set(self, name: str, tensor: Tensor) -> None:
        view = self._values[name]
        if view.shape != tensor.shape:
            raise ValueError(f"shape mismatch for {name}: {view.shape} vs {tensor.shape}")
        view[...] = tensor

    def names(self) -> list[str]:
        return list(self._values)

    def items(self):
        return self._values.items()

    def span(self, name: str) -> tuple[int, int]:
        """The [start, stop) range of `name` in the flat buffers."""
        lo, hi, _ = self._spans[name]
        return lo, hi

    def leaves(self) -> dict[str, Leaf]:
        """The model's tape leaves, one per tensor, built once: every call
        returns the same dict of the same Leaf objects.

        A leaf's value and gradient are its views into flat and grad, so it
        always reads the current values, and backward() adds into grad in
        place. Nothing here zeroes grad: a pass that runs backward() does so
        first, and a forward alone leaves grad as it was.
        """
        if self._leaves is None:
            self._leaves = {name: Leaf(t, self._grads[name]) for name, t in self._values.items()}
        return self._leaves

    def flat_leaf(self) -> Leaf:
        """One tape leaf over the whole flat buffer, its gradient the whole of
        grad, built once."""
        if self._flat_leaf is None:
            self._flat_leaf = Leaf(self.flat, self.grad)
        return self._flat_leaf

    def first_non_finite(self, buf: Tensor) -> str | None:
        """The first tensor, in layout order, whose span of buf (flat or
        grad) holds a NaN or an infinity; None when every entry is finite."""
        return next((name for name, (lo, hi, _) in self._spans.items()
                     if not np.all(np.isfinite(buf[lo:hi]))), None)

    def total_size(self) -> int:
        return self.flat.size

    def stack(self, names) -> tuple[Tensor, Tensor]:
        """Views of flat and of grad that stack the tensors `names` along a
        new leading axis, with no copy. They must share one shape and sit at
        equal spacing in the layout, as the heads of one family in a DGAT
        layer do."""
        spans = [self._spans[name] for name in names]
        start, stop, shape = spans[0]
        step = spans[1][0] - start if len(spans) > 1 else 0
        if any(sp != (start + i * step, stop + i * step, shape) for i, sp in enumerate(spans)):
            raise ValueError(f"cannot stack {list(names)}: unequal shapes or spacing")

        def view(buf):
            first = buf[start:stop].reshape(shape)
            return np.lib.stride_tricks.as_strided(
                buf[start:], (len(spans),) + shape, (step * buf.itemsize,) + first.strides)

        return view(self.flat), view(self.grad)


def param_layout(config: ModelConfig, vocab_size: int,
                 tag_vocab_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable tensor, in the fixed order of
    initialization, of the flat buffers and of checkpoints."""
    d_model, d_tag, d_head = config.d_model, config.d_tag, config.d_head
    layout = [
        ("embed.token", (vocab_size, d_model)),
        ("embed.tag", (tag_vocab_size, d_tag)),
        ("embed.hop", (config.kappa_max, d_tag)),
        ("local.mask.W1", (d_model, config.d_hid)),
        ("local.mask.b1", (config.d_hid,)),
        ("local.mask.W2", (config.d_hid, 1)),
        ("local.mask.b2", (1,)),
    ]
    layout += [(f"local.attn.{w}", (d_model, d_head)) for w in ("Wq", "Wk", "Wv")]
    for l in range(config.L):
        a_w, e_w = config.aspect_width(l), config.edge_width(l)
        for u in range(config.U):
            layout += [(f"dgat.l{l}.dual{u}.Wa", (a_w, d_head)),
                       (f"dgat.l{l}.dual{u}.We", (e_w, d_head)),
                       (f"dgat.l{l}.dual{u}.Wi", (d_model, d_head))]
        for v in range(config.V):
            layout += [(f"dgat.l{l}.rel{v}.Wv", (d_model, d_head)),
                       (f"dgat.l{l}.rel{v}.W1", (e_w, d_head)),
                       (f"dgat.l{l}.rel{v}.b1", (d_head,)),
                       (f"dgat.l{l}.rel{v}.W2", (d_head, 1)),
                       (f"dgat.l{l}.rel{v}.b2", (1,))]
        layout.append((f"dgat.l{l}.Wr", (e_w, d_model)))
    layout += [("out.W", (config.final_width, len(LABELS))), ("out.b", (len(LABELS),))]
    return layout


def init_params(config: ModelConfig, vocab_size: int, tag_vocab_size: int,
                rng: Rng) -> ModelParams:
    """Allocate and seed every trainable tensor in a fixed, reproducible order."""
    p = ModelParams(param_layout(config, vocab_size, tag_vocab_size))
    for _, t in p.items():
        t[...] = init_uniform(rng, t.shape)
    return p


REL_FIELDS = ("Wv", "W1", "b1", "W2")  # b2, a softmax shift, is stored but never read


def rel_head_stacks(params: ModelParams, config: ModelConfig) -> list[dg.RelHeads | None]:
    """Per DGAT layer, its V relational heads as one dg.RelHeads (None when
    V = 0). Each field is a Leaf over the ModelParams.stack views of that
    field across the layer's heads, which a forward reads from params.flat
    and backward() adds into params.grad. The heads of a layer sit at equal
    spacing in param_layout, so these are strided views, and checkpoints and
    the layout stay per head."""
    return [dg.RelHeads(*(Leaf(*params.stack([f"dgat.l{l}.rel{v}.{w}" for v in range(config.V)]))
                          for w in REL_FIELDS)) if config.V else None
            for l in range(config.L)]


def dgat_layer_params(params: ModelParams, config: ModelConfig) -> list[dg.DgatLayerParams]:
    """Per DGAT layer, the tensors its forward reads: each dual head's We and
    Wi and the layer's Wr as params.leaves(), and the stacks over the
    layer's heads, which sit at equal spacing in param_layout, as Leafs over
    ModelParams.stack views: the dual heads' Wa (None when U = 0) and the
    relational fields (rel_head_stacks)."""
    leaves, U = params.leaves(), config.U
    return [dg.DgatLayerParams(
        dual=[dg.DualHeadParams(leaves[f"dgat.l{l}.dual{u}.We"], leaves[f"dgat.l{l}.dual{u}.Wi"])
              for u in range(U)],
        Wa=Leaf(*params.stack([f"dgat.l{l}.dual{u}.Wa" for u in range(U)])) if U else None,
        rel=rel, Wr=leaves[f"dgat.l{l}.Wr"])
        for l, rel in enumerate(rel_head_stacks(params, config))]


def _as_lists(trace):
    """A trace with every array turned into nested lists, for JSON."""
    if isinstance(trace, np.ndarray):
        return trace.tolist()
    if isinstance(trace, dict):
        return {key: _as_lists(value) for key, value in trace.items()}
    if isinstance(trace, list):
        return [_as_lists(value) for value in trace]
    return trace


class NonFiniteForward(ArithmeticError):
    """A forward pass whose logits are not all finite.

    example is the Example it ran on; quantity names the first quantity of
    the pass, in forward order, that is not finite: sigma (also when it is
    0, which the mask divides by), the mask, the local attention, a DGAT
    layer's beta, omega or rho, or the logits.
    """

    def __init__(self, example: Example, quantity: str):
        self.example, self.quantity = example, quantity
        super().__init__(f"non-finite forward pass, first at {quantity}")


class FrozenEmbeddingError(DataError):
    """A sentence that has no frozen-vector record, or one whose shape is not
    (tokens, d_model). example is the Example whose forward pass read it, so
    that a caller can name where the example came from."""

    def __init__(self, example: Example, message: str):
        self.example = example
        super().__init__(message)


def _first_non_finite(trace) -> str:
    """The first quantity of a forward pass's trace, in forward order, that
    is not finite (see NonFiniteForward); the logits when no other is."""
    sigma = trace["sigma"]
    if sigma is not None and not 0.0 < sigma < math.inf:
        return f"sigma ({sigma})"
    named = [("mask", trace["mask"]), ("local attention", trace["local_attention"])]
    layers = trace["dgat"]
    for l, weights in enumerate(zip(layers["beta"], layers["omega"], layers["rho"])):
        named += [(f"DGAT layer {l} {key}", w) for key, w in zip(("beta", "omega", "rho"), weights)]
    return next((name for name, v in named if v is not None and not np.all(np.isfinite(v))),
                "logits")


@dataclass
class Prediction:
    probs: Tensor  # over (positive, neutral, negative)
    label_id: int
    logits: Tensor

    @property
    def label(self) -> str:
        return LABELS[self.label_id]


@dataclass
class Prepared:
    """Everything derivable from an Example before touching parameters.

    Model.prepare makes one per example; forward_var reads it. Its arrays
    are C-contiguous intp arrays: token_ids has one entry per token,
    word_token_idx one per graph word node (the token it stands for), and
    edge m's tag-table rows and hop-table row sit in edge_slot_ids[m] and
    edge_hop_idx[m]. An aspect with no graph words has m = 0 rows.
    """

    example: Example
    token_ids: np.ndarray
    span: tuple[int, int]  # inclusive
    gold: int
    awig: Awig
    word_token_idx: np.ndarray
    edge_slot_ids: np.ndarray  # m x kappa_max tag-table rows
    edge_hop_idx: np.ndarray   # m hop-table rows


class Model:
    """Configured parameters plus the forward machinery tying them together."""

    def __init__(self, config: ModelConfig, vocab: Vocab, tag_vocab: TagVocab,
                 params: ModelParams):
        self.config = config
        self.vocab = vocab
        self.tag_vocab = tag_vocab
        self.params = params
        # sentence -> frozen vectors read in place of the token table
        self.frozen_embeddings: dict[tuple[str, ...], Tensor] | None = None
        # the DGAT layers' parameters, built by the first forward pass,
        # training's or predict's, like params.leaves()
        self._layers: list[dg.DgatLayerParams] | None = None

    @classmethod
    def build(cls, config: ModelConfig, vocab: Vocab, tag_vocab: TagVocab) -> "Model":
        params = init_params(config, len(vocab), len(tag_vocab), Rng(config.seed))
        return cls(config, vocab, tag_vocab, params)

    @classmethod
    def build_for_examples(cls, config: ModelConfig, examples) -> "Model":
        vocab = Vocab.from_corpus(ex.tokens for ex in examples)
        tag_vocab = TagVocab.from_corpus(ex.dep_rels for ex in examples)
        return cls.build(config, vocab, tag_vocab)

    def prepare(self, example: Example) -> Prepared:
        """The parameter-free inputs of one forward pass: token ids, the
        aspect-word graph (one build_awig call) and its edges' tag ids.

        The example's tree is validated again, since an Example built in
        code is checked nowhere else; it shares the example's lists, as
        nothing keeps it.
        """
        cfg = self.config
        span = example.aspect_span_inclusive
        awig = build_awig(DepTree(example.tokens, example.dep_heads, example.dep_rels),
                          span, cfg.kappa_max, drop_punct=cfg.drop_punct)
        slots, hops = composed_tag_ids(awig.paths, self.tag_vocab, cfg.kappa_max)
        return Prepared(
            example=example,
            token_ids=token_ids(example.tokens, self.vocab),
            span=span,
            gold=example.label_id,
            awig=awig,
            word_token_idx=np.array(awig.words, dtype=np.intp),
            edge_slot_ids=slots,
            edge_hop_idx=hops,
        )

    def _sentence_matrix(self, prep: Prepared, leaves: dict[str, Var]) -> Var:
        if self.frozen_embeddings is not None:
            key = tuple(prep.example.tokens)
            if key not in self.frozen_embeddings:
                raise FrozenEmbeddingError(
                    prep.example, f"no frozen embedding record for sentence: {' '.join(key)}")
            H = self.frozen_embeddings[key]
            if H.shape != (len(key), self.config.d_model):
                raise FrozenEmbeddingError(
                    prep.example,
                    f"frozen embedding shape {H.shape} != ({len(key)}, {self.config.d_model}) "
                    f"for sentence: {' '.join(key)}")
            return Var(H)
        return ad.gather_rows(leaves["embed.token"], prep.token_ids)

    def _edge_matrix(self, prep: Prepared, leaves: dict[str, Var]) -> Var:
        """The layer-0 edge rows, one node: row i sets the tag-table rows of
        edge i's path side by side, then its hop-table row."""
        if prep.awig.num_words == 0:
            return Var(np.zeros((0, self.config.d_edge0)))
        return ad.gather_concat(((leaves["embed.tag"], prep.edge_slot_ids),
                                 (leaves["embed.hop"], prep.edge_hop_idx)))

    def forward_var(self, prep: Prepared, leaves: dict[str, Var],
                    train: bool = False, dropout_rng: Rng | None = None):
        """Tape forward pass; returns (logits Var[3], trace dict).

        Every weight comes from `leaves` except the DGAT layers', which, as
        regularizer_var's, always read the model's own buffers: the list of
        dgat_layer_params, built on the first call (its Wa and relational
        stacks are Leafs over params.flat and params.grad) and read by every
        later one. The trace holds the attention weights and the mask as
        arrays; predict(with_trace=True) turns them into lists for JSON.
        """
        cfg = self.config
        if self._layers is None:
            self._layers = dgat_layer_params(self.params, cfg)
        H = self._sentence_matrix(prep, leaves)

        h_local, trace = le.local_forward_var(
            H, prep.span,
            (leaves["local.mask.W1"], leaves["local.mask.b1"],
             leaves["local.mask.W2"], leaves["local.mask.b2"]),
            (leaves["local.attn.Wq"], leaves["local.attn.Wk"], leaves["local.attn.Wv"]),
            interval=cfg.sample_interval, variant=cfg.attention,
            normalize_mask=cfg.normalize_mask, use_mask=cfg.use_mask,
            heads=cfg.local_heads)

        s, e = prep.span
        h_a = ad.sum_rows(H, s, e + 1)
        H_N = ad.gather_rows(H, prep.word_token_idx)
        E = self._edge_matrix(prep, leaves)
        h_global, layer_traces = dg.global_forward_var(
            h_a, H_N, E, self._layers, cfg.d_head,
            scale=cfg.scale_logits, dropout=cfg.dropout if train else 0.0, rng=dropout_rng)

        trace["dgat"] = {
            "beta": [t["beta"] for t in layer_traces],
            "omega": [t["omega"] for t in layer_traces],
            "rho": [t["rho"] for t in layer_traces],
            "empty": layer_traces[0]["empty"] if layer_traces else True,
        }

        h_final = ad.concat([h_local, h_global])
        logits = ad.matmul(h_final, leaves["out.W"]) + leaves["out.b"]
        return logits, trace

    def predict(self, example: Example, with_trace: bool = False):
        """Class probabilities for one example (and its trace, as lists for
        JSON, with with_trace)."""
        return self.predict_prepared(self.prepare(example), with_trace)

    def predict_prepared(self, prep: Prepared, with_trace: bool = False):
        """predict() on an example prepared already, e.g. once for many epochs.

        The forward reads the tape leaves that training reads (params.leaves()
        and the relational stacks), so it sees every update made in place
        (adam_step, ModelParams.set). It runs no backward(), so params.grad
        is left as it was. Logits that are not all finite raise
        NonFiniteForward, naming the first quantity of the pass that is not;
        numpy's own floating-point warnings are the caller's to silence.
        """
        logits, trace = self.forward_var(prep, self.params.leaves())
        if not np.isfinite(logits.value).all():
            raise NonFiniteForward(prep.example, _first_non_finite(trace))
        probs = np.exp(logits.value - logits.value.max())
        probs /= probs.sum()
        pred = Prediction(probs=probs, label_id=int(np.argmax(probs)),
                          logits=logits.value.copy())
        return (pred, _as_lists(trace)) if with_trace else pred

    def regularizer_var(self) -> Var:
        """Sum of squared weight-matrix entries; biases and PAD rows excluded.

        One tape node over params.flat_leaf(); its gradient goes straight
        into params.grad, which the leaves of params.leaves() view.
        """
        return ad.sum_squares(self.params.flat_leaf(), self._l2_runs)

    @functools.cached_property
    def _l2_runs(self) -> tuple[tuple[int, int], ...]:
        """The [start, stop) ranges of params.flat that the l2 term covers:
        every 2-D tensor except the PAD rows (row 0) of the token and tag
        tables, adjacent ranges merged. Computed by the first regularizer_var
        call, so a model loaded only to predict never computes them."""
        runs: list[tuple[int, int]] = []
        for name, t in self.params.items():
            if t.ndim != 2:
                continue
            lo, hi = self.params.span(name)
            if name in ("embed.token", "embed.tag"):
                lo += t.shape[1]
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return tuple(runs)

    def batch_loss_var(self, preps, train: bool = False,
                       dropout_rng: Rng | None = None) -> Var:
        """Summed cross-entropy over the batch plus one l2 term, over the
        model's tape leaves."""
        leaves = self.params.leaves()
        total = None
        for prep in preps:
            logits, _ = self.forward_var(prep, leaves, train=train,
                                         dropout_rng=dropout_rng)
            ce = ad.cross_entropy(logits, prep.gold)
            total = ce if total is None else total + ce
        if self.config.l2 > 0.0:
            total = total + ad.mul(self.regularizer_var(), self.config.l2)
        return total

